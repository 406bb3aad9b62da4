"""First-cut lineage processes driven by window-level hyperplane rain.

In the rejection construction, hyperplanes rain on the window at rate
mass(window) with law Lambda^W, and along any single cell lineage the
per-cell sequences concatenate into one homogeneous rain.  The cell of a
convex body K evolves by clamping to K's side of every rain hyperplane
that meets the cell, until one meets K itself.  Tracking only the lineages
of a few bodies of interest is far cheaper than building whole trees and is
exact for first-cut times, encapsulation times and avoidance indicators.

Each geometry regime has one lineage kernel, the only loop that follows a
cell through the rain: ``_fast_lineage`` clamps box intervals for a batch of
replicates at once when the measure lives on the coordinate axes and the
window is a box, and ``_generic_lineage`` clips one polytope per replicate
for every other measure and window.  A kernel follows the cell shared by a
group of bodies: a mark that meets a body cuts it and the rest keep the
cell, and a mark that separates the group splits it, each side continuing
on its own rain.  The zero-cell scan is the one-body case and the pair scan
the two-body case.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry as geo
from .measure import (DrivingMeasure, box_axis_rates, measure_hitting,
                      sample_hitting)
from .rng import run_replicates, stream

_BATCH = 1 << 16


def zero_cell_scan(measure: DrivingMeasure, window, inner, horizon: float,
                   n: int, seed: int, bands=()) -> dict:
    """Scan n origin-cell trajectories in `window` up to `horizon`.

    `inner` contains the origin, so until `inner` is cut the origin cell is
    the cell of `inner`: each trajectory is one lineage of `inner`, started
    from the window with the window as enclosure.  Returns arrays (inf when
    the event does not occur by the horizon):
      tau_enc     encapsulation time of `inner` in `window`: the first time
                  the cell lies strictly inside the window, before sigma_inner
      sigma_inner first rain time on a hyperplane meeting `inner`
      sigma_bands (n, len(bands)) first rain times inside each band, before
                  sigma_inner (inf from sigma_inner on)
    """
    g = box_axis_rates(measure, window)
    band_axis = [b.axis_form() for b in bands]
    if g is not None and all(f is not None for f in band_axis):
        return _fast_zero(g, window, inner, horizon, n, seed, band_axis)
    return _generic_zero(measure, window, inner, horizon, n, seed, bands)


def pair_scan(measure: DrivingMeasure, window, body_a, body_b, horizon: float,
              n: int, seed: int, enclosure: geo.Box | None = None) -> dict:
    """First-cut times of two bodies under one tessellation trajectory.

    Each trajectory is one lineage of the pair: the bodies share one cell
    (and one rain) while they share a cell; once a cut separates them their
    subtrees are independent and each continues under its own rain.  Returns
    arrays cut_a, cut_b and, when `enclosure` is given, tau_enc: the first
    time the a-lineage cell lies strictly inside the enclosure while body_a
    is uncut.
    """
    g = box_axis_rates(measure, window)
    if g is not None and (enclosure is None or isinstance(enclosure, geo.Box)):
        return _fast_pair(g, window, body_a, body_b, horizon, n, seed, enclosure)
    return _generic_pair(measure, window, body_a, body_b, horizon, n, seed,
                         enclosure)


# ---------------------------------------------------------------------------
# box regime

def _fast_zero(g, window: geo.Box, inner, horizon, n, seed, band_axis):
    cut, tau, sbands = _fast_scan(g, window, (inner,), horizon, n, seed,
                                  window, band_axis)
    return {"tau_enc": tau, "sigma_inner": cut[:, 0], "sigma_bands": sbands}


def _fast_pair(g, window: geo.Box, body_a, body_b, horizon, n, seed, enclosure):
    cut, tau, _ = _fast_scan(g, window, (body_a, body_b), horizon, n, seed,
                             enclosure, ())
    return {"cut_a": cut[:, 0], "cut_b": cut[:, 1], "tau_enc": tau}


def _fast_scan(g, window: geo.Box, bodies, horizon, n, seed, enclosure,
               band_axis):
    """n lineages of `bodies` from the window, in batches of rain marks:
    the cuts (n, k), the enclosure clock and the band clocks."""
    ell = window.dim
    v_lo, v_hi = window.lo_arr, window.hi_arr
    b_lo, b_hi = np.array([geo.support_interval(b, np.eye(ell))
                           for b in bodies]).transpose(1, 0, 2)
    enc = None if enclosure is None else (enclosure.lo_arr, enclosure.hi_arr)
    cut = np.empty((n, len(bodies)))
    tau = np.empty(n)
    sbands = np.empty((n, len(band_axis)))

    for bi, start in enumerate(range(0, n, _BATCH)):
        stop = min(start + _BATCH, n)
        nb = stop - start
        rng = stream(seed, bi)
        marks = _rain_marks(rng, g, v_lo, v_hi, horizon, nb)
        cut[start:stop], tau[start:stop] = _fast_lineage(
            (rng, g, v_lo, v_hi), marks, np.tile(v_lo, (nb, 1)),
            np.tile(v_hi, (nb, 1)), b_lo, b_hi, horizon, enc, np.full(nb, np.inf))
        sbands[start:stop] = _band_clocks(
            marks, np.minimum(cut[start:stop, 0], horizon), band_axis)
        del marks  # free this batch's marks before the next batch is drawn
    return cut, tau, sbands


def _rain_marks(rng, g, v_lo, v_hi, horizon, nb, t0=None):
    """Event times (past the horizon), axes and positions of one rain batch.

    With t0, row i starts at t0[i] and runs at least `horizon` beyond it.
    """
    side = v_hi - v_lo
    rate_c = g * side
    rate = rate_c.sum()
    mean = horizon * rate
    m = int(mean + 8.0 * math.sqrt(mean + 1.0) + 16)
    times = np.cumsum(rng.exponential(1.0 / rate, size=(nb, m)), axis=1)
    while times[:, -1].min() < horizon:
        extra = rng.exponential(1.0 / rate, size=(nb, max(8, m // 4)))
        times = np.hstack([times, times[:, -1:] + np.cumsum(extra, axis=1)])
    shape = times.shape
    cum = np.cumsum(rate_c / rate)
    axes = np.minimum(np.searchsorted(cum, rng.random(shape)), len(g) - 1)
    ds = v_lo[axes] + rng.random(shape) * side[axes]
    if t0 is not None:
        times += t0[:, None]
    return times, axes, ds


def _band_clocks(marks, before, band_axis):
    """Each row's first mark inside each axis band, earlier than `before`."""
    times, axes, ds = marks
    early = times < before[:, None]
    rows = np.arange(len(times))
    clocks = np.empty((len(times), len(band_axis)))
    for a, (bax, blo, bhi) in enumerate(band_axis):
        mark = early & (axes == bax) & (ds > blo) & (ds < bhi)
        k = mark.argmax(axis=1)
        clocks[:, a] = np.where(mark[rows, k], times[rows, k], np.inf)
    return clocks


def _inside(enc, lo, hi):
    """Rows whose box [lo, hi] lies strictly inside enc = (enc_lo, enc_hi)."""
    return (lo > enc[0]).all(axis=1) & (hi < enc[1]).all(axis=1)


def _fast_lineage(rain, marks, lo, hi, b_lo, b_hi, horizon, enc, tau,
                  live=None):
    """Follow the box cells shared by k bodies through rain marks.

    marks are (times, axes, ds), one row per replicate; lo and hi (nb, ell)
    are the cells, clamped in place; b_lo and b_hi (k, ell) are the bodies'
    intervals, and live (nb, k) marks the bodies in each row's cell (all of
    them by default).  A mark that meets the cell cuts the live bodies it
    meets and clamps the cell to the side of the rest.  A mark that leaves
    live bodies on both sides splits the row: each side continues on fresh
    marks from rain = (rng, g, v_lo, v_hi), the side of the first live body
    first.  Returns (cut, tau): cut (nb, k) holds each body's first cut time
    (inf if none by the horizon), and tau, where still inf, becomes the first
    time body 0's cell lies strictly inside the box enc = (enc_lo, enc_hi)
    while body 0 is uncut.  Only rows still following a cell are touched at
    each mark.
    """
    times, axes, ds = marks
    nb, k = len(times), len(b_lo)
    live = np.ones((nb, k), dtype=bool) if live is None else live
    cut = np.full((nb, k), np.inf)
    t_sep = np.full(nb, np.inf)  # split rows: time, axis, position, sides
    ax_sep = np.zeros(nb, dtype=np.int64)
    d_sep = np.zeros(nb)
    low_sep = np.zeros((nb, k), dtype=bool)
    idx = np.arange(nb)

    for j in range(times.shape[1]):
        idx = idx[times[idx, j] < horizon]
        if len(idx) == 0:
            break
        ax, d = axes[idx, j], ds[idx, j]
        meet = (d > lo[idx, ax]) & (d < hi[idx, ax])
        r, ax, d = idx[meet], ax[meet], d[meet]
        t = times[r, j]
        lo_k, hi_k = b_lo[:, ax].T, b_hi[:, ax].T
        hit = live[r] & (d[:, None] >= lo_k) & (d[:, None] <= hi_k)
        cut[r] = np.where(hit, t[:, None], cut[r])
        alive = live[r] & ~hit
        live[r] = alive
        low = hi_k <= d[:, None]  # body below the mark, where not hit
        any_low = (alive & low).any(axis=1)
        any_high = (alive & ~low).any(axis=1)
        one = any_low != any_high  # every live body on one side: clamp
        rc, axc, dc, kl = r[one], ax[one], d[one], any_low[one]
        hi[rc[kl], axc[kl]] = dc[kl]
        lo[rc[~kl], axc[~kl]] = dc[~kl]
        if enc is not None:
            e = one & alive[:, 0] & np.isinf(tau[r])
            e[e] = _inside(enc, lo[r[e]], hi[r[e]])
            tau[r[e]] = t[e]
        split = any_low & any_high
        s = r[split]
        t_sep[s], ax_sep[s], d_sep[s], low_sep[s] = (t[split], ax[split],
                                                     d[split], low[split])
        keep = ~meet
        keep[meet] = one
        idx = idx[keep]

    # each side of a split continues on fresh rain, one batch per side
    sub = np.flatnonzero(np.isfinite(t_sep))
    if len(sub) > 0:
        rng, g, v_lo, v_hi = rain
        t0, ax, d = t_sep[sub], ax_sep[sub], d_sep[sub]
        span = max(float(np.max(horizon - t0)), 1e-12)
        alive, low = live[sub], low_sep[sub]
        rows = np.arange(len(sub))
        first = low[rows, alive.argmax(axis=1)]
        for side in (first, ~first):
            group = alive & (low == side[:, None])
            c_lo, c_hi = lo[sub], hi[sub]
            c_hi[rows, ax] = np.where(side, d, c_hi[rows, ax])
            c_lo[rows, ax] = np.where(side, c_lo[rows, ax], d)
            ts = tau[sub]
            if enc is not None:
                e = group[:, 0] & np.isinf(ts) & _inside(enc, c_lo, c_hi)
                ts[e] = t0[e]
            c, tau[sub] = _fast_lineage(
                rain, _rain_marks(rng, g, v_lo, v_hi, span, len(sub), t0),
                c_lo, c_hi, b_lo, b_hi, horizon, enc, ts, group)
            cut[sub] = np.minimum(cut[sub], c)
    return cut, tau


# ---------------------------------------------------------------------------
# generic regime

def _generic_zero(measure, window, inner, horizon, n, seed, bands):
    cut, tau, sbands = _generic_scan(measure, window, (inner,), horizon, n,
                                     seed, window, bands)
    return {"tau_enc": tau, "sigma_inner": cut[:, 0], "sigma_bands": sbands}


def _generic_pair(measure, window, body_a, body_b, horizon, n, seed,
                  enclosure):
    cut, tau, _ = _generic_scan(measure, window, (body_a, body_b), horizon, n,
                                seed, enclosure, ())
    return {"cut_a": cut[:, 0], "cut_b": cut[:, 1], "tau_enc": tau}


def _generic_scan(measure, window, bodies, horizon, n, seed, enclosure, bands):
    """n lineages of `bodies` from the window, one replicate stream each."""
    rate = measure_hitting(measure, window)

    def one(_i, rng):
        cut = [math.inf] * len(bodies)
        tau, sb = _generic_lineage((rng, measure, window, rate), window, bodies,
                                   list(range(len(bodies))), cut, 0.0, horizon,
                                   enclosure, math.inf, bands)
        return cut, tau, sb

    rows = run_replicates(one, n, seed)
    return (np.array([r[0] for r in rows]).reshape(n, len(bodies)),
            np.array([r[1] for r in rows]),
            np.array([r[2] for r in rows]).reshape(n, len(bands)))


def _toward(C, h: geo.Hyperplane, low: bool):
    """Clamp cell C to the side of h below it (low) or above it."""
    if low:
        return geo.clip_tolerant(C, h.normal, h.d)
    return geo.clip_tolerant(C, -h.normal, -h.d)


def _encloses(enclosure, C, tau) -> bool:
    """Whether body 0's new cell C starts the (unset) enclosure clock."""
    return (enclosure is not None and math.isinf(tau)
            and geo.contains(enclosure, C, strict=True))


def _generic_lineage(rain, C, bodies, live, cut, t, horizon, enclosure, tau,
                     bands=()):
    """Follow the cell C shared by the bodies `live` from time t.

    rain = (rng, measure, window, rate) is drawn one hyperplane at a time.
    A draw that meets C sets cut[i] for each live body i it meets, and
    clamps C to the side of the rest; one that leaves live bodies on both
    sides splits the group, and each side continues in its own call, the
    side of the first live body first.  A cut stays inf if none comes by
    the horizon or the cell degenerates.  Returns (tau, band clocks): tau,
    if still inf, becomes the first time body 0's cell lies strictly inside
    `enclosure` while body 0 is uncut; the clocks are the first rain times
    inside each band while a body of the group is uncut (the zero scan's one
    body).
    """
    rng, measure, window, rate = rain
    sb = [math.inf] * len(bands)
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            return tau, sb
        h = sample_hitting(measure, window, rng)
        meets = geo.hits(h, C)
        hit = [i for i in live if geo.hits(h, bodies[i])] if meets else []
        for i in hit:
            cut[i] = t
        live = [i for i in live if i not in hit]
        if not live:
            return tau, sb
        for a, band in enumerate(bands):
            if math.isinf(sb[a]) and band.mark_test(h):
                sb[a] = t
        if not meets:
            continue
        low = [geo.support_function(bodies[i], h.normal) <= h.d for i in live]
        if low.count(low[0]) < len(low):
            for side in (low[0], not low[0]):
                group = [i for i, s in zip(live, low) if s == side]
                Cs = _toward(C, h, side)
                if Cs is not None:
                    if group[0] == 0 and _encloses(enclosure, Cs, tau):
                        tau = t
                    tau, _ = _generic_lineage(rain, Cs, bodies, group, cut, t,
                                              horizon, enclosure, tau)
            return tau, sb
        C = _toward(C, h, low[0])
        if C is None:
            return tau, sb
        if live[0] == 0 and _encloses(enclosure, C, tau):
            tau = t
