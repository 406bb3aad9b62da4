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
the two-body case.  The box kernel draws marks on demand, _CHUNK at a time
for the rows it still follows, each row (or side of a split) continuing on
the batch's stream from its last time.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry as geo
from .measure import (DrivingMeasure, box_axis_rates, measure_hitting,
                      sample_hitting)
from .rng import run_replicates, stream

_BATCH = 1 << 16
_CHUNK = 4  # box rain marks drawn per followed row at a time


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
    and, in the box regime, the counts marks_drawn and rows_retired (0).
    """
    g = box_axis_rates(measure, window)
    band_axis = [b.axis_form() for b in bands]
    if g is not None and all(f is not None for f in band_axis):
        return _fast_zero(g, window, inner, horizon, n, seed, band_axis)
    return _generic_zero(measure, window, inner, horizon, n, seed, bands)


def pair_scan(measure: DrivingMeasure, window, body_a, body_b, horizon: float,
              n: int, seed: int, enclosure: geo.Box | None = None,
              base: int = 0) -> dict:
    """First-cut times of two bodies under one tessellation trajectory.

    Each trajectory is one lineage of the pair: the bodies share one cell
    (and one rain) while they share a cell; once a cut separates them their
    subtrees are independent and each continues under its own rain.  Returns
    arrays cut_a, cut_b and, when `enclosure` is given, tau_enc: the first
    time the a-lineage cell lies strictly inside the enclosure while body_a
    is uncut.  Box batch b runs on stream(seed, base + b), generic lineage
    i on stream(seed, base * _BATCH + i).  The box regime also returns the
    counts marks_drawn and rows_retired: a row retires once tau_enc is
    decided to be inf (body_a cut first, or a split leaving body_a's side
    unenclosed), and its cut_b then reads NaN if body_b was still uncut.
    """
    g = box_axis_rates(measure, window)
    if g is not None and (enclosure is None or isinstance(enclosure, geo.Box)):
        return _fast_pair(g, window, body_a, body_b, horizon, n, seed, enclosure,
                          base)
    return _generic_pair(measure, window, body_a, body_b, horizon, n, seed,
                         enclosure, base)


# ---------------------------------------------------------------------------
# box regime

def _fast_zero(g, window: geo.Box, inner, horizon, n, seed, band_axis):
    cut, tau, sbands, work = _fast_scan(g, window, (inner,), horizon, n, seed,
                                        window, band_axis)
    return {"tau_enc": tau, "sigma_inner": cut[:, 0], "sigma_bands": sbands,
            **work}


def _fast_pair(g, window: geo.Box, body_a, body_b, horizon, n, seed, enclosure,
               base=0):
    cut, tau, _, work = _fast_scan(g, window, (body_a, body_b), horizon, n,
                                   seed, enclosure, (), base)
    return {"cut_a": cut[:, 0], "cut_b": cut[:, 1], "tau_enc": tau, **work}


def _fast_scan(g, window: geo.Box, bodies, horizon, n, seed, enclosure,
               band_axis, base=0):
    """n lineages of `bodies`, batch b of _BATCH on stream(seed, base + b):
    the cuts (n, k), the enclosure and band clocks, and the counters."""
    b_lo, b_hi = np.array([geo.support_interval(b, np.eye(window.dim))
                           for b in bodies]).transpose(1, 0, 2)
    enc = None if enclosure is None else (enclosure.lo_arr, enclosure.hi_arr)
    side = window.hi_arr - window.lo_arr
    rate_c = g * side
    cum = np.cumsum(rate_c / rate_c.sum())
    cut, tau = np.empty((n, len(bodies))), np.empty(n)
    sbands, drawn = np.empty((n, len(band_axis))), 0
    for bi, start in enumerate(range(0, n, _BATCH)):
        nb, stop = min(_BATCH, n - start), min(start + _BATCH, n)
        rain = (stream(seed, base + bi), rate_c.sum(), cum, window.lo_arr, side)
        cut[start:stop], tau[start:stop], sbands[start:stop], more = _fast_lineage(
            rain, np.tile(window.lo_arr, (nb, 1)), np.tile(window.hi_arr, (nb, 1)),
            b_lo, b_hi, np.zeros(nb), horizon, enc, np.full(nb, np.inf),
            np.ones((nb, len(bodies)), dtype=bool), band_axis)
        drawn += more
    return cut, tau, sbands, {"marks_drawn": drawn, "rows_retired": int(
        np.isnan(cut).any(axis=1).sum())}


def _inside(enc, lo, hi):
    """Rows whose box [lo, hi] lies strictly inside enc = (enc_lo, enc_hi)."""
    return (lo > enc[0]).all(axis=1) & (hi < enc[1]).all(axis=1)


def _fast_lineage(rain, lo, hi, b_lo, b_hi, t, horizon, enc, tau, live,
                  bands=()):
    """Follow the box cells shared by k bodies through the rain from time t.

    rain = (rng, rate, cumulative axis weights, window lo, window sides);
    each row draws _CHUNK marks at a time from t, which advances in place.
    lo and hi (nb, ell) are the cells, clamped in place; b_lo and b_hi
    (k, ell) the bodies' intervals; live (nb, k) marks the bodies in each
    row's cell.  A mark that meets the cell cuts the live bodies it meets
    and clamps the cell to the side of the rest; one that leaves live bodies
    on both sides splits the row, each side continuing from the split time,
    the first live body's side first.  Returns (cut, tau, band clocks, marks
    drawn): each body's first cut time (inf if none by the horizon); tau,
    where still inf, becomes the first time body 0's cell lies strictly
    inside enc = (enc_lo, enc_hi) while body 0 is uncut; each row's first
    mark inside each axis band (axis, lo, hi) before body 0's cut.  With enc
    and k > 1 rows retire as pair_scan describes.
    """
    rng, rate, cum, v_lo, v_side = rain
    nb, k = len(lo), len(b_lo)
    retire = enc is not None and k > 1
    cut, sb = np.full((nb, k), np.inf), np.full((nb, len(bands)), np.inf)
    t_sep, d_sep = np.full(nb, np.inf), np.zeros(nb)  # split rows: time,
    ax_sep = np.zeros(nb, dtype=np.int64)  # position, axis and sides
    low_sep = np.zeros((nb, k), dtype=bool)
    idx, drawn = np.arange(nb), 0

    while len(idx) > 0:
        shape = (len(idx), _CHUNK)
        times = np.cumsum(rng.exponential(1.0 / rate, shape), axis=1) + t[idx, None]
        axes = np.minimum(np.searchsorted(cum, rng.random(shape)), len(cum) - 1)
        ds = v_lo[axes] + rng.random(shape) * v_side[axes]
        t[idx] = times[:, -1]
        drawn += times.size
        at = np.arange(len(idx))  # chunk rows still followed
        for j in range(_CHUNK):
            at = at[times[at, j] < horizon]
            if len(at) == 0:
                break
            r, ax, d = idx[at], axes[at, j], ds[at, j]
            meet = (d > lo[r, ax]) & (d < hi[r, ax])
            r, ax, d = r[meet], ax[meet], d[meet]
            tm = times[at[meet], j]
            lo_k, hi_k = b_lo[:, ax].T, b_hi[:, ax].T
            hit = live[r] & (d[:, None] >= lo_k) & (d[:, None] <= hi_k)
            cut[r] = np.where(hit, tm[:, None], cut[r])
            alive = live[r] & ~hit
            live[r] = alive
            if retire:  # body 0 cut unenclosed: the rest reads NaN
                gone = hit[:, 0] & np.isinf(tau[r])
                cut[r[gone]] = np.where(alive[gone], np.nan, cut[r[gone]])
                alive[gone] = False
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
                tau[r[e]] = tm[e]
            split = any_low & any_high
            s = r[split]
            t_sep[s], ax_sep[s], d_sep[s], low_sep[s] = (tm[split], ax[split],
                                                         d[split], low[split])
            keep = ~meet
            keep[meet] = one
            at = at[keep]
        if bands:
            early = times < np.minimum(cut[idx, 0], horizon)[:, None]
            for a, (bax, blo, bhi) in enumerate(bands):
                mark = early & (axes == bax) & (ds > blo) & (ds < bhi)
                sb[idx, a] = np.minimum(
                    sb[idx, a], np.where(mark, times, np.inf).min(axis=1))
        idx = idx[at]

    # each side of a split continues from the split time
    sub = np.flatnonzero(np.isfinite(t_sep))
    side = low_sep[sub, live[sub].argmax(axis=1)]
    for second in (False, True):
        side = ~side if second else side
        group = live[sub] & (low_sep[sub] == side[:, None])
        if second and retire:  # body 0's side left these rows unenclosed
            drop = np.isinf(tau[sub])
            cut[sub[drop]] = np.where(group[drop], np.nan, cut[sub[drop]])
            sub, side, group = sub[~drop], side[~drop], group[~drop]
        if len(sub) == 0:
            break
        rows, ax, d = np.arange(len(sub)), ax_sep[sub], d_sep[sub]
        c_lo, c_hi = lo[sub], hi[sub]
        c_hi[rows, ax] = np.where(side, d, c_hi[rows, ax])
        c_lo[rows, ax] = np.where(side, c_lo[rows, ax], d)
        ts = tau[sub]
        if enc is not None:
            e = group[:, 0] & np.isinf(ts) & _inside(enc, c_lo, c_hi)
            ts[e] = t_sep[sub][e]
        c, tau[sub], _, more = _fast_lineage(rain, c_lo, c_hi, b_lo, b_hi,
                                             t_sep[sub], horizon, enc, ts, group)
        cut[sub] = np.minimum(cut[sub], c)
        drawn += more
    return cut, tau, sb, drawn


# ---------------------------------------------------------------------------
# generic regime

def _generic_zero(measure, window, inner, horizon, n, seed, bands):
    cut, tau, sbands = _generic_scan(measure, window, (inner,), horizon, n,
                                     seed, window, bands)
    return {"tau_enc": tau, "sigma_inner": cut[:, 0], "sigma_bands": sbands}


def _generic_pair(measure, window, body_a, body_b, horizon, n, seed,
                  enclosure, base=0):
    cut, tau, _ = _generic_scan(measure, window, (body_a, body_b), horizon, n,
                                seed, enclosure, (), base * _BATCH)
    return {"cut_a": cut[:, 0], "cut_b": cut[:, 1], "tau_enc": tau}


def _generic_scan(measure, window, bodies, horizon, n, seed, enclosure, bands,
                  base=0):
    """n lineages of `bodies`, lineage i on stream(seed, base + i)."""
    rate = measure_hitting(measure, window)

    def one(_i, rng):
        cut = [math.inf] * len(bodies)
        tau, sb = _generic_lineage((rng, measure, window, rate), window, bodies,
                                   list(range(len(bodies))), cut, 0.0, horizon,
                                   enclosure, math.inf, bands)
        return cut, tau, sb

    rows = run_replicates(one, n, seed, base)
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
