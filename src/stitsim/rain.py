"""First-cut lineage processes driven by window-level hyperplane rain.

In the rejection construction, hyperplanes rain on the window at rate
mass(window) with law Lambda^W, and along any single cell lineage the
per-cell sequences concatenate into one homogeneous rain.  The cell of a
convex body K evolves by clamping to K's side of every rain hyperplane
that meets the cell, until one meets K itself.  Tracking only the lineages
of one or two bodies of interest is far cheaper than building whole trees
and is exact for first-cut times, encapsulation times and avoidance
indicators.

Each geometry regime has one lineage kernel, the only loop that follows a
single body's cell: ``_fast_lineage`` clamps box intervals for a batch of
replicates at once when the measure lives on the coordinate axes and the
window is a box, and ``_generic_lineage`` clips one polytope per replicate
for every other measure and window.  The zero-cell scan is one lineage of
the inner body.  The pair scan follows the shared cell of two bodies until
a cut meets or separates them, then each survivor continues in the
lineage kernel.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry as geo
from .measure import (DrivingMeasure, box_axis_rates, measure_hitting,
                      sample_hitting)
from .rng import run_replicates, stream

_BATCH = 1 << 16


# ---------------------------------------------------------------------------
# single lineage: the origin cell

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


def _generic_zero(measure, window, inner, horizon, n, seed, bands):
    rate = measure_hitting(measure, window)

    def one(_i, rng):
        return _generic_lineage(measure, window, rate, window, inner, 0.0,
                                horizon, rng, window, math.inf, bands)

    rows = run_replicates(one, n, seed)
    return {
        "tau_enc": np.array([r[1] for r in rows]),
        "sigma_inner": np.array([r[0] for r in rows]),
        "sigma_bands": np.array([r[2] for r in rows]).reshape(n, len(bands)),
    }


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


def _fast_zero(g, window: geo.Box, inner, horizon, n, seed, band_axis):
    ell = window.dim
    v_lo, v_hi = window.lo_arr, window.hi_arr
    in_lo, in_hi = geo.support_interval(inner, np.eye(ell))
    tau = np.empty(n)
    sigma = np.empty(n)
    sbands = np.empty((n, len(band_axis)))

    for bi, start in enumerate(range(0, n, _BATCH)):
        stop = min(start + _BATCH, n)
        nb = stop - start
        marks = _rain_marks(stream(seed, bi), g, v_lo, v_hi, horizon, nb)
        cut, tau[start:stop] = _fast_lineage(
            marks, np.tile(v_lo, (nb, 1)), np.tile(v_hi, (nb, 1)), in_lo, in_hi,
            horizon, v_lo, v_hi, np.full(nb, np.inf))
        sigma[start:stop] = cut
        # band clocks: the first mark in each band before the cut
        times, axes, ds = marks
        before = times < np.minimum(cut, horizon)[:, None]
        rows = np.arange(nb)
        for a, (bax, blo, bhi) in enumerate(band_axis):
            mark = before & (axes == bax) & (ds > blo) & (ds < bhi)
            k = mark.argmax(axis=1)
            sbands[start:stop, a] = np.where(mark[rows, k], times[rows, k], np.inf)
    return {"tau_enc": tau, "sigma_inner": sigma, "sigma_bands": sbands}


# ---------------------------------------------------------------------------
# two coupled lineages

def pair_scan(measure: DrivingMeasure, window, body_a, body_b, horizon: float,
              n: int, seed: int, enclosure: geo.Box | None = None) -> dict:
    """First-cut times of two bodies under one tessellation trajectory.

    The bodies share one lineage (and one rain) while they share a cell;
    once a cut separates them their subtrees are independent and each
    lineage continues under its own rain.  Returns arrays cut_a, cut_b and,
    when `enclosure` is given, tau_enc: the first time the a-lineage cell
    lies strictly inside the enclosure while body_a is uncut.
    """
    g = box_axis_rates(measure, window)
    if g is not None and (enclosure is None or isinstance(enclosure, geo.Box)):
        return _fast_pair(g, window, body_a, body_b, horizon, n, seed, enclosure)
    return _generic_pair(measure, window, body_a, body_b, horizon, n, seed,
                         enclosure)


def _toward(C, h: geo.Hyperplane, body):
    """Clamp cell C to body's side of h (body does not meet h)."""
    if geo.support_function(body, h.normal) <= h.d:
        return geo.clip_tolerant(C, h.normal, h.d)
    return geo.clip_tolerant(C, -h.normal, -h.d)


def _generic_lineage(measure, window, rate, C, body, t, horizon, rng,
                     enclosure, tau, bands=()):
    """Follow the cell C of `body` from time t, one rain draw at a time.

    Returns (cut, tau, band clocks): cut is the first rain time on a
    hyperplane meeting `body` (inf if none comes by the horizon or the cell
    degenerates); tau, if still inf, becomes the first time the cell lies
    strictly inside `enclosure`; the clocks are the first rain times inside
    each band.  tau and the clocks are set only before the cut.
    """
    sb = [math.inf] * len(bands)
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            return math.inf, tau, sb
        h = sample_hitting(measure, window, rng)
        meets = geo.hits(h, C)
        if meets and geo.hits(h, body):
            return t, tau, sb
        for a, band in enumerate(bands):
            if math.isinf(sb[a]) and band.mark_test(h):
                sb[a] = t
        if not meets:
            continue
        C = _toward(C, h, body)
        if C is None:
            return math.inf, tau, sb
        if enclosure is not None and math.isinf(tau) and \
                geo.contains(enclosure, C, strict=True):
            tau = t


def _generic_pair(measure, window, body_a, body_b, horizon, n, seed,
                  enclosure):
    rate = measure_hitting(measure, window)

    def one(_i, rng):
        t = 0.0
        C = window
        tau = math.inf
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= horizon:
                return math.inf, math.inf, tau
            h = sample_hitting(measure, window, rng)
            if not geo.hits(h, C):
                continue
            hit_a = geo.hits(h, body_a)
            hit_b = geo.hits(h, body_b)
            if hit_a or hit_b or (
                    (geo.support_function(body_a, h.normal) <= h.d)
                    != (geo.support_function(body_b, h.normal) <= h.d)):
                break
            C = _toward(C, h, body_a)
            if C is None:
                return math.inf, math.inf, tau
            if enclosure is not None and math.isinf(tau) and \
                    geo.contains(enclosure, C, strict=True):
                tau = t
        # h cuts a body or separates the two: from here on each survivor's
        # lineage is independent, a's first
        cut_a = cut_b = t
        if not hit_a:
            cut_a = math.inf
            ca = _toward(C, h, body_a)
            if ca is not None:
                if enclosure is not None and math.isinf(tau) and \
                        geo.contains(enclosure, ca, strict=True):
                    tau = t
                cut_a, tau, _ = _generic_lineage(measure, window, rate, ca, body_a,
                                                 t, horizon, rng, enclosure, tau)
        if not hit_b:
            cut_b = math.inf
            cb = _toward(C, h, body_b)
            if cb is not None:
                cut_b, _, _ = _generic_lineage(measure, window, rate, cb, body_b,
                                               t, horizon, rng, None, math.inf)
        return cut_a, cut_b, tau

    rows = run_replicates(one, n, seed)
    return {
        "cut_a": np.array([r[0] for r in rows]),
        "cut_b": np.array([r[1] for r in rows]),
        "tau_enc": np.array([r[2] for r in rows]),
    }


def _fast_lineage(marks, cell_lo, cell_hi, b_lo, b_hi, horizon, enc_lo, enc_hi,
                  tau):
    """Follow the box cells of the body [b_lo, b_hi] through rain marks.

    marks are (times, axes, ds), one row per replicate; cell_lo and cell_hi
    are clamped in place.  Returns (cut, tau): cut is the first rain time
    meeting the body (inf if none by the horizon), and tau, where still inf,
    becomes the first time the cell lies strictly inside the enclosure
    before the cut.
    """
    times, axes, ds = marks
    nb = len(times)
    cut = np.full(nb, np.inf)
    rows = np.arange(nb)
    for k in range(times.shape[1]):
        tk = times[:, k]
        live = (tk < horizon) & np.isinf(cut)
        if not live.any():
            break
        ax = axes[:, k]
        dk = ds[:, k]
        cur_lo = cell_lo[rows, ax]
        cur_hi = cell_hi[rows, ax]
        hit_cell = live & (dk > cur_lo) & (dk < cur_hi)
        hit_body = hit_cell & (dk >= b_lo[ax]) & (dk <= b_hi[ax])
        np.copyto(cut, tk, where=hit_body)
        clamp = hit_cell & ~hit_body
        body_low = b_hi[ax] <= dk
        cell_hi[rows, ax] = np.where(clamp & body_low, dk, cur_hi)
        cell_lo[rows, ax] = np.where(clamp & ~body_low, dk, cur_lo)
        if enc_lo is not None:
            enc = (clamp & np.isinf(tau)
                   & (cell_lo > enc_lo).all(axis=1) & (cell_hi < enc_hi).all(axis=1))
            np.copyto(tau, tk, where=enc)
    return cut, tau


def _fast_pair(g, window: geo.Box, body_a, body_b, horizon, n, seed, enclosure):
    ell = window.dim
    v_lo, v_hi = window.lo_arr, window.hi_arr
    a_lo, a_hi = geo.support_interval(body_a, np.eye(ell))
    b_lo, b_hi = geo.support_interval(body_b, np.eye(ell))
    enc_lo = enclosure.lo_arr if enclosure is not None else None
    enc_hi = enclosure.hi_arr if enclosure is not None else None

    cut_a = np.empty(n)
    cut_b = np.empty(n)
    tau_enc = np.empty(n)

    for bi, start in enumerate(range(0, n, _BATCH)):
        stop = min(start + _BATCH, n)
        nb = stop - start
        rng = stream(seed, bi)
        times, axes, ds = _rain_marks(rng, g, v_lo, v_hi, horizon, nb)
        lo = np.tile(v_lo, (nb, 1))
        hi = np.tile(v_hi, (nb, 1))
        ca = np.full(nb, np.inf)
        cb = np.full(nb, np.inf)
        tau = np.full(nb, np.inf)
        switched = np.zeros(nb, dtype=bool)
        tsw = np.full(nb, np.inf)
        sa_low = np.zeros(nb, dtype=bool)  # body sides at the separation cut
        sb_low = np.zeros(nb, dtype=bool)
        sep_d = np.zeros(nb)
        sep_ax = np.zeros(nb, dtype=np.int64)
        rows = np.arange(nb)

        for k in range(times.shape[1]):
            tk = times[:, k]
            alive_a = np.isinf(ca)
            alive_b = np.isinf(cb)
            act = ~switched & (tk < horizon) & (alive_a | alive_b)
            if not act.any():
                break
            ax = axes[:, k]
            dk = ds[:, k]
            cur_lo = lo[rows, ax]
            cur_hi = hi[rows, ax]
            hit_cell = act & (dk > cur_lo) & (dk < cur_hi)
            hit_a = hit_cell & alive_a & (dk >= a_lo[ax]) & (dk <= a_hi[ax])
            hit_b = hit_cell & alive_b & (dk >= b_lo[ax]) & (dk <= b_hi[ax])
            np.copyto(ca, tk, where=hit_a)
            np.copyto(cb, tk, where=hit_b)
            alive_a = alive_a & ~hit_a
            alive_b = alive_b & ~hit_b
            side_a = a_hi[ax] <= dk  # valid where body a not hit
            side_b = b_hi[ax] <= dk
            sep = (hit_cell & ~hit_a & ~hit_b & alive_a & alive_b
                   & (side_a != side_b))
            clamp = hit_cell & ~sep & (alive_a | alive_b)
            keep_low = np.where(alive_a, side_a, side_b)
            hi[rows, ax] = np.where(clamp & keep_low, dk, cur_hi)
            lo[rows, ax] = np.where(clamp & ~keep_low, dk, cur_lo)
            switched |= sep
            np.copyto(tsw, tk, where=sep)
            np.copyto(sep_d, dk, where=sep)
            sep_ax = np.where(sep, ax, sep_ax)
            sa_low = np.where(sep, side_a, sa_low)
            sb_low = np.where(sep, side_b, sb_low)
            if enc_lo is not None:
                # a-cell after this event: clamped shared cell, or the a-side
                # of a separation cut
                alo = lo.copy()
                ahi = hi.copy()
                ahi[rows, ax] = np.where(sep & sa_low, dk, ahi[rows, ax])
                alo[rows, ax] = np.where(sep & ~sa_low, dk, alo[rows, ax])
                enc = ((clamp | sep) & alive_a & np.isinf(tau)
                       & (alo > enc_lo).all(axis=1) & (ahi < enc_hi).all(axis=1))
                np.copyto(tau, tk, where=enc)

        # independent continuations for separated pairs, on fresh rain
        sub = np.flatnonzero(switched)
        if len(sub) > 0:
            axs = sep_ax[sub]
            dks = sep_d[sub]
            srows = np.arange(len(sub))
            t0 = tsw[sub]
            span = max(float(np.max(horizon - t0)), 1e-12)

            a_cell_lo = lo[sub].copy()
            a_cell_hi = hi[sub].copy()
            a_cell_hi[srows, axs] = np.where(sa_low[sub], dks, a_cell_hi[srows, axs])
            a_cell_lo[srows, axs] = np.where(~sa_low[sub], dks, a_cell_lo[srows, axs])
            ca[sub], tau[sub] = _fast_lineage(
                _rain_marks(rng, g, v_lo, v_hi, span, len(sub), t0),
                a_cell_lo, a_cell_hi, a_lo, a_hi, horizon, enc_lo, enc_hi, tau[sub])

            b_cell_lo = lo[sub].copy()
            b_cell_hi = hi[sub].copy()
            b_cell_hi[srows, axs] = np.where(sb_low[sub], dks, b_cell_hi[srows, axs])
            b_cell_lo[srows, axs] = np.where(~sb_low[sub], dks, b_cell_lo[srows, axs])
            cb[sub], _ = _fast_lineage(
                _rain_marks(rng, g, v_lo, v_hi, span, len(sub), t0),
                b_cell_lo, b_cell_hi, b_lo, b_hi, horizon, None, None,
                np.full(len(sub), np.inf))

        cut_a[start:stop] = ca
        cut_b[start:stop] = cb
        tau_enc[start:stop] = tau
    return {"cut_a": cut_a, "cut_b": cut_b, "tau_enc": tau_enc}
