"""First-cut lineage processes driven by window-level hyperplane rain.

In the rejection construction, hyperplanes rain on the window at rate
mass(window) with law Lambda^W, and along any single cell lineage the
per-cell sequences concatenate into one homogeneous rain.  The cell of a
convex body K evolves by clamping to K's side of every rain hyperplane
that meets the cell, until one meets K itself.  Tracking only the lineages
of one or two bodies of interest is far cheaper than building whole trees
and is exact for first-cut times, encapsulation times and avoidance
indicators.

Two implementations: a generic per-replicate loop valid for every measure
and window, and a vectorized kernel for axis-orthogonal measures on box
windows where every cell stays a box.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry as geo
from .measure import DrivingMeasure, measure_hitting, sample_hitting
from .rng import run_replicates, stream

_BATCH = 1 << 16


def _proj_interval(body, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis projection interval of a convex body."""
    lo = np.empty(ell)
    hi = np.empty(ell)
    for c in range(ell):
        e = np.zeros(ell)
        e[c] = 1.0
        hi[c] = geo.support_function(body, e)
        lo[c] = -geo.support_function(body, -e)
    return lo, hi


def _axis_fastpath(measure: DrivingMeasure, window) -> np.ndarray | None:
    if not isinstance(window, geo.Box):
        return None
    return measure.axis_rates(window.dim)


# ---------------------------------------------------------------------------
# single lineage: the origin cell

def zero_cell_scan(measure: DrivingMeasure, window, inner, horizon: float,
                   n: int, seed: int, bands=()) -> dict:
    """Scan n origin-cell trajectories in `window` up to `horizon`.

    Returns arrays (inf when the event does not occur by the horizon):
      tau_enc     first time the origin cell lies strictly inside the window
      sigma_inner first rain time on a hyperplane meeting `inner`
      sigma_bands (n, len(bands)) first rain times inside each band

    The encapsulation time of `inner` in `window` is tau_enc when
    tau_enc < sigma_inner, else infinity.
    """
    g = _axis_fastpath(measure, window)
    band_axis = [b.axis_form() for b in bands]
    if g is not None and all(f is not None for f in band_axis):
        return _fast_zero(g, window, inner, horizon, n, seed, band_axis)
    return _generic_zero(measure, window, inner, horizon, n, seed, bands)


def encapsulation_times(scan: dict) -> np.ndarray:
    tau, sig = scan["tau_enc"], scan["sigma_inner"]
    return np.where(tau < sig, tau, np.inf)


def _generic_zero(measure, window, inner, horizon, n, seed, bands):
    rate = measure_hitting(measure, window)
    q = len(bands)

    def one(_i, rng):
        t = 0.0
        C = window
        sigma = math.inf
        tau = math.inf
        sb = [math.inf] * q
        pending = q
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= horizon:
                break
            h = sample_hitting(measure, window, rng)
            if math.isinf(sigma) and geo.hits(h, inner):
                sigma = t
            for a in range(q):
                if math.isinf(sb[a]) and bands[a].mark_test(h):
                    sb[a] = t
                    pending -= 1
            if math.isinf(tau) and geo.hits(h, C):
                nrm, c = (h.normal, h.d) if h.d > 0 else (-h.normal, -h.d)
                C = geo.clip_tolerant(C, nrm, c)
                if C is None:
                    break
                if geo.contains(window, C, strict=True):
                    tau = t
            if not math.isinf(sigma) and not math.isinf(tau) and pending == 0:
                break
        return tau, sigma, sb

    rows = run_replicates(one, n, seed)
    return {
        "tau_enc": np.array([r[0] for r in rows]),
        "sigma_inner": np.array([r[1] for r in rows]),
        "sigma_bands": np.array([r[2] for r in rows]).reshape(n, q),
    }


def _rain_marks(rng, g, v_lo, v_hi, horizon, nb):
    """Event times (past the horizon), axes and positions of one rain batch."""
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
    return times, axes, ds


def _fast_zero(g, window: geo.Box, inner, horizon, n, seed, band_axis):
    ell = window.dim
    v_lo, v_hi = window.lo_arr, window.hi_arr
    in_lo, in_hi = _proj_interval(inner, ell)
    q = len(band_axis)
    tau = np.empty(n)
    sigma = np.empty(n)
    sbands = np.empty((n, q))

    for bi, start in enumerate(range(0, n, _BATCH)):
        stop = min(start + _BATCH, n)
        nb = stop - start
        rng = stream(seed, bi)
        times, axes, ds = _rain_marks(rng, g, v_lo, v_hi, horizon, nb)
        lo = np.tile(v_lo, (nb, 1))
        hi = np.tile(v_hi, (nb, 1))
        sg = np.full(nb, np.inf)
        tu = np.full(nb, np.inf)
        sb = np.full((nb, q), np.inf)
        rows = np.arange(nb)
        for k in range(times.shape[1]):
            tk = times[:, k]
            live = tk < horizon
            if not live.any():
                break
            ax = axes[:, k]
            dk = ds[:, k]
            hit_in = live & (dk >= in_lo[ax]) & (dk <= in_hi[ax])
            np.copyto(sg, tk, where=hit_in & np.isinf(sg))
            for a, (bax, blo, bhi) in enumerate(band_axis):
                col = sb[:, a]
                hb = live & (ax == bax) & (dk > blo) & (dk < bhi)
                np.copyto(col, tk, where=hb & np.isinf(col))
            cur_lo = lo[rows, ax]
            cur_hi = hi[rows, ax]
            hit_cell = live & (dk > cur_lo) & (dk < cur_hi)
            pos = dk > 0.0
            hi[rows, ax] = np.where(hit_cell & pos, dk, cur_hi)
            lo[rows, ax] = np.where(hit_cell & ~pos, dk, cur_lo)
            enc = (hit_cell & np.isinf(tu)
                   & (lo > v_lo).all(axis=1) & (hi < v_hi).all(axis=1))
            np.copyto(tu, tk, where=enc)
        tau[start:stop] = tu
        sigma[start:stop] = sg
        sbands[start:stop] = sb
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
    g = _axis_fastpath(measure, window)
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
                     enclosure, tau):
    """Continue one lineage; returns (cut_time, tau_enc)."""
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            return math.inf, tau
        h = sample_hitting(measure, window, rng)
        if not geo.hits(h, C):
            continue
        if geo.hits(h, body):
            return t, tau
        C = _toward(C, h, body)
        if C is None:
            return math.inf, tau
        if enclosure is not None and math.isinf(tau) and \
                geo.contains(enclosure, C, strict=True):
            tau = t


def _generic_pair(measure, window, body_a, body_b, horizon, n, seed,
                  enclosure):
    rate = measure_hitting(measure, window)

    def one(_i, rng):
        t = 0.0
        C = window
        cut_a = cut_b = math.inf
        tau = math.inf
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= horizon:
                return cut_a, cut_b, tau
            h = sample_hitting(measure, window, rng)
            if not geo.hits(h, C):
                continue
            hit_a = math.isinf(cut_a) and geo.hits(h, body_a)
            hit_b = math.isinf(cut_b) and geo.hits(h, body_b)
            if hit_a:
                cut_a = t
            if hit_b:
                cut_b = t
            alive_a = math.isinf(cut_a)
            alive_b = math.isinf(cut_b)
            if not alive_a and not alive_b:
                return cut_a, cut_b, tau
            if hit_a or hit_b:
                # single survivor: its lineage continues under this rain
                C = _toward(C, h, body_a if alive_a else body_b)
                if C is None:
                    return cut_a, cut_b, tau
            elif alive_a and alive_b:
                side_a = geo.support_function(body_a, h.normal) <= h.d
                side_b = geo.support_function(body_b, h.normal) <= h.d
                if side_a != side_b:
                    # separation: independent subtrees from here on
                    ca = _toward(C, h, body_a)
                    cb = _toward(C, h, body_b)
                    if ca is not None and enclosure is not None and \
                            math.isinf(tau) and geo.contains(enclosure, ca, strict=True):
                        tau = t
                    if ca is not None:
                        cut_a, tau = _generic_lineage(
                            measure, window, rate, ca, body_a, t, horizon,
                            rng, enclosure, tau)
                    if cb is not None:
                        cut_b, _ = _generic_lineage(
                            measure, window, rate, cb, body_b, t, horizon,
                            rng, None, math.inf)
                    return cut_a, cut_b, tau
                C = _toward(C, h, body_a)
                if C is None:
                    return cut_a, cut_b, tau
            else:
                C = _toward(C, h, body_a if alive_a else body_b)
                if C is None:
                    return cut_a, cut_b, tau
            if enclosure is not None and alive_a and math.isinf(tau) and \
                    geo.contains(enclosure, C, strict=True):
                tau = t

    rows = run_replicates(one, n, seed)
    return {
        "cut_a": np.array([r[0] for r in rows]),
        "cut_b": np.array([r[1] for r in rows]),
        "tau_enc": np.array([r[2] for r in rows]),
    }


def _fast_lineage(rng, g, v_lo, v_hi, cell_lo, cell_hi, b_lo, b_hi,
                  t0, horizon, enc_lo, enc_hi, tau):
    """Vectorized continuation of one lineage for a subset of replicates."""
    nb = len(t0)
    cut = np.full(nb, np.inf)
    if nb == 0:
        return cut, tau
    span = float(np.max(horizon - t0))
    times, axes, ds = _rain_marks(rng, g, v_lo, v_hi, max(span, 1e-12), nb)
    times = times + t0[:, None]
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
    a_lo, a_hi = _proj_interval(body_a, ell)
    b_lo, b_hi = _proj_interval(body_b, ell)
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

        # independent continuations for separated pairs
        sub = np.where(switched)[0]
        if len(sub) > 0:
            axs = sep_ax[sub]
            dks = sep_d[sub]
            srows = np.arange(len(sub))

            a_cell_lo = lo[sub].copy()
            a_cell_hi = hi[sub].copy()
            a_cell_hi[srows, axs] = np.where(sa_low[sub], dks, a_cell_hi[srows, axs])
            a_cell_lo[srows, axs] = np.where(~sa_low[sub], dks, a_cell_lo[srows, axs])
            cut2, tau2 = _fast_lineage(rng, g, v_lo, v_hi, a_cell_lo, a_cell_hi,
                                       a_lo, a_hi, tsw[sub], horizon,
                                       enc_lo, enc_hi, tau[sub])
            ca[sub] = cut2
            tau[sub] = tau2

            b_cell_lo = lo[sub].copy()
            b_cell_hi = hi[sub].copy()
            b_cell_hi[srows, axs] = np.where(sb_low[sub], dks, b_cell_hi[srows, axs])
            b_cell_lo[srows, axs] = np.where(~sb_low[sub], dks, b_cell_lo[srows, axs])
            cut2, _ = _fast_lineage(rng, g, v_lo, v_hi, b_cell_lo, b_cell_hi,
                                    b_lo, b_hi, tsw[sub], horizon, None, None,
                                    np.full(len(sub), np.inf))
            cb[sub] = cut2

        cut_a[start:stop] = ca
        cut_b[start:stop] = cb
        tau_enc[start:stop] = tau
    return {"cut_a": cut_a, "cut_b": cut_b, "tau_enc": tau_enc}
