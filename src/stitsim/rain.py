"""First-cut lineage processes driven by window-level hyperplane rain.

In the rejection construction, hyperplanes rain on the window at rate
mass(window) with law Lambda^W, and along any single cell lineage the
per-cell sequences concatenate into one homogeneous rain.  The cell of a
convex body K evolves by clamping to K's side of every rain hyperplane
that meets the cell, until one meets K itself.  Tracking only the lineages
of a few bodies of interest is far cheaper than building whole trees and is
exact for first-cut times, encapsulation times and avoidance indicators.

Each geometry regime has one lineage kernel, the only loop that follows a
cell through the rain, and each follows a batch of replicates at once:
``_fast_lineage`` clamps box intervals when the measure lives on the
coordinate axes and the window is a box, its marks from measure's box
drawer, and ``_polygon_lineage`` clips convex polygons in geometry's padded
layout for every other planar measure and window, its lines from measure's
line drawer.  A kernel follows the cell shared by a group of bodies: a
mark that meets a body cuts it and the rest keep the cell, and a mark that
separates the group splits it, each side continuing on its own rain.  The
zero-cell scan is the one-body case and the pair scan the two-body case.
Both kernels draw marks on demand, _CHUNK at a time for the rows they still
follow, each row (or side of a split) continuing on the batch's stream from
its last time.
"""

from __future__ import annotations

import numpy as np

from . import geometry as geo
from .measure import (DrivingMeasure, box_axis_rates, box_table,
                      draw_box_marks, draw_lines, measure_hitting)
from .rng import stream

_BATCH = 1 << 16
_CHUNK = 4  # rain marks drawn per followed row at a time


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
    and the counts marks_drawn and rows_retired (0).
    """
    g = box_axis_rates(measure, window)
    band_axis = [b.axis_form() for b in bands]
    if g is not None and all(f is not None for f in band_axis):
        return _fast_zero(measure, window, inner, horizon, n, seed, band_axis)
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
    is uncut.  Batch b of _BATCH lineages runs on stream(seed, base + b).
    Also returns the counts marks_drawn and rows_retired: in the box regime
    a row retires once tau_enc is decided to be inf (body_a cut first, or a
    split leaving body_a's side unenclosed), and its cut_b then reads NaN if
    body_b was still uncut; the polygon regime follows every row to its end.
    """
    g = box_axis_rates(measure, window)
    if g is not None and (enclosure is None or isinstance(enclosure, geo.Box)):
        return _fast_pair(measure, window, body_a, body_b, horizon, n, seed,
                          enclosure, base)
    return _generic_pair(measure, window, body_a, body_b, horizon, n, seed,
                         enclosure, base)


# ---------------------------------------------------------------------------
# box regime

def _fast_zero(measure, window: geo.Box, inner, horizon, n, seed, band_axis):
    cut, tau, sbands, work = _fast_scan(measure, window, (inner,), horizon, n,
                                        seed, window, band_axis)
    return {"tau_enc": tau, "sigma_inner": cut[:, 0], "sigma_bands": sbands,
            **work}


def _fast_pair(measure, window: geo.Box, body_a, body_b, horizon, n, seed,
               enclosure, base=0):
    cut, tau, _, work = _fast_scan(measure, window, (body_a, body_b), horizon,
                                   n, seed, enclosure, (), base)
    return {"cut_a": cut[:, 0], "cut_b": cut[:, 1], "tau_enc": tau, **work}


def _fast_scan(measure, window: geo.Box, bodies, horizon, n, seed, enclosure,
               band_axis, base=0):
    """n lineages of `bodies` through _fast_lineage, batch b of _BATCH on
    stream(seed, base + b): the cuts (n, k), the enclosure and band clocks,
    and the counters."""
    b_lo, b_hi = np.array([geo.support_interval(b, np.eye(window.dim))
                           for b in bodies]).transpose(1, 0, 2)
    enc = None if enclosure is None else (enclosure.lo_arr, enclosure.hi_arr)

    def follow(rng, nb):
        return _fast_lineage(
            (rng, box_table(measure, window)),
            np.tile(window.lo_arr, (nb, 1)), np.tile(window.hi_arr, (nb, 1)),
            b_lo, b_hi, np.zeros(nb), horizon, enc, np.full(nb, np.inf),
            np.ones((nb, len(bodies)), dtype=bool), band_axis)
    return _scan(follow, n, len(bodies), len(band_axis), seed, base)


def _scan(follow, n, k, n_bands, seed, base):
    """Run follow(rng, nb) -> (cut, tau, band clocks, marks drawn) over n
    rows of k bodies, batch b of _BATCH rows on stream(seed, base + b).
    Returns the cuts (n, k), tau, the band clocks (n, n_bands) and the
    counters marks_drawn and rows_retired (rows holding a NaN cut)."""
    cut, tau = np.empty((n, k)), np.empty(n)
    sbands, drawn = np.empty((n, n_bands)), 0
    for bi, start in enumerate(range(0, n, _BATCH)):
        stop = min(start + _BATCH, n)
        cut[start:stop], tau[start:stop], sbands[start:stop], more = follow(
            stream(seed, base + bi), stop - start)
        drawn += more
    return cut, tau, sbands, {"marks_drawn": drawn, "rows_retired": int(
        np.isnan(cut).any(axis=1).sum())}


def _inside(enc, lo, hi):
    """Rows whose box [lo, hi] lies strictly inside enc = (enc_lo, enc_hi)."""
    return (lo > enc[0]).all(axis=1) & (hi < enc[1]).all(axis=1)


def _fast_lineage(rain, lo, hi, b_lo, b_hi, t, horizon, enc, tau, live,
                  bands=()):
    """Follow the box cells shared by k bodies through the rain from time t.

    rain = (rng, the window's box_table); each row draws _CHUNK marks at a
    time from t, which advances in place.
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
    rng, table = rain
    nb, k = len(lo), len(b_lo)
    retire = enc is not None and k > 1
    cut, sb = np.full((nb, k), np.inf), np.full((nb, len(bands)), np.inf)
    t_sep, d_sep = np.full(nb, np.inf), np.zeros(nb)  # split rows: time,
    ax_sep = np.zeros(nb, dtype=np.int64)  # position, axis and sides
    low_sep = np.zeros((nb, k), dtype=bool)
    idx, drawn = np.arange(nb), 0

    while len(idx) > 0:
        shape = (len(idx), _CHUNK)
        times = (np.cumsum(rng.exponential(1.0 / table[0], shape), axis=1)
                 + t[idx, None])
        axes, ds = draw_box_marks(table, rng.random(shape), rng.random(shape))
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
# polygon regime

def _generic_zero(measure, window, inner, horizon, n, seed, bands):
    cut, tau, sbands, work = _generic_scan(measure, window, (inner,), horizon,
                                           n, seed, window, bands)
    return {"tau_enc": tau, "sigma_inner": cut[:, 0], "sigma_bands": sbands,
            **work}


def _generic_pair(measure, window, body_a, body_b, horizon, n, seed,
                  enclosure, base=0):
    cut, tau, _, work = _generic_scan(measure, window, (body_a, body_b),
                                      horizon, n, seed, enclosure, (), base)
    return {"cut_a": cut[:, 0], "cut_b": cut[:, 1], "tau_enc": tau, **work}


def _generic_scan(measure, window, bodies, horizon, n, seed, enclosure, bands,
                  base=0):
    """n lineages of `bodies` through _polygon_lineage, batch b of _BATCH on
    stream(seed, base + b): the cuts (n, k), the enclosure and band clocks,
    and the counters (no row retires)."""
    wv = geo.polygon_vertices(window)
    rate = measure_hitting(measure, window)
    B = geo.pad_polygons([np.asarray(b.vertices(), dtype=float) for b in bodies])[0]
    enc = None
    if enclosure is not None:
        normals, offsets = zip(*enclosure.facets())
        enc = (np.array(normals).T, np.array(offsets))

    def follow(rng, nb):
        return _polygon_lineage(
            (rng, measure, wv, rate), np.repeat(wv[None], nb, axis=0),
            np.full(nb, len(wv)), B, np.zeros(nb), horizon, enc,
            np.full(nb, np.inf), np.ones((nb, len(bodies)), dtype=bool), bands)
    return _scan(follow, n, len(bodies), len(bands), seed, base)


def _enclosed(enc, V):
    """Rows whose cell V lies strictly inside enc = (facet normals (2, f),
    offsets (f,)), with GEOM_TOL, as geometry.contains(strict=True)."""
    return (V @ enc[0] < enc[1] - geo.GEOM_TOL).all(axis=(1, 2))


def _polygon_lineage(rain, V, count, bodies, t, horizon, enc, tau, live,
                     bands=()):
    """Follow the polygon cells shared by k bodies through the rain from t.

    The planar counterpart of _fast_lineage.  rain = (rng, measure, window
    vertices, window hitting mass); each row draws _CHUNK window-level lines
    from the line drawer at a time from t, which advances in place.  V (nb,
    K, 2) and count are the cells, in geometry's padded layout; bodies (k, Kb, 2)
    the bodies' vertices; live (nb, k) marks the bodies in each row's cell.
    A line meets a body or cell whose closed projection interval holds it,
    as geometry.hits.  One that meets the cell cuts the live bodies it meets
    and clips the cell to the side of the rest, as geometry.clip_tolerant;
    a piece with fewer than 3 vertices or area at most 1e-12 ends the row,
    its uncut bodies staying inf.  One that leaves live bodies on both sides
    splits the row, each side continuing from the split time, the first
    live body's side first.  Returns (cut, tau, band clocks, marks drawn):
    each body's first cut time (inf if none by the horizon); tau, where
    still inf, becomes the first time body 0's cell lies strictly inside
    enc while body 0 is uncut; each row's first line in each Band while a
    body of the row is uncut.
    """
    rng, measure, wv, rate = rain
    nb, k = len(V), len(bodies)
    cut, sb = np.full((nb, k), np.inf), np.full((nb, len(bands)), np.inf)
    t_sep, u_sep = np.full(nb, np.inf), np.zeros((nb, 2))  # split rows:
    d_sep, low_sep = np.zeros(nb), np.zeros((nb, k), dtype=bool)  # line, sides
    idx, drawn = np.arange(nb), 0

    while len(idx) > 0:
        shape = (len(idx), _CHUNK)
        times = np.cumsum(rng.exponential(1.0 / rate, shape), axis=1) + t[idx, None]
        us, ds = draw_lines(rng, measure,
                            np.broadcast_to(wv, (times.size,) + wv.shape))
        us, ds = us.reshape(shape + (2,)), ds.reshape(shape)
        in_band = [b.marks_in(us, ds) for b in bands]
        t[idx] = times[:, -1]
        drawn += times.size
        at = np.arange(len(idx))  # chunk rows still followed
        for j in range(_CHUNK):
            at = at[times[at, j] < horizon]
            if len(at) == 0:
                break
            r, u, d, tm = idx[at], us[at, j], ds[at, j], times[at, j]
            proj = geo.project(V[r], u)
            meet = (proj.min(axis=1) <= d) & (d <= proj.max(axis=1))
            b_proj = bodies @ u.T  # (k, Kb, m)
            b_lo, b_hi = b_proj.min(axis=1).T, b_proj.max(axis=1).T
            hit = (live[r] & meet[:, None] & (b_lo <= d[:, None])
                   & (d[:, None] <= b_hi))
            cut[r] = np.where(hit, tm[:, None], cut[r])
            alive = live[r] & ~hit
            live[r] = alive
            going = alive.any(axis=1)
            for a, mark in enumerate(in_band):
                on = going & mark[at, j] & np.isinf(sb[r, a])
                sb[r[on], a] = tm[on]
            low = b_hi <= d[:, None]  # body below the line, where not hit
            any_low = (alive & low).any(axis=1)
            any_high = (alive & ~low).any(axis=1)
            one = np.flatnonzero(meet & (any_low != any_high))  # one side
            rc = r[one]
            s = np.where(any_low[one], 1.0, -1.0)[:, None] * (
                proj[one] - d[one, None])
            pts, n, ok = geo.clip_side(V[rc], count[rc], s)
            V = geo.pad_to(V, int(n.max(initial=0)))
            V[rc[ok]], count[rc[ok]] = pts[ok, :V.shape[1]], n[ok]
            if enc is not None:
                e = one[ok]
                e = e[alive[e, 0] & np.isinf(tau[r[e]])]
                e = e[_enclosed(enc, V[r[e]])]
                tau[r[e]] = tm[e]
            split = meet & any_low & any_high
            sp = r[split]
            t_sep[sp], u_sep[sp], d_sep[sp], low_sep[sp] = (
                tm[split], u[split], d[split], low[split])
            keep = going & ~split
            keep[one[~ok]] = False  # a degenerate piece ends its row
            at = at[keep]
        idx = idx[at]

    # each side of a split continues from the split time
    sub = np.flatnonzero(np.isfinite(t_sep))
    side = low_sep[sub, live[sub].argmax(axis=1)]
    for second in (False, True):
        side = ~side if second else side
        s = np.where(side, 1.0, -1.0)[:, None] * (
            geo.project(V[sub], u_sep[sub]) - d_sep[sub, None])
        pts, n, ok = geo.clip_side(V[sub], count[sub], s)
        rows, n = sub[ok], n[ok]
        if len(rows) == 0:
            continue
        c_V = pts[ok, :int(n.max())]
        group = live[rows] & (low_sep[rows] == side[ok, None])
        ts = tau[rows]
        if enc is not None:
            e = group[:, 0] & np.isinf(ts) & _enclosed(enc, c_V)
            ts[e] = t_sep[rows][e]
        c, tau[rows], _, more = _polygon_lineage(
            rain, c_V, n, bodies, t_sep[rows], horizon, enc, ts, group)
        cut[rows] = np.minimum(cut[rows], c)
        drawn += more
    return cut, tau, sb, drawn
