"""First-cut lineage processes driven by window-level hyperplane rain.

In the rejection construction, hyperplanes rain on the window at rate
mass(window) with law Lambda^W, and along any single cell lineage the
per-cell sequences concatenate into one homogeneous rain.  The cell of a
convex body K evolves by clamping to K's side of every rain hyperplane
that meets the cell, until one meets K itself.  Tracking only the lineages
of a few bodies of interest is far cheaper than building whole trees and is
exact for first-cut times, encapsulation times and avoidance indicators.

One kernel, ``_lineage``, is the only loop that follows a cell through the
rain, and it follows a batch of replicates at once.  measure.regime picks
its geometry for (measure, window), as for the trees: box intervals
(geometry.BoxCells) cut by marks from the box drawer when the measure lives
on the coordinate axes of a box window, else convex polygons in geometry's
padded layout (geometry.PolygonCells) cut by lines from the line drawer.
Bands and enclosures do not steer it: both cell types read a band through
Band.marks_in and an enclosure by its facets.  The kernel follows the cell
shared by a group of bodies: a mark that meets a body cuts it and the rest
keep the cell, and a mark that separates the group splits it, each side
continuing on its own rain.  The zero-cell scan is the one-body case and
the pair scan the two-body case.  Marks are drawn on demand, _CHUNK at a
time for the rows still followed, each row (or side of a split) continuing
on the batch's stream from its last time.

Per-body state is columnar, with the bodies on the first axis: which
bodies each row's cell holds, their cut times and their sides of a split
are (k, rows) arrays, and a cell type's interval gives (k, marks), so a
reduction over the bodies is an OR of k rows rather than a short-axis
reduction.  Rows are gathered by take, cut times and retirement NaNs are
written only at the (body, row) pairs a mark hits, and a step whose marks
hit or split nothing writes nothing.  Chunk clocks are held (_CHUNK, rows),
so each step reads one contiguous row.  _scan hands back the cuts as (n, k).
"""

from __future__ import annotations

import numpy as np

from . import geometry as geo
from .measure import DrivingMeasure, box_regime, polygon_regime, regime
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
    if regime(measure, window).cells is geo.BoxCells:
        return _fast_zero(measure, window, inner, horizon, n, seed, bands)
    return _generic_zero(measure, window, inner, horizon, n, seed, bands)


def pair_scan(measure: DrivingMeasure, window, body_a, body_b, horizon: float,
              n: int, seed: int, enclosure: geo.Polytope | None = None,
              base: int = 0) -> dict:
    """First-cut times of two bodies under one tessellation trajectory.

    Each trajectory is one lineage of the pair: the bodies share one cell
    (and one rain) while they share a cell; once a cut separates them their
    subtrees are independent and each continues under its own rain.  Returns
    arrays cut_a, cut_b and, when `enclosure` is given, tau_enc: the first
    time the a-lineage cell lies strictly inside the enclosure while body_a
    is uncut.  Batch b of _BATCH lineages runs on stream(seed, base + b).
    Also returns the counts marks_drawn and rows_retired: with an enclosure
    a row retires once tau_enc is decided to be inf (body_a cut first, or a
    split leaving body_a's side unenclosed), and its cut_b then reads NaN if
    body_b was still uncut.
    """
    if regime(measure, window).cells is geo.BoxCells:
        return _fast_pair(measure, window, body_a, body_b, horizon, n, seed,
                          enclosure, base)
    return _generic_pair(measure, window, body_a, body_b, horizon, n, seed,
                         enclosure, base)


# ---------------------------------------------------------------------------
# the regimes: each wrapper picks its regime, whatever the window's type

def _fast_zero(measure, window: geo.Box, inner, horizon, n, seed, bands):
    return _zero(box_regime, measure, window, inner, horizon, n, seed, bands)


def _fast_pair(measure, window: geo.Box, body_a, body_b, horizon, n, seed,
               enclosure, base=0):
    return _pair(box_regime, measure, window, body_a, body_b, horizon, n,
                 seed, enclosure, base)


def _generic_zero(measure, window, inner, horizon, n, seed, bands):
    return _zero(polygon_regime, measure, window, inner, horizon, n, seed,
                 bands)


def _generic_pair(measure, window, body_a, body_b, horizon, n, seed,
                  enclosure, base=0):
    return _pair(polygon_regime, measure, window, body_a, body_b, horizon, n,
                 seed, enclosure, base)


def _zero(regime, measure, window, inner, horizon, n, seed, bands):
    cut, tau, sbands, work = _scan(regime(measure, window), window, (inner,),
                                   horizon, n, seed, window, bands)
    return {"tau_enc": tau, "sigma_inner": cut[:, 0], "sigma_bands": sbands,
            **work}


def _pair(regime, measure, window, body_a, body_b, horizon, n, seed,
          enclosure, base):
    cut, tau, _, work = _scan(regime(measure, window), window,
                              (body_a, body_b), horizon, n, seed, enclosure,
                              (), base)
    return {"cut_a": cut[:, 0], "cut_b": cut[:, 1], "tau_enc": tau, **work}


def _scan(regime, window, bodies, horizon, n, seed, enclosure, bands,
          base=0):
    """n lineages of `bodies` from `window` through _lineage, under the
    measure.Regime `regime`, batch b of _BATCH rows on stream(seed,
    base + b).  Returns the cuts (n, k), a view of the (k, n) array the
    batches fill with bodies on the first axis, tau, the band clocks (n,
    len(bands)) and the counters marks_drawn and rows_retired (rows holding
    a NaN cut)."""
    cells = regime.cells
    k, body_cells = len(bodies), cells.of(bodies)
    cut, tau = np.empty((k, n)), np.empty(n)
    sbands, drawn = np.empty((n, len(bands))), 0
    for bi, start in enumerate(range(0, n, _BATCH)):
        stop = min(start + _BATCH, n)
        nb = stop - start
        cut[:, start:stop], tau[start:stop], sbands[start:stop], more = (
            _lineage((stream(seed, base + bi), regime.rate, regime.draw),
                     cells.tile(window, nb), body_cells, np.zeros(nb),
                     horizon, enclosure, np.full(nb, np.inf),
                     np.ones((k, nb), dtype=bool), bands))
        drawn += more
    return cut.T, tau, sbands, {"marks_drawn": drawn, "rows_retired": int(
        np.isnan(cut).any(axis=0).sum())}


def _lineage(rain, cells, bodies, t, horizon, enc, tau, live, bands=()):
    """Follow the cells shared by k bodies through the rain from time t.

    rain = (rng, rate, draw); each row draws _CHUNK marks at a time from t,
    which advances in place: Exp(rate) gaps (shape (rows, _CHUNK), summed
    into clocks held (_CHUNK, rows)), and marks (u, d) from draw(rng,
    shape).  cells (nb rows, cut in place) and bodies (k rows) are of one
    cell type; live (k, nb) marks the bodies in each row's cell.  Per-body
    state has the bodies on the first axis, so a reduction over bodies is
    an OR of k rows; cuts are written only where a mark hits, and no cut,
    live, retire or split write is made when no mark hits or splits.
    A mark that meets the cell cuts the live bodies it meets and clamps the
    cell to the side of the rest; a degenerate piece (not ok) ends the row,
    its uncut bodies staying inf.  One that leaves live bodies on both sides
    splits the row, each side continuing from the split time, the first
    live body's side first.  Returns (cut, tau, band clocks, marks drawn):
    cut (k, nb), each body's first cut time (inf if none by the horizon);
    tau, where still inf, becomes the first time body 0's cell lies
    strictly inside the polytope enc while body 0 is uncut; each row's
    first mark inside each band before body 0's cut.  With enc and k > 1 a
    row retires once its tau is decided to be inf, as pair_scan describes.
    """
    rng, rate, draw = rain
    k, nb = live.shape
    retire = enc is not None and k > 1
    cut, sb = np.full((k, nb), np.inf), np.full((nb, len(bands)), np.inf)
    t_sep, d_sep = np.full(nb, np.inf), np.zeros(nb)  # split rows: time,
    u_sep, low_sep = None, np.zeros((k, nb), dtype=bool)  # mark and sides
    idx, drawn = np.arange(nb), 0

    while len(idx) > 0:
        shape = (len(idx), _CHUNK)
        times = np.cumsum(rng.exponential(1.0 / rate, shape).T, axis=0,
                          out=np.empty(shape[::-1]))
        times += t[idx]
        us, ds = draw(rng, shape)
        if u_sep is None:
            u_sep = np.zeros((nb,) + us.shape[2:], dtype=us.dtype)
        t[idx] = times[-1]
        drawn += times.size
        at = np.arange(len(idx))  # chunk rows still followed
        for j in range(_CHUNK):
            # i: the positions a step acts on, rebound at each step so that
            # one index array is held at a time (peak memory)
            tj = times[j]
            at = at[tj[at] < horizon]
            if len(at) == 0:
                break
            r, u, d = idx[at], us[at, j], ds[at, j]
            meet = cells.meets(r, u, d)
            i = meet.nonzero()[0]
            r, u, d, tm = r[i], u.take(i, axis=0), d[i], tj[at[i]]
            b_lo, b_hi = bodies.interval(u)
            alive = live.take(r, axis=1)
            hit = alive & (d >= b_lo) & (d <= b_hi)
            hb, hr = _nonzero(hit)
            if len(hb):  # no writes when no mark hits a body
                cut[hb, r[hr]] = tm[hr]
                live[hb, r[hr]] = False
                alive ^= hit
                if retire:  # body 0 cut unenclosed: the rest reads NaN
                    hb, hr = _nonzero(alive & (hit[0] & np.isinf(tau[r])))
                    cut[hb, r[hr]] = np.nan
                    alive[hb, hr] = False
            low = b_hi <= d  # body below the mark, where not hit
            any_low = (alive & low).any(axis=0)
            any_high = (alive & ~low).any(axis=0)
            one = any_low != any_high  # every live body on one side: clamp
            i = one.nonzero()[0]
            one[i] = cells.clamp(r[i], u.take(i, axis=0), d[i], any_low[i])
            if enc is not None:
                i = (one & alive[0] & np.isinf(tau[r])).nonzero()[0]
                i = i[cells.inside(enc, r[i])]
                tau[r[i]] = tm[i]
            i = (any_low & any_high).nonzero()[0]  # split
            if len(i):
                s = r[i]
                t_sep[s], u_sep[s], d_sep[s] = tm[i], u.take(i, axis=0), d[i]
                low_sep[:, s] = low.take(i, axis=1)
            keep = ~meet
            keep[meet] = one
            at = at[keep]
        if bands:
            early = times.T < np.minimum(cut[0, idx], horizon)[:, None]
            normals = cells.normals(us)
            for a, band in enumerate(bands):
                mark = early & band.marks_in(normals, ds)
                sb[idx, a] = np.minimum(
                    sb[idx, a], np.where(mark, times.T, np.inf).min(axis=1))
        idx = idx[at]

    # each side of a split continues from the split time
    sub = np.isfinite(t_sep).nonzero()[0]
    side = low_sep[live[:, sub].argmax(axis=0), sub]
    for second in (False, True):
        side = ~side if second else side
        group = live[:, sub] & (low_sep[:, sub] == side)
        if second and retire:  # body 0's side left these rows unenclosed
            drop = np.isinf(tau[sub])
            gb, gr = _nonzero(group[:, drop])
            cut[gb, sub[drop][gr]] = np.nan
            sub, side, group = sub[~drop], side[~drop], group[:, ~drop]
        child, ok = cells.side(sub, u_sep[sub], d_sep[sub], side)
        rows, group = sub[ok], group[:, ok]
        if len(rows) == 0:
            continue
        ts = tau[rows]
        if enc is not None:
            e = group[0] & np.isinf(ts) & child.inside(enc)
            ts[e] = t_sep[rows][e]
        c, tau[rows], _, more = _lineage(rain, child, bodies, t_sep[rows],
                                         horizon, enc, ts, group)
        cut[:, rows] = np.minimum(cut[:, rows], c)
        drawn += more
    return cut, tau, sb, drawn


def _nonzero(x):
    """np.nonzero(x) of a 2-D x, (rows, columns) in the same order, from the
    1-D nonzero of x raveled: about 10x faster than np.nonzero's 2-D path."""
    return np.divmod(x.ravel().nonzero()[0], x.shape[1])
