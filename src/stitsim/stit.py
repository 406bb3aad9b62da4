"""Cell-division tessellation process on a window.

A trajectory is a dyadic tree of cells.  Every extant cell lives an
exponential time with parameter equal to the hitting mass of the cell and
is then divided by a hyperplane drawn from the measure restricted to the
hyperplanes meeting it.  Two equivalent constructions are provided:

* ``direct``   - per-cell lifetime Exp(mass(cell)) and a per-cell split draw;
* ``rejection`` - window-level hyperplanes rain on every cell at rate
  mass(window); draws that miss the cell are recorded as rejected and the
  first hit divides the cell.

A cell's lifetime and cut depend only on that cell (Mecke, Nagel & Weiss
2008), so each geometry regime has one kernel that grows a batch of trees
one generation at a time over flat arrays, and ``advance`` picks it.
``grow_boxes`` serves an axis measure on a box window, where every cell
stays a box, and the experiments read its arrays directly.
``grow_polygons`` serves every other planar measure and window: its cells
are convex polygons, split by a vectorised Sutherland-Hodgman pass, and an
isotropic cell's hitting mass is Cauchy's gamma * perimeter / pi.  A
``CellTree`` is one tree's forest plus parent ids; polytopes come on demand.

A tree, or a batch of trees, is built from one random stream (see rng).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import geometry as geo
from .errors import (AmbiguousZeroCell, DegenerateCut, ExplosionGuard,
                     InsufficientNests, MethodMismatch, OutOfRange,
                     SamplerStall, WindowMismatch)
from .measure import (_SAMPLER_CAP, Discrete, DrivingMeasure, box_axis_rates,
                      measure_hitting)

EVENT_CAP = 10 ** 7
_SPLIT_RETRY_CAP = 100


@dataclass
class CellTree:
    """One trajectory: the rows of `forest` are its nodes in id order and
    parent[i] is node i's parent, -1 for the root, node 0.

    Every advance appends the children of the cells it divides in the
    order of its forest, so parent ids are below their children's and the
    children of a cell are two neighbouring ids, minus first.  A node is
    born at its parent's death (the root at 0); a cell alive at
    current_time has death inf.
    """

    window: geo.Polytope
    measure: DrivingMeasure
    method: str
    forest: BoxForest | PolygonForest
    parent: np.ndarray
    current_time: float

    @property
    def birth(self) -> np.ndarray:
        return np.concatenate([[0.0], self.forest.death[self.parent[1:]]])

    @property
    def jump_times(self) -> list[float]:
        return np.sort(self.forest.death[~self.forest.alive]).tolist()

    @property
    def children(self) -> np.ndarray:
        """Each node's minus child, the plus one being next; -1 if live."""
        first = np.full(len(self.parent), -1)
        first[self.parent[1::2]] = np.arange(1, len(self.parent), 2)
        return first

    def cell(self, i: int) -> geo.Polytope:
        """Node i's polytope; the root's is the window itself."""
        return self.window if i == 0 else self.forest.cells([i])[0]

    @property
    def nodes(self) -> list[SimpleNamespace]:
        """Only for perfbench/tracer.py, which counts splits and misses by
        each node's children (None if live) and rejected_hyperplanes."""
        misses = np.bincount(self.forest.rejected[0], minlength=len(self.parent))
        return [SimpleNamespace(children=None if k < 0 else (k, k + 1),
                                rejected_hyperplanes=range(r))
                for k, r in zip(self.children.tolist(), misses.tolist())]


@dataclass(frozen=True)
class Tessellation:
    window: geo.Polytope
    cells: tuple[geo.Polytope, ...]


@dataclass(frozen=True)
class StatRecord:
    cell_count: int
    boundary: float
    zero_cell_area: float


@dataclass(frozen=True)
class BoxForest:
    """The nodes of a batch of box trees as flat arrays, in generation order.

    The batch's starting cells come first.  Each generation is followed by
    the children of its dying cells, in the cells' order, the two children
    of a cell side by side with minus, the side away from the origin,
    first; a child is born at its parent's death.  So the children of the
    k-th divided node are nodes m + 2k and m + 2k + 1, m the number of
    starting cells.  rep is each node's tree.  A cell alive at the horizon
    has death inf and axis -1; a divided cell has its cut (axis, cut).
    rejected holds the rejection method's misses as (node, axis, offset) in
    draw order.
    """

    rep: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    death: np.ndarray
    axis: np.ndarray
    cut: np.ndarray
    rejected: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def alive(self) -> np.ndarray:
        return np.isinf(self.death)

    def cells(self, rows) -> list[geo.Box]:
        return [geo.Box(tuple(a), tuple(b))
                for a, b in zip(self.lo[rows].tolist(), self.hi[rows].tolist())]

    def cuts(self) -> tuple[np.ndarray, np.ndarray]:
        """Each node's cut as (unit normals, offsets), 0 for a live cell."""
        ell = self.lo.shape[1]
        return (self.axis[:, None] == np.arange(ell)).astype(float), self.cut

    def misses(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        at, ax, d = self.rejected
        return at, np.eye(self.lo.shape[1])[ax], d


@dataclass(frozen=True)
class PolygonForest:
    """The nodes of a batch of planar trees as flat arrays, in the order of
    BoxForest.  verts (N, K, 2) holds each cell's count counterclockwise
    vertices, padded with copies of its first vertex.  A divided cell has
    its cut (normal, offset), the line {x : <x, normal> = offset}; a cell
    alive at the horizon has death inf.  rejected holds the rejection
    method's misses as (node, normal, offset) in draw order.
    """

    rep: np.ndarray
    verts: np.ndarray
    count: np.ndarray
    death: np.ndarray
    normal: np.ndarray
    offset: np.ndarray
    rejected: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def alive(self) -> np.ndarray:
        return np.isinf(self.death)

    def cells(self, rows) -> list[geo.Polygon2D]:
        V, count = self.verts[rows], self.count[rows]
        x, y = V[np.arange(V.shape[1]) < count[:, None]].T.tolist()
        ends = np.cumsum(count).tolist()
        return [geo.Polygon2D(tuple(zip(x[e - k:e], y[e - k:e])))
                for e, k in zip(ends, count.tolist())]

    def cuts(self) -> tuple[np.ndarray, np.ndarray]:
        return self.normal, self.offset

    def misses(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.rejected


def simulate(measure: DrivingMeasure, window: geo.Polytope, t: float, rng,
             method: str = "direct") -> CellTree:
    """Run the division process on `window` up to time t."""
    if t <= 0:
        raise ValueError("horizon must be positive")
    if method not in ("direct", "rejection"):
        raise ValueError(f"unknown method {method!r}")
    rep, g = np.zeros(1, dtype=np.int64), box_axis_rates(measure, window)
    f = (grow_polygons(measure, window, [_polygon_vertices(window)], rep, 0.0,
                       t, rng, method) if g is None else
         grow_boxes(g, window, window.lo_arr[None], window.hi_arr[None], rep,
                    0.0, t, rng, method))
    return CellTree(window, measure, method, f, np.concatenate(
        [[-1], np.repeat(np.flatnonzero(~f.alive), 2)]), t)


def advance(tree: CellTree, dt: float, rng) -> CellTree:
    """Continue the division process for a further dt; mutates and returns tree.

    Lifetimes are memoryless, so the live cells' divisions are drawn afresh
    from the current time; the law of the continued process is unchanged.
    The live cells grow as one batch: through grow_boxes for an axis measure
    on a box window, else through grow_polygons.  The live nodes take their
    new deaths and cuts, and the forest's other nodes, the children, are
    appended in its order with their parent ids, and so are its misses.
    """
    if not dt > 0:  # also catches NaN
        raise ValueError("dt must be positive")
    f = tree.forest
    live = np.flatnonzero(f.alive)
    rep = np.zeros(len(live), dtype=np.int64)
    t0, horizon = tree.current_time, tree.current_time + dt
    g = box_axis_rates(tree.measure, tree.window)
    if g is None:
        new = grow_polygons(tree.measure, tree.window,
                            [f.verts[i, :k] for i, k in
                             zip(live, f.count[live].tolist())],
                            rep, t0, horizon, rng, tree.method)
    else:
        new = grow_boxes(g, tree.window, f.lo[live], f.hi[live], rep, t0,
                         horizon, rng, tree.method)
    m, n = len(live), len(f.death)
    ids = np.concatenate([live, np.arange(n, n + len(new.death) - m)])
    cols = []
    for name in [c.name for c in fields(f)][:-1]:
        a, b = getattr(f, name), getattr(new, name)
        if a.ndim == 3:  # padded vertices
            width = max(a.shape[1], b.shape[1])
            a, b = _pad_to(a, width), _pad_to(b, width)
        cols.append(np.concatenate([a, b[m:]]))
        cols[-1][live] = b[:m]
    at, *miss = new.rejected
    tree.forest = type(f)(*cols, rejected=tuple(map(
        np.concatenate, zip(f.rejected, (ids[at], *miss)))))
    tree.parent = np.concatenate([tree.parent,
                                  np.repeat(ids[~new.alive], 2)])
    tree.current_time = horizon
    return tree


def _check_work(dt: float, window_rate: float) -> None:
    """Refuse, before any draw, a run of one tree expected to pass EVENT_CAP
    events: live rates sum to at least mass(window) in `direct`, and every
    live cell draws at that rate in `rejection`."""
    if dt * window_rate > EVENT_CAP:
        raise ExplosionGuard(
            f"STIT advance by dt={dt:g} on a window of hitting mass "
            f"{window_rate:g} expects at least {dt * window_rate:g} events, "
            f"over the cap of {EVENT_CAP}")


def _state(t: float, live: int) -> str:
    """Where a kernel stopped: the earliest birth of the generation it was
    dividing, and the cells alive then (survivors and that generation)."""
    return f"at t={t:g} with {live} live cells"


def _check_events(events: int, t: float, live: int) -> int:
    if events > EVENT_CAP:
        raise ExplosionGuard(f"more than {EVENT_CAP} events in one advance, "
                             f"{_state(t, live)}")
    return events


def _stuck(t: float, live: int) -> DegenerateCut:
    return DegenerateCut(f"could not draw a non-degenerate split in "
                         f"{_SPLIT_RETRY_CAP} tries, {_state(t, live)}")


# ---------------------------------------------------------------------------
# box regime

def grow_boxes(g, window: geo.Box, lo, hi, rep, t0: float, horizon: float,
               rng, method: str = "direct") -> BoxForest:
    """Divide the box cells (lo, hi) (m, ell) of the trees rep from t0 to
    the horizon, under the axis measure with per-axis rates g on `window`.

    Every live cell of a generation draws its division at once: in
    `direct` a death time Exp(mass(cell)) after its birth and a cut drawn
    in the cell; in `rejection` window-level marks (time, axis, offset),
    one per round for each cell no mark has hit yet, the first hit dividing
    the cell.  Cells dying by the horizon split into the next generation.
    The running cap counts divisions and rejected draws.
    """
    g = np.asarray(g, dtype=float)
    side = window.hi_arr - window.lo_arr
    window_rate = float(g @ side)
    _check_work(horizon - t0, window_rate)
    rain = (np.cumsum(g * side) / window_rate, window.lo_arr, side,
            window_rate)
    birth = np.full(len(lo), float(t0))
    gens, start, events, done = [], 0, 0, 0
    misses = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
               np.zeros(0))]
    while len(lo):
        m = len(lo)
        if method == "rejection":
            death, axis, cut, (at, ax, d) = _window_rain(rng, rain, lo, hi,
                                                         birth, horizon)
            misses.append((start + at, ax, d))
            events += len(at)
        else:
            death = birth + rng.standard_exponential(m) / ((hi - lo) @ g)
            axis, cut = np.full(m, -1), np.zeros(m)
        dies = np.flatnonzero(death <= horizon)
        death[death > horizon] = np.inf
        where = (float(birth.min()), done + m)
        events = _check_events(events + len(dies), *where)
        c_lo, c_hi = lo[dies], hi[dies]
        ax, d = _box_cuts(rng, g, c_lo, c_hi, axis[dies], cut[dies], where)
        axis[dies], cut[dies] = ax, d
        gens.append((rep, lo, hi, death, axis, cut))
        pair = 2 * np.arange(len(dies))
        lo, hi = np.repeat(c_lo, 2, axis=0), np.repeat(c_hi, 2, axis=0)
        lo[pair + (d <= 0), ax] = d
        hi[pair + (d > 0), ax] = d
        rep, birth = np.repeat(rep[dies], 2), np.repeat(death[dies], 2)
        start, done = start + m, done + m - len(dies)
    return BoxForest(*map(np.concatenate, zip(*gens)),
                     rejected=tuple(map(np.concatenate, zip(*misses))))


def _box_cuts(rng, g, lo, hi, ax, d, where):
    """A cut (ax, d) of every box, drawn from the axis measure restricted to
    the box where ax is -1 and again while it lies within 1e-9 of a face of
    the box or 1e-12 of the origin.  where = (t, live) for the error."""
    rows = np.arange(len(lo))
    for _ in range(_SPLIT_RETRY_CAP + 1):
        bad = (ax < 0) | ~((d - lo[rows, ax] > 1e-9)
                           & (hi[rows, ax] - d > 1e-9) & (np.abs(d) > 1e-12))
        if not bad.any():
            return ax, d
        b = rows[bad]
        side = hi[b] - lo[b]
        cum = np.cumsum(g * side, axis=1)
        u = rng.random(len(b)) * cum[:, -1]
        ax[b] = np.minimum((u[:, None] >= cum).sum(axis=1), len(g) - 1)
        d[b] = (lo[b, ax[b]]
                + rng.random(len(b)) * side[np.arange(len(b)), ax[b]])
    raise _stuck(*where)


def _window_rain(rng, rain, lo, hi, t, horizon):
    """The first window-level mark after t[i] that hits box i by the horizon.

    rain = (cumulative axis probabilities, window lo, window side, window
    rate).  Returns the marks' times (inf when none), axes and offsets, and
    the misses before them as (box, axis, offset) in draw order.
    """
    cum, v_lo, v_side, rate = rain
    m = len(lo)
    when, axis, cut = np.full(m, np.inf), np.full(m, -1), np.zeros(m)
    idx, t, misses = np.arange(m), t.copy(), []
    while len(idx):
        t[idx] += rng.standard_exponential(len(idx)) / rate
        idx = idx[t[idx] <= horizon]
        ax = np.minimum(np.searchsorted(cum, rng.random(len(idx)),
                                        side="right"), len(cum) - 1)
        d = v_lo[ax] + rng.random(len(idx)) * v_side[ax]
        hit = (d > lo[idx, ax]) & (d < hi[idx, ax])
        misses.append((idx[~hit], ax[~hit], d[~hit]))
        h = idx[hit]
        when[h], axis[h], cut[h] = t[h], ax[hit], d[hit]
        idx = idx[~hit]
    return when, axis, cut, tuple(map(np.concatenate, zip(*misses)))


# ---------------------------------------------------------------------------
# polygon regime

def grow_polygons(measure: DrivingMeasure, window: geo.Polytope, verts, rep,
                  t0: float, horizon: float, rng,
                  method: str = "direct") -> PolygonForest:
    """Divide the convex polygon cells `verts` (a sequence of (k, 2)
    counterclockwise vertex arrays) of the trees rep from t0 to the
    horizon, under any planar measure on the polygon or 2-D box `window`.

    The planar counterpart of grow_boxes.  Every live cell of a generation
    draws its division at once: in `direct` a death time Exp(mass(cell))
    after its birth, mass(cell) being gamma * sum_c w_c width_c(cell) for a
    discrete measure and Cauchy's gamma * perimeter / pi for the isotropic
    one, and a line drawn from the measure restricted to the cell; in
    `rejection` window-level lines at rate mass(window), the first that
    hits the cell dividing it.  A line is redrawn from the cell's own law
    while it passes within GEOM_TOL of a vertex or leaves a child with
    fewer than 3 vertices or area at most 1e-12.  The running cap counts
    divisions and rejected draws.
    """
    window_rate = measure_hitting(measure, window)
    if not window_rate > 0:
        raise ValueError("window has zero hitting mass")
    _check_work(horizon - t0, window_rate)
    wv = _polygon_vertices(window)
    V, count = _pad([np.asarray(v, dtype=float) for v in verts])
    birth = np.full(len(V), float(t0))
    gens, start, events, done = [], 0, 0, 0
    misses = [(np.zeros(0, dtype=np.int64), np.zeros((0, 2)), np.zeros(0))]
    while len(V):
        m = len(V)
        normal, offset = np.zeros((m, 2)), np.zeros(m)
        if method == "rejection":
            death, normal, offset, (at, mu, md) = _polygon_rain(
                rng, measure, wv, window_rate, V, birth, horizon)
            misses.append((start + at, mu, md))
            events += len(at)
        else:
            death = birth + rng.standard_exponential(m) / _masses(measure, V)
        dies = np.flatnonzero(death <= horizon)
        death[death > horizon] = np.inf
        where = (float(birth.min()), done + m)
        events = _check_events(events + len(dies), *where)
        u, d, kids, k_count = _split(
            rng, measure, V[dies], count[dies],
            None if method == "direct" else (normal[dies], offset[dies]),
            where)
        normal[dies], offset[dies] = u, d
        gens.append((rep, V, count, death, normal, offset))
        V, count = kids, k_count
        rep, birth = np.repeat(rep[dies], 2), np.repeat(death[dies], 2)
        start, done = start + m, done + m - len(dies)
    width = max(g[1].shape[1] for g in gens)
    gens = [(r, _pad_to(v, width), *rest) for r, v, *rest in gens]
    return PolygonForest(*map(np.concatenate, zip(*gens)),
                         rejected=tuple(map(np.concatenate, zip(*misses))))


def _polygon_vertices(P) -> np.ndarray:
    """Counterclockwise vertices of a polygon or 2-D box."""
    return (P.to_polygon() if isinstance(P, geo.Box) else P).verts


def _pad_to(V: np.ndarray, width: int) -> np.ndarray:
    """V (m, K, 2) widened to `width` vertices with copies of vertex 0."""
    extra = width - V.shape[1]
    if extra <= 0:
        return V
    return np.concatenate([V, np.repeat(V[:, :1], extra, axis=1)], axis=1)


def _pad(polys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(padded (m, K, 2) vertices, counts) of a list of vertex arrays."""
    count = np.array([len(v) for v in polys], dtype=np.int64)
    width = int(count.max(initial=1))
    V = np.empty((len(polys), width, 2))
    for i, v in enumerate(polys):
        V[i] = _pad_to(v[None], width)[0]
    return V, count


def _project(V: np.ndarray, u: np.ndarray) -> np.ndarray:
    """<v, u[i]> for every vertex v of cell i: (m, K)."""
    return V[:, :, 0] * u[:, None, 0] + V[:, :, 1] * u[:, None, 1]


def _masses(measure: DrivingMeasure, V: np.ndarray) -> np.ndarray:
    """Hitting mass of every cell, as measure_hitting computes it."""
    th = measure.directional
    if isinstance(th, Discrete):
        proj = V @ th.dir_array.T
        return measure.gamma * ((proj.max(axis=1) - proj.min(axis=1))
                                @ th.weights)
    edges = np.roll(V, -1, axis=1) - V
    return measure.gamma * np.hypot(edges[..., 0], edges[..., 1]).sum(
        axis=1) / math.pi


def _lines(rng, measure: DrivingMeasure, V: np.ndarray):
    """One line per cell from the measure restricted to the lines meeting
    it, as sample_hitting draws: a discrete axis weighted by w_c width_c or
    an isotropic direction accepted with probability width / diameter, then
    an offset uniform in the cell's support interval.  Returns (normals,
    offsets)."""
    m = len(V)
    th = measure.directional
    rows = np.arange(m)
    if isinstance(th, Discrete):
        proj = V @ th.dir_array.T
        lo, hi = proj.min(axis=1), proj.max(axis=1)
        cum = np.cumsum(th.weights * (hi - lo), axis=1)
        x = rng.random(m) * cum[:, -1]
        k = np.minimum((cum < x[:, None]).sum(axis=1), len(th.weights) - 1)
        u, lo, hi = th.dir_array[k], lo[rows, k], hi[rows, k]
    else:
        # a window broadcast to all rows (stride 0) needs one diameter
        W = V[:1] if V.strides[0] == 0 else V
        diam = np.broadcast_to(np.sqrt(((W[:, :, None] - W[:, None]) ** 2)
                                       .sum(axis=3).max(axis=(1, 2))), m)
        u, lo, hi = np.empty((m, 2)), np.empty(m), np.empty(m)
        todo = rows
        for _ in range(_SAMPLER_CAP):
            if not len(todo):
                break
            phi = rng.random(len(todo)) * math.pi
            c = np.column_stack([np.cos(phi), np.sin(phi)])
            proj = _project(V[todo], c)
            p_lo, p_hi = proj.min(axis=1), proj.max(axis=1)
            ok = rng.random(len(todo)) * diam[todo] <= p_hi - p_lo
            r = todo[ok]
            u[r], lo[r], hi[r] = c[ok], p_lo[ok], p_hi[ok]
            todo = todo[~ok]
        else:
            if len(todo):
                raise SamplerStall("isotropic direction sampler exceeded cap")
    return u, lo + rng.random(m) * (hi - lo)


def _polygon_rain(rng, measure, wv, rate, V, t, horizon):
    """The first window-level line after t[i] that hits cell i by the
    horizon, for the window with vertices wv and hitting mass rate.
    Returns the lines' times (inf when none), normals and offsets, and the
    misses before them as (cell, normal, offset) in draw order."""
    m = len(V)
    when, normal, offset = np.full(m, np.inf), np.zeros((m, 2)), np.zeros(m)
    idx, t, misses = np.arange(m), t.copy(), []
    while len(idx):
        t[idx] += rng.standard_exponential(len(idx)) / rate
        idx = idx[t[idx] <= horizon]
        u, d = _lines(rng, measure, np.broadcast_to(wv, (len(idx),) + wv.shape))
        proj = _project(V[idx], u)
        hit = (proj.min(axis=1) <= d) & (d <= proj.max(axis=1))
        misses.append((idx[~hit], u[~hit], d[~hit]))
        h = idx[hit]
        when[h], normal[h], offset[h] = t[h], u[hit], d[hit]
        idx = idx[~hit]
    return when, normal, offset, tuple(map(np.concatenate, zip(*misses)))


def _split(rng, measure, V, count, cuts, where):
    """Split every cell (V, count) by a line: `cuts` = (normals, offsets),
    or None to draw every line from its cell's law, which also redraws a
    line that passes within GEOM_TOL of a vertex or leaves a degenerate
    child.  Returns the lines and the children (2m, K', 2) with their
    counts, minus (the side away from the origin) before plus for each
    cell.  where = (t, live) for the error."""
    m = len(V)
    u, d = (np.zeros((m, 2)), np.zeros(m)) if cuts is None else cuts
    kids = np.empty((m, 2, 2 * V.shape[1], 2))
    k_count = np.zeros((m, 2), dtype=np.int64)
    todo, draw = np.arange(m), cuts is None
    for _ in range(_SPLIT_RETRY_CAP):
        if draw and len(todo):
            u[todo], d[todo] = _lines(rng, measure, V[todo])
        ok, pts, n = _clip_both(V[todo], count[todo], u[todo], d[todo])
        kids[todo[ok]], k_count[todo[ok]] = pts[ok], n[ok]
        todo, draw = todo[~ok], True
        if not len(todo):
            break
    else:
        raise _stuck(*where)
    width = int(k_count.max(initial=1))
    return (u, d, kids[:, :, :width].reshape(2 * m, width, 2),
            k_count.reshape(2 * m))


def _clip_both(V, count, u, d):
    """Both sides of each cell cut by its line, by one _clip_side each.
    Returns (ok, children (m, 2, 2K, 2), counts (m, 2)); ok is False where a
    vertex lies within GEOM_TOL of the line or a child has fewer than 3
    vertices or area at most 1e-12."""
    m, K = V.shape[:2]
    s = _project(V, u) - d[:, None]
    ok = ~(np.abs(s) < geo.GEOM_TOL).any(axis=1)
    # the minus side keeps the vertices away from the origin
    sign = np.where(d > 0, -1.0, 1.0)[:, None]
    pts, n = np.empty((m, 2, 2 * K, 2)), np.empty((m, 2), dtype=np.int64)
    for side, sg in enumerate((sign, -sign)):
        pts[:, side], n[:, side], side_ok = _clip_side(V, count, sg * s)
        ok &= side_ok
    return ok, pts, n


def _clip_side(V, count, s):
    """Each cell (V, count) clipped to the side {s <= GEOM_TOL} of its line,
    s (m, K) being its vertices' signed distances from the line, by one
    Sutherland-Hodgman pass of geometry.clip_tolerant, with its 1e-12
    duplicate rule applied between neighbouring points.  Returns (points
    (m, 2K, 2), counts, ok); ok is False where the piece has fewer than 3
    vertices or area at most 1e-12."""
    m, K = V.shape[:2]
    j = np.arange(K)
    valid = j < count[:, None]
    prev = np.where(j == 0, count[:, None] - 1, j - 1)
    ps = np.take_along_axis(s, prev, axis=1)
    pv = np.take_along_axis(V, prev[:, :, None], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = pv + (ps / (ps - s))[:, :, None] * (V - pv)
    cand = np.stack([x, V], axis=2).reshape(m, 2 * K, 2)
    inside = s <= geo.GEOM_TOL
    cross = inside != np.take_along_axis(inside, prev, axis=1)
    keep = np.stack([cross & valid, inside & valid], axis=2).reshape(m, 2 * K)
    pts, n = _compact(cand, keep)
    w = np.roll(pts, -1, axis=1)
    area = (pts[..., 0] * w[..., 1] - w[..., 0] * pts[..., 1]).sum(axis=1) / 2
    return pts, n, (n >= 3) & (area > 1e-12)


def _compact(cand, keep):
    """The kept points of each row in order, dropping a point within 1e-12
    (in both coordinates) of the one before it and a last point within
    1e-12 of the first, padded with copies of the first.  (pts, counts)"""
    order = np.argsort(~keep, axis=1, kind="stable")
    pts = np.take_along_axis(cand, order[:, :, None], axis=1)
    n = keep.sum(axis=1)
    j = np.arange(cand.shape[1])
    near = (np.abs(np.diff(pts, axis=1)) <= 1e-12).all(axis=2)
    dup = np.zeros(keep.shape, dtype=bool)
    dup[:, 1:] = near & (j[1:] < n[:, None])
    last = pts[np.arange(len(pts)), np.maximum(n - 1, 0)]
    dup[np.arange(len(pts)), np.maximum(n - 1, 0)] |= (
        (n >= 2) & (np.abs(last - pts[:, 0]) <= 1e-12).all(axis=1))
    if dup.any():
        keep = (j < n[:, None]) & ~dup
        order = np.argsort(~keep, axis=1, kind="stable")
        pts = np.take_along_axis(pts, order[:, :, None], axis=1)
        n = keep.sum(axis=1)
    pad = j >= n[:, None]
    pts[pad] = np.broadcast_to(pts[:, :1], pts.shape)[pad]
    return pts, n


def slice_at(tree: CellTree, s: float) -> Tessellation:
    """Cells alive at time s (born at or before s, not yet divided)."""
    if not (0.0 < s <= tree.current_time):
        raise OutOfRange(f"s must lie in (0, {tree.current_time}]")
    alive = np.flatnonzero((tree.birth <= s) & (tree.forest.death > s))
    cells = [tree.window] if alive[0] == 0 else tree.forest.cells(alive)
    return Tessellation(tree.window, tuple(cells))


def zero_cell(T: Tessellation) -> geo.Polytope:
    """The unique cell containing the origin in its interior."""
    return T.cells[zero_cell_index(T)]


def zero_cell_index(T: Tessellation) -> int:
    for i, c in enumerate(T.cells):
        if geo.origin_strictly_inside(c):
            return i
    raise AmbiguousZeroCell("origin within tolerance of a cell boundary")


def halfspace_representation(tree: CellTree, cell_id: int) -> list[geo.HalfSpace]:
    """Half-spaces whose intersection with the window reproduces the cell.

    Includes the ancestors' splitting hyperplanes and every rejected
    hyperplane recorded along the lineage, each signed toward the cell.
    Only rejection trees record rejected hyperplanes.
    """
    if tree.method != "rejection":
        raise MethodMismatch("half-space representation needs a rejection tree")
    path = [cell_id]
    while path[-1] > 0:
        path.append(int(tree.parent[path[-1]]))
    ref = tree.cell(cell_id).centroid()
    at, normals, offsets = tree.forest.misses()
    u, d = tree.forest.cuts()
    cuts = []
    for i in reversed(path):
        cuts += [(normals[k], offsets[k]) for k in np.flatnonzero(at == i)]
        cuts += [(u[i], d[i])] if i != cell_id else []
    return [_halfspace_toward(geo.Hyperplane(tuple(v), c), ref)
            for v, c in cuts]


def _halfspace_toward(h: geo.Hyperplane, point) -> geo.HalfSpace:
    """The closed side of h containing `point` (not on h)."""
    lower = h.side_of(point) < 0.0
    origin_lower = h.d > 0.0
    return geo.HalfSpace(h, +1 if lower == origin_lower else -1)


def number_cells(T: Tessellation) -> list[int]:
    """Cell indices ordered by centroid distance from the origin.

    The cell containing the origin always comes first; ties break
    lexicographically on centroid coordinates, so the numbering does not
    depend on input order.
    """
    z = zero_cell_index(T)
    rest = [i for i in range(len(T.cells)) if i != z]

    def key(i):
        c = T.cells[i].centroid()
        return (float(c @ c), *map(float, c))

    rest.sort(key=key)
    return [z] + rest


def iterate(T: Tessellation, Rs: list[Tessellation]) -> Tessellation:
    """Nest Rs[k] into the k-th cell of T (in number_cells order)."""
    order = number_cells(T)
    if len(Rs) < len(order):
        raise InsufficientNests(f"need {len(order)} nests, got {len(Rs)}")
    pieces = []
    for k, idx in enumerate(order):
        frame = T.cells[idx]
        R = Rs[k]
        if R.window != T.window:
            raise WindowMismatch("all nested tessellations must share the window")
        for cell in R.cells:
            piece = geo.intersect(frame, cell)
            if piece is not None and piece.area() >= 1e-12:
                pieces.append(piece)
    return Tessellation(T.window, tuple(pieces))


def restrict(T: Tessellation, sub: geo.Polytope) -> Tessellation:
    """The tessellation induced on a sub-window."""
    if not geo.contains(T.window, sub, strict=False):
        raise WindowMismatch("sub-window not contained in the window")
    pieces = []
    for cell in T.cells:
        piece = geo.intersect(cell, sub)
        if piece is not None and piece.area() >= 1e-12:
            pieces.append(piece)
    return Tessellation(sub, tuple(pieces))


def summary_stats(T: Tessellation) -> StatRecord:
    """Cheap discriminating statistics of one tessellation."""
    boundary = (sum(c.surface() for c in T.cells) - T.window.surface()) / 2.0
    return StatRecord(cell_count=len(T.cells), boundary=boundary,
                      zero_cell_area=zero_cell(T).area())


def tiling_defect(T: Tessellation) -> float:
    """Relative difference between the cell-area sum and the window area."""
    total = sum(c.area() for c in T.cells)
    wa = T.window.area()
    return abs(total - wa) / wa


def tree_to_json(tree: CellTree) -> dict:
    """The tree as plain JSON, its nodes in id order and each cut in
    geometry.Hyperplane's canonical form (normal lexicographically
    positive)."""
    from .config import measure_to_json
    f = tree.forest
    u, d = f.cuts()
    flip = ~(u[np.arange(len(u)), (u != 0).argmax(axis=1)] > 0)
    u, d = np.where(flip[:, None], -u, u).tolist(), np.where(flip, -d, d).tolist()
    rejected = np.bincount(f.rejected[0], minlength=len(d)).tolist()
    parent = [None] + tree.parent[1:].tolist()
    nodes = [{"id": i, "parent": parent[i], "birth": b,
              "death": None if x == math.inf else x,
              "hyperplane": None if x == math.inf else {"u": u[i], "d": d[i]},
              "rejected": rejected[i]}
             for i, (b, x) in enumerate(zip(tree.birth.tolist(),
                                            f.death.tolist()))]
    return {
        "kind": "cell_tree",
        "window": geo.polytope_to_json(tree.window),
        "measure": measure_to_json(tree.measure),
        "method": tree.method,
        "current_time": tree.current_time,
        "jump_times": tree.jump_times,
        "nodes": nodes,
    }
