"""Cell-division tessellation process on a window.

A trajectory is a dyadic tree of cells.  Every extant cell lives an
exponential time with parameter equal to the hitting mass of the cell and
is then divided by a hyperplane drawn from the measure restricted to the
hyperplanes meeting it.  Two equivalent constructions are provided:

* ``direct``   - per-cell lifetime Exp(mass(cell)) and a per-cell split draw;
* ``rejection`` - window-level hyperplanes rain on every cell at rate
  mass(window); draws that miss the cell are recorded as rejected and the
  first hit divides the cell.

Each geometry regime has one kernel, and ``advance`` picks it.
``grow_boxes`` serves an axis measure on a box window, where every cell
stays a box: it grows a batch of trees one generation at a time over flat
arrays, and the experiments read those arrays directly.  ``_advance_events``
is an event loop over a heap of pending divisions that clips polytopes, for
every other measure and window.

A tree, or a batch of box trees, is built from one random stream (see rng).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .errors import (AmbiguousZeroCell, DegenerateCut, ExplosionGuard,
                     InsufficientNests, MethodMismatch, OutOfRange,
                     WindowMismatch)
from .measure import (DrivingMeasure, box_axis_rates, measure_hitting,
                      sample_hitting)

EVENT_CAP = 10 ** 7
_SPLIT_RETRY_CAP = 100


@dataclass
class CellNode:
    id: int
    polytope: geo.Polytope
    birth_time: float
    death_time: float | None = None
    parent: int | None = None
    children: tuple[int, int] | None = None
    splitting_hyperplane: geo.Hyperplane | None = None
    # a box tree keeps each rejected draw as its (axis, offset) cut
    rejected_hyperplanes: list[geo.Hyperplane | tuple[int, float]] = field(
        default_factory=list)

    @property
    def alive(self) -> bool:
        return self.death_time is None


@dataclass
class CellTree:
    window: geo.Polytope
    measure: DrivingMeasure
    method: str
    nodes: list[CellNode]
    current_time: float
    jump_times: list[float]

    def lineage(self, cell_id: int) -> list[int]:
        """Ids from the root down to cell_id inclusive."""
        path = []
        cur = cell_id
        while cur is not None:
            path.append(cur)
            cur = self.nodes[cur].parent
        return path[::-1]


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
    first; a child is born at its parent's death.  rep is each node's
    tree.  A cell alive at the horizon has death inf and axis -1; a divided
    cell has its cut (axis, cut).  rejected holds the rejection method's
    misses as (node, axis, offset) in draw order.
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


def simulate(measure: DrivingMeasure, window: geo.Polytope, t: float, rng,
             method: str = "direct") -> CellTree:
    """Run the division process on `window` up to time t."""
    if t <= 0:
        raise ValueError("horizon must be positive")
    if method not in ("direct", "rejection"):
        raise ValueError(f"unknown method {method!r}")
    tree = CellTree(window=window, measure=measure, method=method,
                    nodes=[CellNode(0, window, 0.0)], current_time=0.0,
                    jump_times=[])
    return advance(tree, t, rng)


def advance(tree: CellTree, dt: float, rng) -> CellTree:
    """Continue the division process for a further dt; mutates and returns tree.

    Lifetimes are memoryless, so pending events are redrawn from the
    current time; the law of the continued process is unchanged.
    """
    if not dt > 0:  # also catches NaN
        raise ValueError("dt must be positive")
    g = box_axis_rates(tree.measure, tree.window)
    if g is None:
        return _advance_events(tree, dt, rng)
    live = [n for n in tree.nodes if n.alive]
    f = grow_boxes(g, tree.window, np.array([n.polytope.lo for n in live]),
                   np.array([n.polytope.hi for n in live]),
                   np.zeros(len(live), dtype=np.int64), tree.current_time,
                   tree.current_time + dt, rng, tree.method)
    _graft(tree, f, [n.id for n in live])
    tree.current_time += dt
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


def _check_events(events: int) -> int:
    if events > EVENT_CAP:
        raise ExplosionGuard(f"more than {EVENT_CAP} events in one advance")
    return events


def _divide(nodes: list[CellNode], cell: CellNode, when: float,
            h: geo.Hyperplane, minus, plus) -> None:
    """Record the division of `cell` at `when` by h into (minus, plus)."""
    cell.death_time, cell.splitting_hyperplane = when, h
    cell.children = kids = (len(nodes), len(nodes) + 1)
    for kid, poly in zip(kids, (minus, plus)):
        nodes.append(CellNode(kid, poly, when, parent=cell.id))


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
    gens, start, events = [], 0, 0
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
        events = _check_events(events + len(dies))
        c_lo, c_hi = lo[dies], hi[dies]
        ax, d = _box_cuts(rng, g, c_lo, c_hi, axis[dies], cut[dies])
        axis[dies], cut[dies] = ax, d
        gens.append((rep, lo, hi, death, axis, cut))
        pair = 2 * np.arange(len(dies))
        lo, hi = np.repeat(c_lo, 2, axis=0), np.repeat(c_hi, 2, axis=0)
        lo[pair + (d <= 0), ax] = d
        hi[pair + (d > 0), ax] = d
        rep, birth = np.repeat(rep[dies], 2), np.repeat(death[dies], 2)
        start += m
    return BoxForest(*map(np.concatenate, zip(*gens)),
                     rejected=tuple(map(np.concatenate, zip(*misses))))


def _box_cuts(rng, g, lo, hi, ax, d):
    """A cut (ax, d) of every box, drawn from the axis measure restricted to
    the box where ax is -1 and again while it lies within 1e-9 of a face of
    the box or 1e-12 of the origin."""
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
    raise DegenerateCut("could not draw a non-degenerate split")


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


def _graft(tree: CellTree, f: BoxForest, live: list[int]) -> None:
    """Append a forest grown from the tree's live cells `live` (one tree) to
    the tree: its divisions in generation order, then its misses.  Children
    are split off their parent's box, so they share its coordinates."""
    nodes, dim, m = tree.nodes, tree.window.dim, len(live)
    ids = np.concatenate([np.asarray(live, dtype=np.int64),
                          np.arange(len(nodes), len(nodes) + len(f.rep) - m)])
    units = [tuple(float(i == c) for i in range(dim)) for c in range(dim)]
    dead = np.flatnonzero(~f.alive)
    for i, when, c, d in zip(ids[dead].tolist(), f.death[dead].tolist(),
                             f.axis[dead].tolist(), f.cut[dead].tolist()):
        lo, hi = nodes[i].polytope.lo, nodes[i].polytope.hi
        low = geo.Box(lo, hi[:c] + (d,) + hi[c + 1:])
        high = geo.Box(lo[:c] + (d,) + lo[c + 1:], hi)
        _divide(nodes, nodes[i], when, geo.Hyperplane(units[c], d),
                *((high, low) if d > 0 else (low, high)))
    # misses come in draw order, so each node's stay in time order
    at, axes, offsets = f.rejected
    for i, c, d in zip(ids[at].tolist(), axes.tolist(), offsets.tolist()):
        nodes[i].rejected_hyperplanes.append((c, d))
    tree.jump_times.extend(sorted(nodes[i].death_time for i in ids[dead]))


# ---------------------------------------------------------------------------
# generic regime

def _advance_events(tree: CellTree, dt: float, rng) -> CellTree:
    """advance for any measure and window: one heap of pending divisions,
    each cell clipped by hyperplanes drawn from the measure.  The measure
    and geometry functions are looked up at call time, so wrappers
    installed on their modules see every call."""
    measure, window = tree.measure, tree.window
    horizon = tree.current_time + dt
    rejection = tree.method == "rejection"
    window_rate = measure_hitting(measure, window)
    if not window_rate > 0:
        raise ValueError("window has zero hitting mass")
    _check_work(dt, window_rate)
    nodes = tree.nodes
    heap: list[tuple[float, int]] = []

    def schedule(cell: CellNode, now: float):
        r = (window_rate if rejection
             else measure_hitting(measure, cell.polytope))
        nxt = now + rng.exponential(1.0 / r)
        if nxt <= horizon:
            heapq.heappush(heap, (nxt, cell.id))

    for cell in [n for n in nodes if n.alive]:
        schedule(cell, tree.current_time)

    events = 0
    while heap:
        events = _check_events(events + 1)
        when, cid = heapq.heappop(heap)
        cell = nodes[cid]
        poly = cell.polytope
        cut = None
        if rejection:
            cut = sample_hitting(measure, window, rng)
            if not geo.hits(cut, poly):
                cell.rejected_hyperplanes.append(cut)
                schedule(cell, when)
                continue
        for _ in range(_SPLIT_RETRY_CAP):
            if cut is None:
                cut = sample_hitting(measure, poly, rng)
            try:
                plus = geo.clip(poly, geo.positive_side(cut))
                minus = geo.clip(poly, geo.negative_side(cut))
            except DegenerateCut:
                plus = None
            if plus is not None and minus is not None:
                break
            cut = None
        else:
            raise DegenerateCut("could not draw a non-degenerate split")
        _divide(nodes, cell, when, cut, minus, plus)
        tree.jump_times.append(when)
        schedule(nodes[-2], when)
        schedule(nodes[-1], when)

    tree.current_time = horizon
    return tree


def slice_at(tree: CellTree, s: float) -> Tessellation:
    """Cells alive at time s (born at or before s, not yet divided)."""
    if not (0.0 < s <= tree.current_time):
        raise OutOfRange(f"s must lie in (0, {tree.current_time}]")
    cells = tuple(n.polytope for n in tree.nodes
                  if n.birth_time <= s and (n.death_time is None or n.death_time > s))
    return Tessellation(tree.window, cells)


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
    path = tree.lineage(cell_id)
    target = tree.nodes[cell_id]
    ref = target.polytope.centroid()
    dim = tree.window.dim
    out: list[geo.HalfSpace] = []
    for i, nid in enumerate(path):
        node = tree.nodes[nid]
        for h in node.rejected_hyperplanes:
            if not isinstance(h, geo.Hyperplane):  # a box tree's cut
                h = geo.Hyperplane(tuple(float(c == h[0]) for c in range(dim)),
                                   h[1])
            out.append(_halfspace_toward(h, ref))
        if i < len(path) - 1 and node.splitting_hyperplane is not None:
            out.append(_halfspace_toward(node.splitting_hyperplane, ref))
    return out


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
    from .config import measure_to_json
    nodes = []
    for n in tree.nodes:
        nodes.append({
            "id": n.id,
            "parent": n.parent,
            "birth": n.birth_time,
            "death": n.death_time,
            "hyperplane": (geo.hyperplane_to_json(n.splitting_hyperplane)
                           if n.splitting_hyperplane else None),
            "rejected": len(n.rejected_hyperplanes),
        })
    return {
        "kind": "cell_tree",
        "window": geo.polytope_to_json(tree.window),
        "measure": measure_to_json(tree.measure),
        "method": tree.method,
        "current_time": tree.current_time,
        "jump_times": list(tree.jump_times),
        "nodes": nodes,
    }
