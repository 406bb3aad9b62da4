"""Cell-division tessellation process on a window.

A trajectory is a dyadic tree of cells.  Every extant cell lives an
exponential time with parameter equal to the hitting mass of the cell and
is then divided by a hyperplane drawn from the measure restricted to the
hyperplanes meeting it.  Two equivalent constructions are provided:

* ``direct``   - per-cell lifetime Exp(mass(cell)) and a per-cell split draw;
* ``rejection`` - window-level hyperplanes rain on every cell at rate
  mass(window); draws that miss the cell are recorded as rejected and the
  first hit divides the cell.

Each tree is built from one random stream; replicates draw from
independent streams (see rng.stream).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from . import geometry as geo
from .errors import (AmbiguousZeroCell, DegenerateCut, ExplosionGuard,
                     InsufficientNests, MethodMismatch, OutOfRange,
                     WindowMismatch)
from .measure import DrivingMeasure, measure_hitting, sample_hitting

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
    rejected_hyperplanes: list[geo.Hyperplane] = field(default_factory=list)

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

    def node(self, cell_id: int) -> CellNode:
        return self.nodes[cell_id]

    def live_ids(self) -> list[int]:
        return [n.id for n in self.nodes if n.alive]

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
    zeta: float


def simulate(measure: DrivingMeasure, window: geo.Polytope, t: float, rng,
             method: str = "direct") -> CellTree:
    """Run the division process on `window` up to time t."""
    if t <= 0:
        raise ValueError("horizon must be positive")
    if method not in ("direct", "rejection"):
        raise ValueError(f"unknown method {method!r}")
    if measure_hitting(measure, window) <= 0:
        raise ValueError("window has zero hitting mass")
    tree = CellTree(window=window, measure=measure, method=method,
                    nodes=[CellNode(0, window, 0.0)], current_time=0.0,
                    jump_times=[])
    return advance(tree, t, rng)


def advance(tree: CellTree, dt: float, rng) -> CellTree:
    """Continue the division process for a further dt; mutates and returns tree.

    Lifetimes are memoryless, so pending events are redrawn from the
    current time; the law of the continued process is unchanged.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if isinstance(tree.window, geo.Box):
        g = tree.measure.axis_rates(tree.window.dim)
        if g is not None:
            return _advance_axis(tree, dt, rng, tuple(g))
    horizon = tree.current_time + dt
    rejection = tree.method == "rejection"
    window_rate = measure_hitting(tree.measure, tree.window)

    heap: list[tuple[float, int]] = []

    def schedule(cell: CellNode, now: float):
        if rejection:
            nxt = now + rng.exponential(1.0 / window_rate)
        else:
            rate = measure_hitting(tree.measure, cell.polytope)
            nxt = now + rng.exponential(1.0 / rate)
        if nxt <= horizon:
            heapq.heappush(heap, (nxt, cell.id))

    for cid in sorted(tree.live_ids()):
        schedule(tree.nodes[cid], tree.current_time)

    events = 0
    while heap:
        events += 1
        if events > EVENT_CAP:
            raise ExplosionGuard(f"more than {EVENT_CAP} events in one advance")
        when, cid = heapq.heappop(heap)
        cell = tree.nodes[cid]
        if rejection:
            h = sample_hitting(tree.measure, tree.window, rng)
            if not geo.hits(h, cell.polytope):
                cell.rejected_hyperplanes.append(h)
                schedule(cell, when)
                continue
        else:
            h = None  # drawn in _split
        _split(tree, cell, when, rng, h)
        for child_id in cell.children:
            schedule(tree.nodes[child_id], when)

    tree.current_time = horizon
    return tree


def _advance_axis(tree: CellTree, dt: float, rng, g: tuple[float, ...]) -> CellTree:
    """Event loop specialized to axis-orthogonal measures on box windows.

    All cells are boxes and splits are interval clamps; identical in law to
    the generic loop, an order of magnitude faster.
    """
    horizon = tree.current_time + dt
    rejection = tree.method == "rejection"
    ell = tree.window.dim
    w_lo, w_hi = tree.window.lo, tree.window.hi
    window_rate = sum(g[c] * (w_hi[c] - w_lo[c]) for c in range(ell))
    axes_unit = [tuple(1.0 if i == c else 0.0 for i in range(ell))
                 for c in range(ell)]

    def cell_rate(box: geo.Box) -> float:
        return sum(g[c] * (box.hi[c] - box.lo[c]) for c in range(ell))

    heap: list[tuple[float, int]] = []

    def schedule(cell: CellNode, now: float):
        rate = window_rate if rejection else cell_rate(cell.polytope)
        nxt = now + rng.exponential(1.0 / rate)
        if nxt <= horizon:
            heapq.heappush(heap, (nxt, cell.id))

    def draw_window_cut() -> tuple[int, float]:
        r = rng.random() * window_rate
        acc = 0.0
        for c in range(ell - 1):
            acc += g[c] * (w_hi[c] - w_lo[c])
            if r < acc:
                return c, rng.uniform(w_lo[c], w_hi[c])
        return ell - 1, rng.uniform(w_lo[ell - 1], w_hi[ell - 1])

    def split(cell: CellNode, when: float, cut: tuple[int, float] | None):
        lo, hi = cell.polytope.lo, cell.polytope.hi
        rate = cell_rate(cell.polytope)
        for _ in range(_SPLIT_RETRY_CAP):
            if cut is None:
                r = rng.random() * rate
                acc = 0.0
                c = ell - 1
                for i in range(ell - 1):
                    acc += g[i] * (hi[i] - lo[i])
                    if r < acc:
                        c = i
                        break
                d = rng.uniform(lo[c], hi[c])
            else:
                c, d = cut
                cut = None
            if d - lo[c] > 1e-9 and hi[c] - d > 1e-9 and abs(d) > 1e-12:
                break
        else:
            raise DegenerateCut("could not draw a non-degenerate split")
        low = geo.Box(lo, hi[:c] + (d,) + hi[c + 1:])
        high = geo.Box(lo[:c] + (d,) + lo[c + 1:], hi)
        plus, minus = (low, high) if d > 0 else (high, low)
        base = len(tree.nodes)
        cell.death_time = when
        cell.splitting_hyperplane = geo.Hyperplane(axes_unit[c], d)
        cell.children = (base, base + 1)
        tree.nodes.append(CellNode(base, minus, when, parent=cell.id))
        tree.nodes.append(CellNode(base + 1, plus, when, parent=cell.id))
        tree.jump_times.append(when)

    for cid in sorted(tree.live_ids()):
        schedule(tree.nodes[cid], tree.current_time)

    events = 0
    while heap:
        events += 1
        if events > EVENT_CAP:
            raise ExplosionGuard(f"more than {EVENT_CAP} events in one advance")
        when, cid = heapq.heappop(heap)
        cell = tree.nodes[cid]
        if rejection:
            c, d = draw_window_cut()
            box = cell.polytope
            if not (box.lo[c] < d < box.hi[c]):
                cell.rejected_hyperplanes.append(geo.Hyperplane(axes_unit[c], d))
                schedule(cell, when)
                continue
            split(cell, when, (c, d))
        else:
            split(cell, when, None)
        for child_id in cell.children:
            schedule(tree.nodes[child_id], when)

    tree.current_time = horizon
    return tree


def _split(tree: CellTree, cell: CellNode, when: float, rng,
           h: geo.Hyperplane | None) -> None:
    """Divide `cell` at time `when`; resamples degenerate hyperplanes."""
    poly = cell.polytope
    for _ in range(_SPLIT_RETRY_CAP):
        if h is None:
            h = sample_hitting(tree.measure, poly, rng)
        try:
            plus = geo.clip(poly, geo.positive_side(h))
            minus = geo.clip(poly, geo.negative_side(h))
        except DegenerateCut:
            h = None
            continue
        if plus is None or minus is None:
            h = None
            continue
        break
    else:
        raise DegenerateCut("could not draw a non-degenerate split")

    base = len(tree.nodes)
    cell.death_time = when
    cell.splitting_hyperplane = h
    cell.children = (base, base + 1)
    tree.nodes.append(CellNode(base, minus, when, parent=cell.id))
    tree.nodes.append(CellNode(base + 1, plus, when, parent=cell.id))
    tree.jump_times.append(when)


def slice_at(tree: CellTree, s: float) -> Tessellation:
    """Cells alive at time s (born at or before s, not yet divided)."""
    if not (0.0 < s <= tree.current_time):
        raise OutOfRange(f"s must lie in (0, {tree.current_time}]")
    cells = tuple(n.polytope for n in tree.nodes
                  if n.birth_time <= s and (n.death_time is None or n.death_time > s))
    return Tessellation(tree.window, cells)


def zero_cell(T: Tessellation) -> geo.Polytope:
    """The unique cell containing the origin in its interior."""
    for c in T.cells:
        if geo.origin_strictly_inside(c):
            return c
    raise AmbiguousZeroCell("origin within tolerance of a cell boundary")


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
    out: list[geo.HalfSpace] = []
    for i, nid in enumerate(path):
        node = tree.nodes[nid]
        for h in node.rejected_hyperplanes:
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


def summary_stats(T: Tessellation, measure: DrivingMeasure) -> StatRecord:
    """Cheap discriminating statistics of one tessellation."""
    boundary = (sum(c.surface() for c in T.cells) - T.window.surface()) / 2.0
    zeta = sum(measure_hitting(measure, c) for c in T.cells)
    return StatRecord(cell_count=len(T.cells), boundary=boundary,
                      zero_cell_area=zero_cell(T).area(), zeta=zeta)


def scale_tessellation(T: Tessellation, r: float) -> Tessellation:
    return Tessellation(geo.scale(T.window, r),
                        tuple(geo.scale(c, r) for c in T.cells))


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
