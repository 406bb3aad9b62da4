"""Cell-division tessellation process on a window.

A trajectory is a dyadic tree of cells.  Every extant cell lives an
exponential time with parameter equal to the hitting mass of the cell and
is then divided by a hyperplane drawn from the measure restricted to the
hyperplanes meeting it.  Two equivalent constructions are provided:

* ``direct``   - per-cell lifetime Exp(mass(cell)) and a per-cell split draw;
* ``rejection`` - window-level hyperplanes rain on every cell at rate
  mass(window); draws that miss the cell are recorded as rejected and the
  first hit divides the cell.

Both run in one event loop, ``advance``.  The geometry enters only through
a cut rule (rate, draw, hit test, split, hyperplane): ``_AxisCuts`` clamps
box intervals when the measure lives on the coordinate axes and the window
is a box, and ``_GenericCuts`` clips polytopes otherwise.

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
    rule = _cut_rule(tree)
    rate, draw, hits, split, hyperplane = (
        rule.rate, rule.draw, rule.hits, rule.split, rule.hyperplane)
    horizon = tree.current_time + dt
    rejection = tree.method == "rejection"
    window = tree.window
    window_rate = rate(window)
    if not window_rate > 0:
        raise ValueError("window has zero hitting mass")
    # Live rates sum to at least mass(window) in `direct`, and every live
    # cell draws at mass(window) in `rejection`: dt * mass(window) is a
    # lower bound on the expected number of events.
    if dt * window_rate > EVENT_CAP:
        raise ExplosionGuard(
            f"STIT advance by dt={dt:g} on a window of hitting mass "
            f"{window_rate:g} expects at least {dt * window_rate:g} events, "
            f"over the cap of {EVENT_CAP}")
    nodes = tree.nodes
    heap: list[tuple[float, int]] = []

    def schedule(cell: CellNode, now: float):
        r = window_rate if rejection else rate(cell.polytope)
        nxt = now + rng.exponential(1.0 / r)
        if nxt <= horizon:
            heapq.heappush(heap, (nxt, cell.id))

    for cid in sorted(tree.live_ids()):
        schedule(nodes[cid], tree.current_time)

    events = 0
    while heap:
        events += 1
        if events > EVENT_CAP:
            raise ExplosionGuard(f"more than {EVENT_CAP} events in one advance")
        when, cid = heapq.heappop(heap)
        cell = nodes[cid]
        poly = cell.polytope
        cut = None
        if rejection:
            cut = draw(window, rng)
            if not hits(cut, poly):
                cell.rejected_hyperplanes.append(hyperplane(cut))
                schedule(cell, when)
                continue
        for _ in range(_SPLIT_RETRY_CAP):
            if cut is None:
                cut = draw(poly, rng)
            children = split(poly, cut)
            if children is not None:
                break
            cut = None
        else:
            raise DegenerateCut("could not draw a non-degenerate split")
        minus, plus = children
        base = len(nodes)
        cell.death_time = when
        cell.splitting_hyperplane = hyperplane(cut)
        cell.children = (base, base + 1)
        nodes.append(CellNode(base, minus, when, parent=cid))
        nodes.append(CellNode(base + 1, plus, when, parent=cid))
        tree.jump_times.append(when)
        schedule(nodes[base], when)
        schedule(nodes[base + 1], when)

    tree.current_time = horizon
    return tree


def _cut_rule(tree: CellTree):
    """The box rule for an axis measure on a box window, else the generic one."""
    g = box_axis_rates(tree.measure, tree.window)
    if g is not None:
        return _AxisCuts(tuple(float(x) for x in g), tree.window)
    return _GenericCuts(tree.measure)


class _AxisCuts:
    """Cuts of boxes by an axis-orthogonal measure with per-axis rates g.

    A cut is (axis, offset); every cell is a box and a split is an interval
    clamp.  Identical in law to the generic rule, and about four times
    cheaper per split.  The window's rate is kept for the rejection
    method's window draws.
    """

    def __init__(self, g: tuple[float, ...], window: geo.Box):
        self.g = g
        self.window = window
        self.window_rate = self.rate(window)
        ell = len(g)
        self.units = [tuple(1.0 if i == c else 0.0 for i in range(ell))
                      for c in range(ell)]

    def rate(self, box: geo.Box) -> float:
        g, lo, hi = self.g, box.lo, box.hi
        return sum(g[c] * (hi[c] - lo[c]) for c in range(len(g)))

    def draw(self, box: geo.Box, rng) -> tuple[int, float]:
        g, lo, hi = self.g, box.lo, box.hi
        total = self.window_rate if box is self.window else self.rate(box)
        r = rng.random() * total
        acc = 0.0
        c = len(g) - 1
        for i in range(c):
            acc += g[i] * (hi[i] - lo[i])
            if r < acc:
                c = i
                break
        return c, rng.uniform(lo[c], hi[c])

    @staticmethod
    def hits(cut: tuple[int, float], box: geo.Box) -> bool:
        c, d = cut
        return box.lo[c] < d < box.hi[c]

    @staticmethod
    def split(box: geo.Box, cut: tuple[int, float]):
        c, d = cut
        lo, hi = box.lo, box.hi
        if not (d - lo[c] > 1e-9 and hi[c] - d > 1e-9 and abs(d) > 1e-12):
            return None
        low = geo.Box(lo, hi[:c] + (d,) + hi[c + 1:])
        high = geo.Box(lo[:c] + (d,) + lo[c + 1:], hi)
        # minus is the side away from the origin, as for geo.negative_side
        return (high, low) if d > 0 else (low, high)

    def hyperplane(self, cut: tuple[int, float]) -> geo.Hyperplane:
        c, d = cut
        return geo.Hyperplane(self.units[c], d)


class _GenericCuts:
    """Cuts of any polytope by hyperplanes drawn from the measure.

    A cut is a Hyperplane.  The measure and geometry functions are looked
    up at call time, so wrappers installed on their modules see every call.
    """

    def __init__(self, measure: DrivingMeasure):
        self.measure = measure

    def rate(self, poly: geo.Polytope) -> float:
        return measure_hitting(self.measure, poly)

    def draw(self, poly: geo.Polytope, rng) -> geo.Hyperplane:
        return sample_hitting(self.measure, poly, rng)

    @staticmethod
    def hits(h: geo.Hyperplane, poly: geo.Polytope) -> bool:
        return geo.hits(h, poly)

    @staticmethod
    def split(poly: geo.Polytope, h: geo.Hyperplane):
        try:
            plus = geo.clip(poly, geo.positive_side(h))
            minus = geo.clip(poly, geo.negative_side(h))
        except DegenerateCut:
            return None
        if plus is None or minus is None:
            return None
        return minus, plus

    @staticmethod
    def hyperplane(h: geo.Hyperplane) -> geo.Hyperplane:
        return h


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


def summary_stats(T: Tessellation) -> StatRecord:
    """Cheap discriminating statistics of one tessellation."""
    boundary = (sum(c.surface() for c in T.cells) - T.window.surface()) / 2.0
    return StatRecord(cell_count=len(T.cells), boundary=boundary,
                      zero_cell_area=zero_cell(T).area())


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
