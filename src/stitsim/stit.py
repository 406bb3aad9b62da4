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
2008), so one kernel, ``grow``, grows a batch of trees one generation at a
time over flat arrays, for both geometry regimes.  The regime
(measure.regime) supplies the cells' type and the law's per-cell pieces:
box cells under an axis measure on a box window, where every cell stays a
box, and convex polygons in geometry's padded layout, split by a
vectorised Sutherland-Hodgman pass, for every other planar measure and
window.  A ``CellTree`` is one tree's forest plus parent ids; polytopes
come on demand.

A ``Tessellation`` holds n tessellations of one window as one cell array:
a tree's slice (``slice_at``) or a batch forest's state at its horizon
(``Forest.leaves``).  ``restrict``, ``iterate`` and ``summary_stats`` act
on all n at once, and the experiments run them.

A tree, or a batch of trees, is built from one random stream (see rng).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace

import numpy as np

from . import geometry as geo
from .config import (Encoded, hyperplane_fields, measure_to_json, number_texts,
                     object_pieces, objects_text, row_texts)
from .errors import (DegenerateCut, ExplosionGuard, InsufficientNests,
                     MethodMismatch, OutOfRange, RegimeMismatch,
                     WindowMismatch)
from .measure import DrivingMeasure, Regime, regime

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
    forest: Forest
    parent: np.ndarray
    current_time: float

    @property
    def birth(self) -> np.ndarray:
        return np.concatenate([[0.0], self.forest.death[self.parent[1:]]])

    @property
    def children(self) -> np.ndarray:
        """Each node's minus child, the plus one being next; -1 if live."""
        first = np.full(len(self.parent), -1)
        first[self.parent[1::2]] = np.arange(1, len(self.parent), 2)
        return first

    def cell(self, i: int) -> geo.Polytope:
        """Node i's polytope; the root's is the window itself."""
        return self.window if i == 0 else self.forest.cells.polytopes([i])[0]

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
    """n tessellations of one window as one cell array of the regime's
    type; row i is a cell of tessellation rep[i]."""

    window: geo.Polytope
    rep: np.ndarray
    cells: geo.BoxCells | geo.PolygonCells
    n: int


@dataclass(frozen=True)
class Forest:
    """The nodes of a batch of trees as flat arrays, in generation order.

    The batch's starting cells come first.  Each generation is followed by
    the children of its dying cells, in the cells' order, the two children
    of a cell side by side with minus, the side away from the origin,
    first; a child is born at its parent's death.  So the children of the
    k-th divided node are nodes m + 2k and m + 2k + 1, m the number of
    starting cells.  rep is each node's tree and cells its cell, of the
    regime's cell type.  A divided cell has its cut, the mark (u, d) in the
    cell type's convention (an axis index or a unit normal u); a cell alive
    at the horizon has death inf and an empty mark.  rejected holds the
    rejection method's misses as (node, u, d) in draw order.
    """

    rep: np.ndarray
    cells: geo.BoxCells | geo.PolygonCells
    death: np.ndarray
    u: np.ndarray
    d: np.ndarray
    rejected: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def alive(self) -> np.ndarray:
        return np.isinf(self.death)

    def cuts(self) -> tuple[np.ndarray, np.ndarray]:
        """Each node's cut as (unit normals, offsets), 0 for a live cell."""
        return self.cells.normals(self.u), self.d

    def misses(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        at, u, d = self.rejected
        return at, self.cells.normals(u), d

    def leaves(self, window: geo.Polytope, n: int) -> Tessellation:
        """The batch's n trees at the horizon, as tessellations of the
        window they grew on: its live cells."""
        live = self.alive
        return Tessellation(window, self.rep[live], self.cells.take(live), n)


def simulate(measure: DrivingMeasure, window: geo.Polytope, t: float, rng,
             method: str = "direct") -> CellTree:
    """Run the division process on `window` up to time t."""
    if t <= 0:
        raise ValueError("horizon must be positive")
    if method not in ("direct", "rejection"):
        raise ValueError(f"unknown method {method!r}")
    f = grow(measure, window, regime(measure, window).cells.tile(window, 1),
             np.zeros(1, dtype=np.int64), 0.0, t, rng, method)
    return CellTree(window, measure, method, f, np.concatenate(
        [[-1], np.repeat(np.flatnonzero(~f.alive), 2)]), t)


def advance(tree: CellTree, dt: float, rng) -> CellTree:
    """Continue the division process for a further dt; mutates and returns tree.

    Lifetimes are memoryless, so the live cells' divisions are drawn afresh
    from the current time; the law of the continued process is unchanged.
    The live cells grow as one batch.  The live nodes take their new deaths
    and cuts, and the batch's other nodes, the children, are appended in its
    order with their parent ids, and so are its misses.
    """
    if not dt > 0:  # also catches NaN
        raise ValueError("dt must be positive")
    f = tree.forest
    live = np.flatnonzero(f.alive)
    m, n = len(live), len(f.death)
    new = grow(tree.measure, tree.window, f.cells.take(live),
               np.zeros(m, dtype=np.int64), tree.current_time,
               tree.current_time + dt, rng, tree.method)
    kids = np.arange(m, len(new.death))
    ids = np.concatenate([live, n - m + kids])

    def merged(old, grown):
        out = np.concatenate([old, grown[kids]])
        out[live] = grown[:m]
        return out

    at, *miss = new.rejected
    tree.forest = Forest(
        merged(f.rep, new.rep), f.cells.concat([f.cells, new.cells.take(kids)]),
        merged(f.death, new.death), merged(f.u, new.u), merged(f.d, new.d),
        tuple(map(np.concatenate, zip(f.rejected, (ids[at], *miss)))))
    tree.parent = np.concatenate([tree.parent,
                                  np.repeat(ids[~new.alive], 2)])
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


def _window_rain(rng, law: Regime, cells, t, horizon):
    """The first window-level mark after t[i] that meets cell i by the
    horizon, in the rejection method: marks come at law.rate from law.draw,
    and the cell type's meets tells whether each meets its cell.  Returns
    the meeting marks' times (inf when none) and marks (u, d), empty where
    none, and the misses before them as (cell, u, d) in draw order."""
    m = len(t)
    when, u, d = np.full(m, np.inf), cells.unmarked(m), np.zeros(m)
    idx, t, misses = np.arange(m), t.copy(), []
    while len(idx):
        t[idx] += rng.standard_exponential(len(idx)) / law.rate
        idx = idx[t[idx] <= horizon]
        mu, md = law.draw(rng, (len(idx),))
        hit = cells.meets(idx, mu, md)
        misses.append((idx[~hit], mu[~hit], md[~hit]))
        h = idx[hit]
        when[h], u[h], d[h] = t[h], mu[hit], md[hit]
        idx = idx[~hit]
    return when, u, d, tuple(map(np.concatenate, zip(*misses)))


def grow(measure: DrivingMeasure, window: geo.Polytope, cells, rep,
         t0: float, horizon: float, rng, method: str = "direct") -> Forest:
    """Divide the cells (of the regime's cell type, measure.regime) of the
    trees rep from t0 to the horizon.

    Every live cell of a generation draws its division at once: in
    `direct` a death time Exp(mass(cell)) after its birth and a mark drawn
    from the cell's own law; in `rejection` window-level marks at rate
    mass(window), one per round for each cell no mark has met yet, the
    first that meets the cell dividing it.  A mark is redrawn from the
    cell's own law while the cell type's split finds it degenerate.  Cells
    dying by the horizon split into the next generation.  The running cap
    counts divisions and rejected draws.
    """
    law = regime(measure, window)
    if not law.rate > 0:
        raise ValueError("window has zero hitting mass")
    _check_work(horizon - t0, law.rate)
    birth = np.full(len(cells), float(t0))
    gens, start, events, done = [], 0, 0, 0
    misses = [(np.zeros(0, dtype=np.int64), cells.unmarked(0), np.zeros(0))]
    while len(cells):
        m = len(cells)
        if method == "rejection":
            death, u, d, (at, mu, md) = _window_rain(rng, law, cells, birth,
                                                     horizon)
            misses.append((start + at, mu, md))
            events += len(at)
        else:
            death = birth + rng.standard_exponential(m) / law.masses(cells)
            u, d = cells.unmarked(m), np.zeros(m)
        dies = np.flatnonzero(death <= horizon)
        death[death > horizon] = np.inf
        where = (float(birth.min()), done + m)
        events = _check_events(events + len(dies), *where)
        c_u, c_d = u[dies], d[dies]
        kids = _split(rng, law, cells.take(dies), c_u, c_d,
                      method == "direct", where)
        u[dies], d[dies] = c_u, c_d
        gens.append((rep, cells, death, u, d))
        cells = kids
        rep, birth = np.repeat(rep[dies], 2), np.repeat(death[dies], 2)
        start, done = start + m, done + m - len(dies)
    reps, parts, *cols = zip(*gens)
    return Forest(np.concatenate(reps), law.cells.concat(parts),
                  *map(np.concatenate, cols),
                  tuple(map(np.concatenate, zip(*misses))))


def _split(rng, law: Regime, cells, u, d, draw: bool, where):
    """The children of every cell cut by its mark (u, d), minus before plus
    for each cell.  The marks are drawn from each cell's own law first
    where `draw`, and again while the cell type's split finds them
    degenerate; u and d are updated in place.  where = (t, live) for the
    error."""
    todo, sub, parts = np.arange(len(cells)), cells, []
    for _ in range(_SPLIT_RETRY_CAP):
        if draw and len(todo):
            u[todo], d[todo] = law.mark(rng, sub)
        kids, ok = sub.split(u[todo], d[todo])
        parts.append((todo[ok], kids if ok.all() else
                      kids.take(np.repeat(ok, 2))))
        todo, draw = todo[~ok], True
        if not len(todo):
            break
        sub = cells.take(todo)
    else:
        raise _stuck(*where)
    if len(parts) == 1:
        return parts[0][1]
    order = np.argsort(np.concatenate([rows for rows, _ in parts]))
    return law.cells.concat([k for _, k in parts]).take(
        (2 * order[:, None] + [0, 1]).ravel())


def slice_at(tree: CellTree, s: float) -> Tessellation:
    """Cells alive at time s (born at or before s, not yet divided)."""
    if not (0.0 < s <= tree.current_time):
        raise OutOfRange(f"s must lie in (0, {tree.current_time}]")
    alive = np.flatnonzero((tree.birth <= s) & (tree.forest.death > s))
    return Tessellation(tree.window, np.zeros(len(alive), dtype=np.int64),
                        tree.forest.cells.take(alive), 1)


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


def restrict(T: Tessellation, sub: geo.Polytope) -> Tessellation:
    """The tessellations induced on a sub-window: every cell's piece in it,
    where the piece has an interior (the cell type's overlap).  Raises
    RegimeMismatch when the cell type cannot hold sub."""
    if not geo.contains(T.window, sub, strict=False):
        raise WindowMismatch("sub-window not contained in the window")
    pieces, keep = T.cells.overlap(type(T.cells).tile(sub, len(T.cells)))
    return Tessellation(sub, T.rep[keep], pieces, T.n)


def iterate(T: Tessellation, R: Tessellation) -> Tessellation:
    """Nest tessellation j of R, one per cell of T, into cell j of T: the
    pieces of nest j's cells in frame j, grouped by the frames'
    tessellations."""
    if R.window != T.window:
        raise WindowMismatch("all nested tessellations must share the window")
    if type(R.cells) is not type(T.cells):
        raise RegimeMismatch("nests and frames must share a cell type")
    if R.n != len(T.cells):
        raise InsufficientNests(f"need {len(T.cells)} nests, got {R.n}")
    pieces, keep = R.cells.overlap(T.cells.take(R.rep))
    return Tessellation(T.window, T.rep[R.rep[keep]], pieces, T.n)


def summary_stats(T: Tessellation) -> np.ndarray:
    """(n, 2): each tessellation's cell count and boundary, half the summed
    surface of its cells less the window's."""
    return np.column_stack([
        np.bincount(T.rep, minlength=T.n),
        (np.bincount(T.rep, T.cells.surfaces(), T.n) - T.window.surface())
        / 2.0])


def tree_to_json(tree: CellTree) -> dict:
    """The tree as plain JSON, its nodes in id order and each cut in
    geometry.Hyperplane's canonical form (normal lexicographically
    positive).  The split times and the nodes are config.Encoded arrays,
    written from the forest's columns when the payload is encoded; both
    read one set of death texts, each distinct death formatted once."""
    f, parent = tree.forest, tree.parent
    deaths = cache(lambda: number_texts(f.death))
    jumps = np.flatnonzero(~f.alive)
    jumps = jumps[np.argsort(f.death[jumps], kind="stable")]
    return {
        "kind": "cell_tree",
        "window": geo.polytope_to_json(tree.window),
        "measure": measure_to_json(tree.measure),
        "method": tree.method,
        "current_time": tree.current_time,
        "jump_times": Encoded(
            lambda: "[" + ",".join(deaths()[jumps].tolist()) + "]"),
        "nodes": Encoded(lambda: _nodes_text(f, parent, deaths())),
    }


def _nodes_text(f: Forest, parent: np.ndarray, deaths: np.ndarray) -> str:
    """The nodes' JSON array from the death texts: a node's birth and
    parent are the texts of its parent's death and id."""
    dead = ~f.alive
    death = deaths.copy()
    death[~dead] = "null"
    hyperplane = np.full(len(death), "null", dtype=object)
    u, d = f.cuts()
    hyperplane[dead] = row_texts(object_pieces(
        hyperplane_fields(*geo.canonical_rows(u[dead], d[dead]))))
    ids = number_texts(np.arange(len(death)))
    birth, up = death[parent], ids[parent]
    birth[0], up[0] = "0.0", "null"
    return objects_text({
        "id": ids, "parent": up, "birth": birth, "death": death,
        "hyperplane": hyperplane,
        "rejected": number_texts(np.bincount(f.rejected[0],
                                             minlength=len(death)))})
