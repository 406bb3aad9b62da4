"""Reference implementations that the tests compare stitsim against.

Each one is the direct, object-level reading of a definition: slow, but
easy to check by eye.  The package's array kernels compute the same
quantities for whole batches, and the tests tie the two together.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from stitsim import geometry as geo
from stitsim.config import measure_to_json
from stitsim.encapsulation import BoundParams, EncapsulationProblem, _facet_toward
from stitsim.errors import GeometryError, InsufficientNests, WindowMismatch
from stitsim.render import SCALE, _bbox, _chords


class AmbiguousZeroCell(GeometryError):
    """The origin lies within tolerance of a cell boundary."""


def encapsulates(cell, inner, outer) -> bool:
    """`cell` contains `inner` and lies strictly inside `outer`."""
    return geo.contains(cell, inner, strict=False) and \
        geo.contains(outer, cell, strict=True)


def encapsulation_time(tree, inner) -> float:
    """First jump time after which the origin cell of the CellTree `tree`
    encapsulates `inner`.

    Walks the origin-cell lineage, re-checking the predicate at every jump,
    and returns math.inf when encapsulation does not occur by the simulated
    horizon.
    """
    outer, kids, birth, i = tree.window, tree.children, tree.birth, 0
    while True:
        cell = tree.cell(i)
        if geo.origin_strictly_inside(cell) and encapsulates(cell, inner, outer):
            return float(birth[i])
        if kids[i] < 0:
            return math.inf
        i = kids[i] + (not geo.origin_strictly_inside(tree.cell(kids[i])))


def sufficient_event_time(params: BoundParams, horizon: float, rng):
    """Sample the sufficient encapsulation event from its exponential clocks.

    sigma' ~ Exp(lambda_inner) is the first hit on the inner window and
    sigma_a ~ Exp(mass_a) the first hyperplane in band a; the bands and the
    inner hitting set are disjoint, so the clocks are independent.  Returns
    (True, M) with M = max_a sigma_a when M <= min(sigma', horizon), else
    (False, None).
    """
    sigma_inner = rng.exponential(1.0 / params.lambda_inner)
    m = max(rng.exponential(1.0 / g) for g in params.band_masses)
    if m <= min(sigma_inner, horizon):
        return True, m
    return False, None


def band_sample(band, rng) -> geo.Hyperplane:
    """A hyperplane of the band: a direction uniform in its arc, an
    oriented distance uniform in (d_lo, d_hi)."""
    ua = np.asarray(band.u, dtype=float)
    if band.half_width > 0.0:
        phi = math.atan2(ua[1], ua[0]) + rng.uniform(-band.half_width,
                                                     band.half_width)
        ua = np.array([math.cos(phi), math.sin(phi)])
    d = rng.uniform(band.d_lo, band.d_hi)
    return geo.Hyperplane(tuple(ua), d)


def validate(problem: EncapsulationProblem, rng) -> None:
    """Check 100 sampled hyperplanes of each band separate the inner window
    from their facet of the outer one."""
    for a, band in enumerate(problem.bands):
        facet = geo.facet_body(problem.outer, _facet_toward(problem.outer, band.u))
        for _ in range(100):
            h = band_sample(band, rng)
            if not geo.separates(h, problem.inner, facet):
                raise ValueError(f"band {a} contains a non-separating hyperplane")


def clip_polygon(pts, n, c):
    """One Sutherland-Hodgman pass of the vertex list pts against
    {<x,n> <= c}, point by point, dropping a point within 1e-12 of the last
    kept one and a last point within 1e-12 of the first; None when fewer
    than 3 points or an area of at most 1e-12 remain."""
    def near(p, q):
        return abs(p[0] - q[0]) <= 1e-12 and abs(p[1] - q[1]) <= 1e-12

    raw = []
    prev = pts[-1]
    prev_s = prev[0] * n[0] + prev[1] * n[1] - c
    for cur in pts:
        cur_s = cur[0] * n[0] + cur[1] * n[1] - c
        if (cur_s <= geo.GEOM_TOL) != (prev_s <= geo.GEOM_TOL):
            t = prev_s / (prev_s - cur_s)
            raw.append((prev[0] + t * (cur[0] - prev[0]),
                        prev[1] + t * (cur[1] - prev[1])))
        if cur_s <= geo.GEOM_TOL:
            raw.append(tuple(cur))
        prev, prev_s = cur, cur_s
    out = []
    for p in raw:
        if not out or not near(p, out[-1]):
            out.append(p)
    if len(out) >= 2 and near(out[0], out[-1]):
        out.pop()
    area = sum(x1 * y2 - x2 * y1
               for (x1, y1), (x2, y2) in zip(out, out[1:] + out[:1])) / 2
    return out if len(out) >= 3 and area > 1e-12 else None


def facet_list(P) -> list:
    """P's outward facet constraints (n, c), P in {<x,n> <= c}, one at a
    time: a box's +e_c, hi_c and -e_c, -lo_c axis by axis, a polygon's
    unit((e1, -e0)) of each edge e from vertex a, with c its product with
    vertex a."""
    if isinstance(P, geo.Box):
        out = []
        for c in range(P.dim):
            e = np.zeros(P.dim)
            e[c] = 1.0
            out += [(e.copy(), P.hi[c]), (-e, -P.lo[c])]
        return out
    out = []
    for a, b in zip(P.points, P.points[1:] + P.points[:1]):
        n = geo.unit((b[1] - a[1], -(b[0] - a[0])))
        out.append((n, float(n @ np.array(a))))
    return out


def contains_by_facet(P, Q, strict=False, tol=geo.GEOM_TOL) -> bool:
    """geometry.contains, testing Q's vertices against one facet of P at a
    time."""
    V = np.array(Q.pts if isinstance(Q, geo.Face) else polytope_corners(Q))
    for n, c in facet_list(P):
        s = V @ n
        if (s >= c - tol).any() if strict else (s > c + tol).any():
            return False
    return True


def origin_strictly_inside_by_facet(P) -> bool:
    return all(c > geo.GEOM_TOL for _, c in facet_list(P))


def facet_toward_by_facet(outer, u) -> int:
    """encapsulation._facet_toward: the first facet of largest <n, u>."""
    ua = np.asarray(u)
    best, best_dot = 0, -2.0
    for a, (n, _c) in enumerate(facet_list(outer)):
        dot = float(n @ ua)
        if dot > best_dot:
            best, best_dot = a, dot
    return best


def polytope_corners(P) -> list:
    """A polygon's vertices; a box's 2**dim corners, corner i taking hi on
    axis c where bit c of i is set."""
    if isinstance(P, geo.Polygon2D):
        return list(P.points)
    return [tuple(P.hi[c] if (i >> c) & 1 else P.lo[c] for c in range(P.dim))
            for i in range(1 << P.dim)]


def tiling_defect(T) -> float:
    """Relative difference between the cell-area sum and the window area."""
    total = sum(c.area() for c in T.cells)
    wa = T.window.area()
    return abs(total - wa) / wa


def translate(P, h):
    """The polytope P shifted by the vector h."""
    ha = np.asarray(h, dtype=float)
    if isinstance(P, geo.Box):
        return geo.Box(tuple(P.lo_arr + ha), tuple(P.hi_arr + ha))
    return geo.Polygon2D(tuple((x + ha[0], y + ha[1]) for x, y in P.points))


# ---------------------------------------------------------------------------
# one tessellation as a tuple of polytopes, and its operations cell by cell;
# stit runs the same operations on cell arrays holding many tessellations

@dataclass(frozen=True)
class Tessellation:
    window: geo.Polytope
    cells: tuple[geo.Polytope, ...]


@dataclass(frozen=True)
class StatRecord:
    cell_count: int
    boundary: float
    zero_cell_area: float


def as_polytopes(T) -> list[Tessellation]:
    """Each of the n tessellations of the stit.Tessellation T, its cells as
    polytopes in row order."""
    return [Tessellation(T.window, tuple(
        T.cells.polytopes(np.flatnonzero(T.rep == i)))) for i in range(T.n)]


def zero_cell(T: Tessellation) -> geo.Polytope:
    """The unique cell containing the origin in its interior."""
    return T.cells[zero_cell_index(T)]


def zero_cell_index(T: Tessellation) -> int:
    for i, c in enumerate(T.cells):
        if geo.origin_strictly_inside(c):
            return i
    raise AmbiguousZeroCell("origin within tolerance of a cell boundary")


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


# ---------------------------------------------------------------------------
# simulate's writers, one dict or one f-string per node, hyperplane and
# point; stitsim writes the same bytes from array columns

def dumps_canonical(obj) -> str:
    """Canonical JSON of a payload of plain values."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def jump_times(tree) -> list[float]:
    """The CellTree's split times in increasing order."""
    return np.sort(tree.forest.death[~tree.forest.alive]).tolist()


def tree_to_json(tree) -> dict:
    """The CellTree as plain JSON, one dict per node."""
    f = tree.forest
    u, d = (a.tolist() for a in geo.canonical_rows(*f.cuts()))
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
        "jump_times": jump_times(tree),
        "nodes": nodes,
    }


def pattern_to_json(pattern) -> dict:
    """The PoissonHyperplanePattern as plain JSON, one dict per row."""
    return {
        "kind": "pht_pattern",
        "window": geo.polytope_to_json(pattern.window),
        "rho": pattern.rho,
        "hyperplanes": [{"u": u, "d": d} for u, d in
                        zip(pattern.normals.tolist(), pattern.offsets.tolist())],
    }


class Canvas:
    def __init__(self, window):
        self.x0, self.y0, self.x1, self.y1 = _bbox(window)
        self.w = (self.x1 - self.x0) * SCALE
        self.h = (self.y1 - self.y0) * SCALE
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w:.0f}" '
            f'height="{self.h:.0f}" viewBox="0 0 {self.w:.2f} {self.h:.2f}">',
            f'<rect width="{self.w:.2f}" height="{self.h:.2f}" fill="white"/>',
        ]

    def pt(self, x, y) -> str:
        return f"{(x - self.x0) * SCALE:.2f} {(self.y1 - y) * SCALE:.2f}"

    def path(self, pts, closed: bool, stroke: str = "black"):
        d = "M" + "L".join(self.pt(x, y) for x, y in pts) + ("Z" if closed else "")
        self.parts.append(
            f'<path d="{d}" fill="none" stroke="{stroke}" stroke-width="1"/>')

    def text(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def outlines(cells) -> list:
    """Each 2-D cell's counterclockwise vertices, a box's as Box.to_polygon."""
    if isinstance(cells, geo.BoxCells):
        (x0, y0), (x1, y1) = cells.lo.T.tolist(), cells.hi.T.tolist()
        return [((a, b), (c, b), (c, d), (a, d))
                for a, b, c, d in zip(x0, y0, x1, y1)]
    return [v[:k] for v, k in zip(cells.V.tolist(), cells.count.tolist())]


def render_tessellation(T) -> str:
    """One stit.Tessellation (T.n == 1) as SVG, point by point."""
    if T.window.dim != 2:
        raise ValueError("SVG rendering is 2-D only")
    cv = Canvas(T.window)
    for pts in outlines(T.cells):
        cv.path(pts, closed=True)
    cv.path(geo.polygon_vertices(T.window).tolist(), closed=True)
    return cv.text()


def render_pattern(pattern) -> str:
    """The pattern's chords as SVG, point by point."""
    if pattern.window.dim != 2:
        raise ValueError("SVG rendering is 2-D only")
    cv = Canvas(pattern.window)
    keep, start, end = _chords(pattern.normals, pattern.offsets, pattern.window)
    for p, q in zip(start[keep].tolist(), end[keep].tolist()):
        cv.path([p, q], closed=False)
    cv.path(geo.polygon_vertices(pattern.window).tolist(), closed=True)
    return cv.text()
