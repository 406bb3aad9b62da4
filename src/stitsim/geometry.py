"""Exact convex geometry kernel: hyperplanes, half-spaces and convex polytopes.

Two regimes are supported.  In the plane, cells are convex polygons and any
even directional distribution is allowed.  In arbitrary dimension, cells are
axis-aligned boxes and only axis-orthogonal hyperplanes may cut them, which
is exact interval arithmetic.

All values are immutable after construction; every operation is a pure
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateCut, NonPositiveScale, RegimeMismatch

# Absolute tolerance for geometric predicates.  It assumes windows with
# sides below 1e3, where double precision leaves ample headroom;
# config.window_from_json enforces this by refusing window coordinates
# outside [-WINDOW_LIMIT, WINDOW_LIMIT].
GEOM_TOL = 1e-9
WINDOW_LIMIT = 500.0
UNIT_TOL = 1e-12


def unit(v) -> np.ndarray:
    """Normalize v to unit Euclidean length."""
    a = np.asarray(v, dtype=float)
    n = math.sqrt(float(a @ a))
    if n == 0.0:
        raise ValueError("zero direction")
    return a / n


def coordinate_axis(u) -> int | None:
    """The index c when u is +e_c or -e_c within UNIT_TOL, else None."""
    nz = [c for c, x in enumerate(u) if abs(x) > UNIT_TOL]
    if len(nz) != 1 or abs(abs(u[nz[0]]) - 1.0) > UNIT_TOL:
        return None
    return nz[0]


def _lex_positive(u: np.ndarray) -> bool:
    for x in u:
        if x > 0.0:
            return True
        if x < 0.0:
            return False
    return False


def canonical_rows(u: np.ndarray, d: np.ndarray):
    """Hyperplanes {x : <x, u[i]> = d[i]} in Hyperplane's canonical form:
    a row whose normal's first non-zero entry is not positive is negated,
    offset too."""
    flip = ~(u[np.arange(len(u)), (u != 0).argmax(axis=1)] > 0)
    return np.where(flip[:, None], -u, u), np.where(flip, -d, d)


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane {x : <x,u> = d} with unit normal u and signed distance d.

    (u, d) and (-u, -d) denote the same hyperplane; the constructor stores
    the representative whose normal is lexicographically positive, which
    makes equality, hashing and serialization unambiguous.
    """

    u: tuple[float, ...]
    d: float

    def __post_init__(self):
        u = tuple(float(x) for x in self.u)
        if abs(sum(x * x for x in u) - 1.0) > 64 * UNIT_TOL:
            u = tuple(unit(u).tolist())
        d = float(self.d)
        if not _lex_positive(u):
            u, d = tuple(-x for x in u), -d
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "d", d)

    @cached_property
    def normal(self) -> np.ndarray:
        return np.asarray(self.u, dtype=float)

    @property
    def dim(self) -> int:
        return len(self.u)

    def side_of(self, x) -> float:
        return float(np.asarray(x, dtype=float) @ self.normal) - self.d


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space bounded by h, with 0 in the interior of the + side."""

    h: Hyperplane
    sign: int  # +1 or -1

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")

    def normal_form(self) -> tuple[np.ndarray, float]:
        """Return (n, c) such that the half-space is {x : <x,n> <= c}.

        Requires d != 0; splitting hyperplanes never pass through the
        origin almost surely.
        """
        u, d = self.h.normal, self.h.d
        origin_low = d > 0.0  # origin satisfies <x,u> <= d
        if (self.sign > 0) == origin_low:
            return u, d
        return -u, -d


@dataclass(frozen=True)
class Polygon2D:
    """Convex polygon with counterclockwise vertices, non-degenerate area."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if len(pts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        area = _signed_area(pts)
        if area < 0.0:
            pts = pts[::-1]
            area = _signed_area(pts)
        turning = 0.0  # 2 pi for a convex polygon, 4 pi for a pentagram
        for (ax, ay), (bx, by), (cx, cy) in zip(pts, pts[1:] + pts[:1],
                                                pts[2:] + pts[:2]):
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if cross < -GEOM_TOL:
                raise ValueError("polygon is not convex")
            turning += math.atan2(cross, (bx - ax) * (cx - bx)
                                  + (by - ay) * (cy - by))
        if turning > 3.0 * math.pi:
            raise ValueError("polygon is not convex: its edges wind more "
                             "than once")
        if area <= 0.0:
            raise ValueError("polygon has zero area")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return 2

    @cached_property
    def verts(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def vertices(self) -> np.ndarray:
        return self.verts

    def area(self) -> float:
        return _signed_area(self.points)

    def volume(self) -> float:
        return self.area()

    def surface(self) -> float:
        """Perimeter."""
        v = self.verts
        return float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum())

    def centroid(self) -> np.ndarray:
        v = self.verts
        w = np.roll(v, -1, axis=0)
        cr = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        a = cr.sum() / 2.0
        cx = ((v[:, 0] + w[:, 0]) * cr).sum() / (6.0 * a)
        cy = ((v[:, 1] + w[:, 1]) * cr).sum() / (6.0 * a)
        return np.array([cx, cy])

    def facets(self) -> list[tuple[np.ndarray, float]]:
        """Outward edge constraints (n, c) with the polygon in {<x,n> <= c}."""
        out = []
        v = self.verts
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            e = b - a
            n = unit(np.array([e[1], -e[0]]))
            out.append((n, float(n @ a)))
        return out

    def diameter(self) -> float:
        v = self.verts
        d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
        return math.sqrt(float(d2.max()))


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box with per-axis intervals [lo_c, hi_c], lo < hi."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lo)
        hi = tuple(float(x) for x in self.hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("lo and hi must have equal positive length")
        if any(l >= h for l, h in zip(lo, hi)):
            raise ValueError("box requires lo < hi on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @cached_property
    def lo_arr(self) -> np.ndarray:
        return np.asarray(self.lo, dtype=float)

    @cached_property
    def hi_arr(self) -> np.ndarray:
        return np.asarray(self.hi, dtype=float)

    def vertices(self) -> np.ndarray:
        ell = self.dim
        out = np.empty((1 << ell, ell))
        for i in range(1 << ell):
            for c in range(ell):
                out[i, c] = self.hi[c] if (i >> c) & 1 else self.lo[c]
        return out

    def volume(self) -> float:
        return float(np.prod(self.hi_arr - self.lo_arr))

    def area(self) -> float:
        return self.volume()

    def surface(self) -> float:
        """Total (dim-1)-volume of the boundary; perimeter when dim == 2."""
        side = [h - l for l, h in zip(self.lo, self.hi)]
        return sum(2.0 * math.prod(side[:c] + side[c + 1:])
                   for c in range(self.dim))

    def centroid(self) -> np.ndarray:
        return (self.lo_arr + self.hi_arr) / 2.0

    def facets(self) -> list[tuple[np.ndarray, float]]:
        out = []
        for c in range(self.dim):
            e = np.zeros(self.dim)
            e[c] = 1.0
            out.append((e.copy(), self.hi[c]))
            out.append((-e, -self.lo[c]))
        return out

    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi_arr - self.lo_arr))

    def to_polygon(self) -> Polygon2D:
        if self.dim != 2:
            raise RegimeMismatch("only 2-D boxes convert to polygons")
        (x0, y0), (x1, y1) = self.lo, self.hi
        return Polygon2D(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))


Polytope = Polygon2D | Box


def _signed_area(pts) -> float:
    a = 0.0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        a += x1 * y2 - x2 * y1
    return a / 2.0


@dataclass(frozen=True)
class Face:
    """A facet of a polytope, kept as its vertex set.

    Faces are lower-dimensional, so they are not Polytopes, but support
    functions and separation predicates still apply to them.
    """

    pts: tuple[tuple[float, ...], ...]

    @cached_property
    def verts(self) -> np.ndarray:
        return np.asarray(self.pts, dtype=float)

    def vertices(self) -> np.ndarray:
        return self.verts

    @property
    def dim(self) -> int:
        return len(self.pts[0])


def facet_body(P: Polytope, a: int) -> Face:
    """Vertex set of facet index a, ordered as facets() lists constraints."""
    if isinstance(P, Box):
        c, upper = a // 2, a % 2 == 0
        val = P.hi[c] if upper else P.lo[c]
        keep = [v for v in P.vertices() if v[c] == val]
        return Face(tuple(tuple(v) for v in keep))
    v = P.verts
    return Face((tuple(v[a]), tuple(v[(a + 1) % len(v)])))


# ---------------------------------------------------------------------------
# support functions and hit / separation predicates

def support_function(P, u) -> float:
    """h_P(u) = max{<x,u> : x in P}."""
    ua = np.asarray(u, dtype=float)
    if isinstance(P, Box):
        return float(np.maximum(ua * P.lo_arr, ua * P.hi_arr).sum())
    return float((P.vertices() @ ua).max())


def support_interval(P, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(-h(-u), h(u)) for every row u of normals, h the support function of P.

    For a box these are the formulas of support_function, with -h(-u)
    computed as a minimum (negation is exact), so they agree with it bit for
    bit.  For a vertex body they come from one matrix product: bit for bit
    along the coordinate axes, and to the last bit of rounding otherwise.
    """
    if isinstance(P, Box):
        a, b = normals * P.lo_arr, normals * P.hi_arr
        return np.minimum(a, b).sum(axis=1), np.maximum(a, b).sum(axis=1)
    proj = normals @ P.vertices().T
    # running min and max over the vertex columns: exact, as .min(axis=1)
    # is, and many times faster than numpy's reduce along a short last axis
    lo, hi = proj[:, 0].copy(), proj[:, 0].copy()
    for col in proj.T[1:]:
        np.minimum(lo, col, out=lo)
        np.maximum(hi, col, out=hi)
    return lo, hi


def width(P, u) -> float:
    """Length of the set of signed distances d with H(u,d) meeting P."""
    ua = np.asarray(u, dtype=float)
    return support_function(P, ua) + support_function(P, -ua)


def hits(H: Hyperplane, P) -> bool:
    u = H.normal
    return -support_function(P, -u) <= H.d <= support_function(P, u)


def separates(H: Hyperplane, A, B) -> bool:
    """True iff A and B lie strictly on opposite open sides of H."""
    u, d = H.normal, H.d
    a_lo, a_hi = -support_function(A, -u), support_function(A, u)
    b_lo, b_hi = -support_function(B, -u), support_function(B, u)
    return (a_hi < d and b_lo > d) or (b_hi < d and a_lo > d)


def contains(P, Q, strict: bool = False, tol: float = GEOM_TOL) -> bool:
    """Whether every vertex of Q satisfies every facet constraint of P."""
    if isinstance(P, Box) and isinstance(Q, Box):
        if strict:
            return all(ql > pl + tol and qh < ph - tol
                       for pl, ph, ql, qh in zip(P.lo, P.hi, Q.lo, Q.hi))
        return all(ql >= pl - tol and qh <= ph + tol
                   for pl, ph, ql, qh in zip(P.lo, P.hi, Q.lo, Q.hi))
    V = Q.vertices()
    for n, c in P.facets():
        s = V @ n
        if strict:
            if (s >= c - tol).any():
                return False
        else:
            if (s > c + tol).any():
                return False
    return True


def origin_strictly_inside(P) -> bool:
    if isinstance(P, Box):
        return all(l < -GEOM_TOL and h > GEOM_TOL for l, h in zip(P.lo, P.hi))
    return all(c > GEOM_TOL for _, c in P.facets())


# ---------------------------------------------------------------------------
# clipping

def clip_tolerant(P, n, c):
    """P intersected with {<x,n> <= c}; None when the interior is empty.

    Robust against constraints through vertices; used for restriction and
    iteration where shared boundaries are the normal case.
    """
    if isinstance(P, Box):
        ax = coordinate_axis(n)
        if ax is not None:
            sign = n[ax]
            lo, hi = list(P.lo), list(P.hi)
            if sign > 0:
                hi[ax] = min(hi[ax], c / sign)
            else:
                lo[ax] = max(lo[ax], c / sign)
            if hi[ax] - lo[ax] <= GEOM_TOL:
                return None
            return Box(tuple(lo), tuple(hi))
        if P.dim != 2:
            raise RegimeMismatch("non-axis cut of a box requires dimension 2")
        P = P.to_polygon()
    V = P.verts[None]
    pts, k, ok = clip_side(V, np.array([len(V[0])]),
                           project(V, np.asarray(n, dtype=float)[None]) - c)
    return Polygon2D(tuple(map(tuple, pts[0, :k[0]]))) if ok[0] else None


def clip(P, hs: HalfSpace):
    """P intersected with the half-space; None when empty.

    Raises DegenerateCut when the bounding hyperplane passes within
    tolerance of a vertex of P, in which case the caller resamples.
    """
    H = hs.h
    s = P.vertices() @ H.normal - H.d
    if (np.abs(s) < GEOM_TOL).any():
        raise DegenerateCut(f"hyperplane within {GEOM_TOL} of a vertex")
    n, c = hs.normal_form()
    return clip_tolerant(P, n, c)


def intersect(P, Q):
    """Convex intersection of two polytopes; None when the interior is empty."""
    if isinstance(P, Box) and isinstance(Q, Box):
        lo = np.maximum(P.lo_arr, Q.lo_arr)
        hi = np.minimum(P.hi_arr, Q.hi_arr)
        if (hi - lo <= GEOM_TOL).any():
            return None
        return Box(tuple(lo), tuple(hi))
    cur = P
    for n, c in Q.facets():
        cur = clip_tolerant(cur, n, c)
        if cur is None:
            return None
    return cur


# ---------------------------------------------------------------------------
# padded polygon arrays: m convex polygons as vertices V (m, K, 2), each
# row's count counterclockwise vertices padded with copies of its first, and
# the counts.  The planar tree and rain kernels and the line drawer read it.

def polygon_vertices(P) -> np.ndarray:
    """Counterclockwise vertices of a polygon or 2-D box."""
    return (P.to_polygon() if isinstance(P, Box) else P).verts


def pad_to(V: np.ndarray, width: int) -> np.ndarray:
    """V (m, K, 2) widened to `width` vertices with copies of vertex 0."""
    extra = width - V.shape[1]
    if extra <= 0:
        return V
    return np.concatenate([V, np.repeat(V[:, :1], extra, axis=1)], axis=1)


def project(V: np.ndarray, u: np.ndarray) -> np.ndarray:
    """<v, u[i]> for every vertex v of cell i: (m, K)."""
    return V[:, :, 0] * u[:, None, 0] + V[:, :, 1] * u[:, None, 1]


def clip_side(V, count, s):
    """Each cell (V, count) clipped to the side {s <= GEOM_TOL} of its line,
    s (m, K) being its vertices' signed distances from the line, by one
    Sutherland-Hodgman pass that drops a point within 1e-12 of the one
    before it (clip_tolerant's polygon case is one row of it).  Returns
    (points (m, 2K, 2), counts, ok); ok is False where the piece has fewer
    than 3 vertices or area at most 1e-12."""
    m, K = V.shape[:2]
    j = np.arange(K)
    valid = j < count[:, None]
    prev = np.where(j == 0, count[:, None] - 1, j - 1)
    ps = np.take_along_axis(s, prev, axis=1)
    pv = np.take_along_axis(V, prev[:, :, None], axis=1)
    inside = s <= GEOM_TOL
    cross = inside != np.take_along_axis(inside, prev, axis=1)
    keep = np.stack([cross & valid, inside & valid], axis=2).reshape(m, 2 * K)
    # an edge parallel to the line gives a non-finite crossing, never kept
    # (and the padding of an emptied row, whose area is then nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = pv + (ps / (ps - s))[:, :, None] * (V - pv)
        cand = np.stack([x, V], axis=2).reshape(m, 2 * K, 2)
        pts, n = _compact(cand, keep)
        w = np.roll(pts, -1, axis=1)
        area = (pts[..., 0] * w[..., 1]
                - w[..., 0] * pts[..., 1]).sum(axis=1) / 2
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


# ---------------------------------------------------------------------------
# cell arrays: m cells of one regime, in the form the tree and rain kernels
# cut them.  A mark (u, d) is the hyperplane {x : <x, u> = d}; u is an axis
# index for box cells and a unit normal for polygon cells.

class BoxCells:
    """m boxes [lo, hi], lo and hi (m, ell), cut by axis marks."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo, self.hi = lo, hi

    @classmethod
    def of(cls, bodies) -> "BoxCells":
        """The bodies' bounding boxes: their exact extents along every axis."""
        lo, hi = np.array([support_interval(b, np.eye(b.dim)) for b in bodies]
                          ).transpose(1, 0, 2)
        return cls(lo, hi)

    @classmethod
    def tile(cls, P: Box, m: int) -> "BoxCells":
        if not isinstance(P, Box):
            raise RegimeMismatch("box cells hold only boxes")
        return cls(np.tile(P.lo_arr, (m, 1)), np.tile(P.hi_arr, (m, 1)))

    @classmethod
    def concat(cls, parts) -> "BoxCells":
        return cls(np.concatenate([p.lo for p in parts]),
                   np.concatenate([p.hi for p in parts]))

    def __len__(self) -> int:
        return len(self.lo)

    def take(self, rows) -> "BoxCells":
        return BoxCells(self.lo[rows], self.hi[rows])

    def polytopes(self, rows) -> list[Box]:
        return [Box(tuple(a), tuple(b)) for a, b in
                zip(self.lo[rows].tolist(), self.hi[rows].tolist())]

    def overlap(self, other: "BoxCells"):
        """(pieces, keep): cell i met with cell i of other, kept where every
        side exceeds GEOM_TOL (as intersect) and the volume is at least
        1e-12."""
        lo, hi = np.maximum(self.lo, other.lo), np.minimum(self.hi, other.hi)
        side = hi - lo
        keep = (side > GEOM_TOL).all(axis=1) & (side.prod(axis=1) >= 1e-12)
        return BoxCells(lo[keep], hi[keep]), keep

    def surfaces(self) -> np.ndarray:
        """Each cell's surface, as Box.surface."""
        side = self.hi - self.lo
        return sum(2.0 * np.prod(np.delete(side, c, axis=1), axis=1)
                   for c in range(side.shape[1]))

    def scale(self, r: float) -> "BoxCells":
        return BoxCells(r * self.lo, r * self.hi)

    def outlines(self) -> tuple[np.ndarray, np.ndarray]:
        """Each 2-D cell's counterclockwise corners, as Box.to_polygon, in
        the padded polygon layout (V, count)."""
        lo, hi = self.lo, self.hi
        V = np.stack([lo, np.stack([hi[:, 0], lo[:, 1]], axis=1), hi,
                      np.stack([lo[:, 0], hi[:, 1]], axis=1)], axis=1)
        return V, np.full(len(self), 4)

    @staticmethod
    def unmarked(m: int) -> np.ndarray:
        """m empty marks, axis -1."""
        return np.full(m, -1)

    def normals(self, u) -> np.ndarray:
        """The unit normals of marks u, the zero vector for an empty one."""
        return (u[:, None] == np.arange(self.lo.shape[1])).astype(float)

    def split(self, u, d):
        """(children, ok): cell i cut by mark i into its two children, side
        by side, minus (the side away from the origin) first; ok is False
        where the mark lies within 1e-9 of a face of the cell or 1e-12 of
        the origin."""
        rows = np.arange(len(d))
        ok = ((d - self.lo[rows, u] > 1e-9) & (self.hi[rows, u] - d > 1e-9)
              & (np.abs(d) > 1e-12))
        lo, hi = np.repeat(self.lo, 2, axis=0), np.repeat(self.hi, 2, axis=0)
        lo[2 * rows + (d <= 0), u] = d
        hi[2 * rows + (d > 0), u] = d
        return BoxCells(lo, hi), ok

    def meets(self, rows, u, d):
        """Whether mark i crosses the open interior of cell rows[i]."""
        return (d > self.lo[rows, u]) & (d < self.hi[rows, u])

    def interval(self, u):
        """(lo, hi) (len(u), m): each cell's closed extent along each mark."""
        return self.lo[:, u].T, self.hi[:, u].T

    def clamp(self, rows, u, d, below):
        """Cut cell rows[i] in place to its side of mark i, the side below
        it where below[i].  Returns ok, always true for boxes."""
        self.hi[rows[below], u[below]] = d[below]
        self.lo[rows[~below], u[~below]] = d[~below]
        return np.ones(len(rows), dtype=bool)

    def side(self, rows, u, d, below):
        """(children, ok): copies of cells rows cut as clamp cuts them."""
        child = self.take(rows)
        return child, child.clamp(np.arange(len(rows)), u, d, below)

    def inside(self, enc: Box, rows=slice(None)):
        """Cells rows strictly inside the box enc, with no tolerance."""
        return ((self.lo[rows] > enc.lo_arr).all(axis=1)
                & (self.hi[rows] < enc.hi_arr).all(axis=1))

    @staticmethod
    def in_band(band, u, d):
        """Which marks lie in the band, an axis band (Band.axis_form)."""
        axis, lo, hi = band.axis_form()
        return (u == axis) & (d > lo) & (d < hi)


class PolygonCells:
    """m convex polygons in the padded layout (V, count), cut by lines."""

    def __init__(self, V: np.ndarray, count: np.ndarray):
        self.V, self.count = V, count

    @classmethod
    def of(cls, bodies) -> "PolygonCells":
        """The bodies' vertices, counterclockwise for a polygon or a box."""
        return cls.concat([cls.tile(b, 1) for b in bodies])

    @classmethod
    def tile(cls, P, m: int) -> "PolygonCells":
        v = polygon_vertices(P)
        return cls(np.repeat(v[None], m, axis=0), np.full(m, len(v)))

    @classmethod
    def concat(cls, parts) -> "PolygonCells":
        """The parts' rows in order, padded to the widest part."""
        width = max(p.V.shape[1] for p in parts)
        return cls(np.concatenate([pad_to(p.V, width) for p in parts]),
                   np.concatenate([p.count for p in parts]))

    def __len__(self) -> int:
        return len(self.count)

    def take(self, rows) -> "PolygonCells":
        """Cells rows, padded to the largest count among them."""
        count = self.count[rows]
        return PolygonCells(self.V[rows, :int(count.max(initial=1))], count)

    def polytopes(self, rows) -> list[Polygon2D]:
        V, count = self.V[rows], self.count[rows]
        x, y = V[np.arange(V.shape[1]) < count[:, None]].T.tolist()
        ends = np.cumsum(count).tolist()
        return [Polygon2D(tuple(zip(x[e - k:e], y[e - k:e])))
                for e, k in zip(ends, count.tolist())]

    def overlap(self, other: "PolygonCells"):
        """(pieces, keep): cell i clipped, as clamp clips it, to the inner
        side of every edge of cell i of other in turn, as intersect clips a
        polygon to another's facets; kept where no clip left a degenerate
        piece (clip_side), which also drops an area below 1e-12."""
        cut = PolygonCells(self.V.copy(), self.count.copy())
        keep = np.ones(len(self), dtype=bool)
        ends = np.roll(other.V, -1, axis=1)
        for k in range(other.V.shape[1]):
            rows = np.flatnonzero(keep & (k < other.count))
            a = other.V[rows, k]
            e = ends[rows, k] - a
            u = np.stack([e[:, 1], -e[:, 0]], axis=1)
            u /= np.sqrt(u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1])[:, None]
            keep[rows] = cut.clamp(rows, u, (u * a).sum(axis=1),
                                   np.ones(len(rows), dtype=bool))
        return cut.take(keep), keep

    def surfaces(self) -> np.ndarray:
        """Each cell's perimeter; the padding adds zero-length edges."""
        e = np.roll(self.V, -1, axis=1) - self.V
        return np.hypot(e[..., 0], e[..., 1]).sum(axis=1)

    def scale(self, r: float) -> "PolygonCells":
        return PolygonCells(r * self.V, self.count)

    def outlines(self) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's counterclockwise vertices, in the padded layout."""
        return self.V, self.count

    @staticmethod
    def unmarked(m: int) -> np.ndarray:
        """m empty marks, the zero normal."""
        return np.zeros((m, 2))

    @staticmethod
    def normals(u) -> np.ndarray:
        return u

    def split(self, u, d):
        """(children, ok): cell i cut by line i into its two children, side
        by side, minus (the side away from the origin) first, by one
        clip_side each and padded to the largest child count; ok is False
        where a vertex lies within GEOM_TOL of the line or a child is
        degenerate (clip_side)."""
        m, K = self.V.shape[:2]
        s = project(self.V, u) - d[:, None]
        ok = ~(np.abs(s) < GEOM_TOL).any(axis=1)
        sign = np.where(d > 0, -1.0, 1.0)[:, None]
        pts, n = np.empty((m, 2, 2 * K, 2)), np.empty((m, 2), dtype=np.int64)
        for side, sg in enumerate((sign, -sign)):
            pts[:, side], n[:, side], side_ok = clip_side(self.V, self.count,
                                                          sg * s)
            ok &= side_ok
        width = int(n.max(initial=1))
        return PolygonCells(pts[:, :, :width].reshape(2 * m, width, 2),
                            n.reshape(2 * m)), ok

    def meets(self, rows, u, d):
        """Whether line i meets cell rows[i]: its offset lies in the cell's
        closed projection interval, as hits decides."""
        proj = project(self.V[rows], u)
        return (proj.min(axis=1) <= d) & (d <= proj.max(axis=1))

    def interval(self, u):
        """(lo, hi) (len(u), m): each cell's closed extent along each line."""
        proj = self.V @ u.T
        return proj.min(axis=1).T, proj.max(axis=1).T

    def clamp(self, rows, u, d, below):
        """Clip cell rows[i] in place to its side of line i, the side below
        it where below[i], as clip_tolerant does.  Returns ok, False where
        the piece is degenerate (clip_side); that cell is left as it was."""
        s = np.where(below, 1.0, -1.0)[:, None] * (
            project(self.V[rows], u) - d[:, None])
        pts, n, ok = clip_side(self.V[rows], self.count[rows], s)
        self.V = pad_to(self.V, int(n.max(initial=0)))
        kept = rows[ok]
        self.V[kept], self.count[kept] = pts[ok, :self.V.shape[1]], n[ok]
        return ok

    def side(self, rows, u, d, below):
        """(children, ok): copies of cells rows cut as clamp cuts them,
        only where ok."""
        child = PolygonCells(self.V[rows], self.count[rows])
        ok = child.clamp(np.arange(len(rows)), u, d, below)
        return PolygonCells(child.V[ok], child.count[ok]), ok

    def inside(self, enc, rows=slice(None)):
        """Whether cells rows lie strictly inside the polytope enc, with
        GEOM_TOL, as contains(enc, cell, strict=True)."""
        normals, offsets = _facet_arrays(enc)
        return (self.V[rows] @ normals < offsets - GEOM_TOL).all(axis=(1, 2))

    @staticmethod
    def in_band(band, u, d):
        """Which lines lie in the band (Band.marks_in)."""
        return band.marks_in(u, d)


@lru_cache(maxsize=64)
def _facet_arrays(P):
    """P.facets() as read-only arrays: normals (dim, f) and offsets (f,)."""
    normals, offsets = zip(*P.facets())
    arrays = np.array(normals).T, np.array(offsets)
    for a in arrays:
        a.flags.writeable = False
    return arrays


# ---------------------------------------------------------------------------
# scaling

def scale(P, r: float):
    if r <= 0:
        raise NonPositiveScale(f"scale factor must be positive, got {r}")
    if isinstance(P, Box):
        return Box(tuple(r * x for x in P.lo), tuple(r * x for x in P.hi))
    return Polygon2D(tuple((r * x, r * y) for x, y in P.points))


# ---------------------------------------------------------------------------
# JSON form

def polytope_to_json(P) -> dict:
    if isinstance(P, Box):
        return {"kind": "box", "lo": list(P.lo), "hi": list(P.hi)}
    return {"kind": "polygon", "vertices": [list(p) for p in P.points]}

