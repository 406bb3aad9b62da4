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
from functools import cached_property

import numpy as np

from .errors import DegenerateCut, NonPositiveScale, RegimeMismatch

# Absolute tolerance for geometric predicates; windows stay below side 1e3
# so double precision leaves ample headroom.
GEOM_TOL = 1e-9
UNIT_TOL = 1e-12


def unit(v) -> np.ndarray:
    """Normalize v to unit Euclidean length."""
    a = np.asarray(v, dtype=float)
    n = math.sqrt(float(a @ a))
    if n == 0.0:
        raise ValueError("zero direction")
    return a / n


def _lex_positive(u: np.ndarray) -> bool:
    for x in u:
        if x > 0.0:
            return True
        if x < 0.0:
            return False
    return False


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
        a = np.asarray(self.u, dtype=float)
        n = float(a @ a)
        if abs(n - 1.0) > 64 * UNIT_TOL:
            a = unit(a)
        d = float(self.d)
        if not _lex_positive(a):
            a, d = -a, -d
        object.__setattr__(self, "u", tuple(float(x) for x in a))
        object.__setattr__(self, "d", d)

    @cached_property
    def normal(self) -> np.ndarray:
        return np.asarray(self.u, dtype=float)

    @property
    def dim(self) -> int:
        return len(self.u)

    def axis(self) -> int | None:
        """Index c if the hyperplane is orthogonal to coordinate axis c."""
        for c, x in enumerate(self.u):
            if abs(abs(x) - 1.0) <= 64 * UNIT_TOL:
                return c
        return None

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

    def contains(self, x, tol: float = GEOM_TOL) -> bool:
        n, c = self.normal_form()
        return float(np.asarray(x, dtype=float) @ n) <= c + tol


def positive_side(h: Hyperplane) -> HalfSpace:
    return HalfSpace(h, +1)


def negative_side(h: Hyperplane) -> HalfSpace:
    return HalfSpace(h, -1)


@dataclass(frozen=True)
class Polygon2D:
    """Convex polygon with counterclockwise vertices, non-degenerate area."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if len(pts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if _signed_area(pts) < 0.0:
            pts = pts[::-1]
        for i in range(len(pts)):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % len(pts)]
            cx, cy = pts[(i + 2) % len(pts)]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if cross < -GEOM_TOL:
                raise ValueError("polygon is not convex")
        if _signed_area(pts) <= 0.0:
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
        side = self.hi_arr - self.lo_arr
        total = 0.0
        for c in range(self.dim):
            total += 2.0 * float(np.prod(np.delete(side, c)))
        return total

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
    n = len(pts)
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
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


def num_facets(P: Polytope) -> int:
    return 2 * P.dim if isinstance(P, Box) else len(P.points)


# ---------------------------------------------------------------------------
# support functions and hit / separation predicates

def support_function(P, u) -> float:
    """h_P(u) = max{<x,u> : x in P}."""
    ua = np.asarray(u, dtype=float)
    if isinstance(P, Box):
        return float(np.maximum(ua * P.lo_arr, ua * P.hi_arr).sum())
    return float((P.vertices() @ ua).max())


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


def origin_strictly_inside(P, tol: float = GEOM_TOL) -> bool:
    if isinstance(P, Box):
        return all(l < -tol and h > tol for l, h in zip(P.lo, P.hi))
    return all(c > tol for _, c in P.facets())


# ---------------------------------------------------------------------------
# clipping

def _clip_polygon_points(pts, n, c, tol=GEOM_TOL):
    """One Sutherland-Hodgman pass of pts against {<x,n> <= c}."""
    out = []
    k = len(pts)
    prev = pts[-1]
    prev_s = prev[0] * n[0] + prev[1] * n[1] - c
    for i in range(k):
        cur = pts[i]
        cur_s = cur[0] * n[0] + cur[1] * n[1] - c
        if cur_s <= tol:
            if prev_s > tol:
                t = prev_s / (prev_s - cur_s)
                out.append((prev[0] + t * (cur[0] - prev[0]),
                            prev[1] + t * (cur[1] - prev[1])))
            out.append(cur)
        elif prev_s <= tol:
            t = prev_s / (prev_s - cur_s)
            out.append((prev[0] + t * (cur[0] - prev[0]),
                        prev[1] + t * (cur[1] - prev[1])))
        prev, prev_s = cur, cur_s
    return _dedupe(out)


def _dedupe(pts):
    out = []
    for p in pts:
        if not out or abs(p[0] - out[-1][0]) > 1e-12 or abs(p[1] - out[-1][1]) > 1e-12:
            out.append(p)
    if len(out) >= 2 and abs(out[0][0] - out[-1][0]) <= 1e-12 and abs(out[0][1] - out[-1][1]) <= 1e-12:
        out.pop()
    return out


def clip_tolerant(P, n, c):
    """P intersected with {<x,n> <= c}; None when the interior is empty.

    Robust against constraints through vertices; used for restriction and
    iteration where shared boundaries are the normal case.
    """
    if isinstance(P, Box):
        ax = _constraint_axis(n)
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
    pts = _clip_polygon_points(list(P.points), n, c)
    if len(pts) < 3 or _signed_area(pts) <= 1e-12:
        return None
    return Polygon2D(tuple(pts))


def _constraint_axis(n) -> int | None:
    nz = [c for c, x in enumerate(n) if abs(x) > UNIT_TOL]
    return nz[0] if len(nz) == 1 else None


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
# rigid motions and scaling

def scale(P, r: float):
    if r <= 0:
        raise NonPositiveScale(f"scale factor must be positive, got {r}")
    if isinstance(P, Box):
        return Box(tuple(r * x for x in P.lo), tuple(r * x for x in P.hi))
    return Polygon2D(tuple((r * x, r * y) for x, y in P.points))


def translate(P, h):
    ha = np.asarray(h, dtype=float)
    if isinstance(P, Box):
        return Box(tuple(P.lo_arr + ha), tuple(P.hi_arr + ha))
    return Polygon2D(tuple((x + ha[0], y + ha[1]) for x, y in P.points))


# ---------------------------------------------------------------------------
# JSON forms

def polytope_to_json(P) -> dict:
    if isinstance(P, Box):
        return {"kind": "box", "lo": list(P.lo), "hi": list(P.hi)}
    return {"kind": "polygon", "vertices": [list(p) for p in P.points]}


def polytope_from_json(d: dict):
    if d["kind"] == "box":
        return Box(tuple(d["lo"]), tuple(d["hi"]))
    if d["kind"] == "polygon":
        return Polygon2D(tuple(tuple(p) for p in d["vertices"]))
    raise ValueError(f"unknown polytope kind {d['kind']!r}")


def hyperplane_to_json(H: Hyperplane) -> dict:
    return {"u": list(H.u), "d": H.d}


def hyperplane_from_json(d: dict) -> Hyperplane:
    return Hyperplane(tuple(d["u"]), d["d"])
