"""Property tests of the geometry kernel: predicates agree with each other,
intersection is symmetric, clipping partitions, only shrinks and clips each
row of a batch as the scalar pass clips it alone, hyperplanes serialize, on
boxes the facet-constraint predicates give the interval formulas, and the
cached corner and facet arrays are the per-facet constraints, read-only,
and give what a loop over the facets gives."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stitsim import geometry as geo
from stitsim.config import dumps_canonical
from stitsim.encapsulation import _facet_toward
from stitsim.errors import DegenerateCut

from oracles import (clip_polygon, contains_by_facet, facet_list,
                     facet_toward_by_facet, origin_strictly_inside_by_facet,
                     polytope_corners)

# derandomized so the suite stays deterministic; no example database on disk
PROPS = settings(max_examples=150, deadline=None, derandomize=True,
                 database=None)

coord = st.floats(-5.0, 5.0, allow_nan=False)
angle = st.floats(0.0, 2.0 * math.pi, allow_nan=False)


@st.composite
def boxes(draw):
    lo = (draw(coord), draw(coord))
    w = (draw(st.floats(0.01, 5.0)), draw(st.floats(0.01, 5.0)))
    return geo.Box(lo, (lo[0] + w[0], lo[1] + w[1]))


@st.composite
def polygons(draw):
    """Regular k-gons of any center, radius and rotation."""
    k = draw(st.integers(3, 8))
    cx, cy, phase = draw(coord), draw(coord), draw(angle)
    r = draw(st.floats(0.05, 4.0))
    return geo.Polygon2D(tuple(
        (cx + r * math.cos(phase + 2 * math.pi * i / k),
         cy + r * math.sin(phase + 2 * math.pi * i / k)) for i in range(k)))


bodies = st.one_of(boxes(), polygons())
# axis normals reach the box branches of clip and intersect
normals_2d = st.one_of(st.sampled_from([(1.0, 0.0), (0.0, 1.0)]),
                       angle.map(lambda a: (math.cos(a), math.sin(a))))


@st.composite
def hyperplanes(draw):
    return geo.Hyperplane(draw(normals_2d), draw(st.floats(-8.0, 8.0)))


@PROPS
@given(hyperplanes(), bodies, bodies)
def test_hits_and_separates_agree(h, a, b):
    def below(P):
        return geo.support_function(P, h.normal) < h.d

    missed = not geo.hits(h, a) and not geo.hits(h, b)
    assert geo.separates(h, a, b) == (missed and below(a) != below(b))
    assert geo.separates(h, a, b) == geo.separates(h, b, a)
    assert not geo.separates(h, a, a)


@PROPS
@given(bodies, bodies)
def test_intersect_is_symmetric(p, q):
    pq, qp = geo.intersect(p, q), geo.intersect(q, p)
    if pq is None or qp is None:
        # only a sliver below the clipping tolerance may vanish on one side
        other = qp if pq is None else pq
        assert other is None or other.volume() < 1e-6
        return
    assert math.isclose(pq.volume(), qp.volume(), rel_tol=1e-9, abs_tol=1e-9)
    assert geo.contains(pq, qp, tol=1e-7) and geo.contains(qp, pq, tol=1e-7)


@PROPS
@given(bodies, hyperplanes())
def test_clipping_partitions_the_area(p, h):
    parts = (geo.clip_tolerant(p, h.normal, h.d),
             geo.clip_tolerant(p, -h.normal, -h.d))
    total = sum(c.volume() for c in parts if c is not None)
    assert math.isclose(total, p.volume(), rel_tol=1e-9, abs_tol=1e-8)


@st.composite
def clip_cases(draw):
    """A body and a line, half of the lines through one of its vertices,
    where the duplicate-point rule acts."""
    p, h = draw(bodies), draw(hyperplanes())
    if draw(st.booleans()):
        v = geo.polygon_vertices(p)
        x = v[draw(st.integers(0, len(v) - 1))]
        h = geo.Hyperplane(h.u, float(x[0] * h.normal[0] + x[1] * h.normal[1]))
    return p, h


@PROPS
@given(st.lists(clip_cases(), min_size=1, max_size=4))
def test_clip_side_rows_match_the_scalar_clip(cases):
    # the tree and rain kernels clip padded batches of cells, clip_tolerant
    # one row; each row gets what a point-by-point pass over its cell gives
    polys = [geo.polygon_vertices(p) for p, _ in cases]
    cells = geo.PolygonCells.of([p for p, _ in cases])
    V, count = cells.V, cells.count
    u = np.array([h.normal for _, h in cases])
    d = np.array([h.d for _, h in cases])
    pts, k, ok = geo.clip_side(V, count, geo.project(V, u) - d[:, None])
    for i, (v, (_, h)) in enumerate(zip(polys, cases)):
        want = clip_polygon(v.tolist(), h.normal, h.d)
        assert ok[i] == (want is not None)
        if want is not None:
            assert pts[i, :k[i]].tolist() == [list(p) for p in want]


@PROPS
@given(bodies, hyperplanes(), st.booleans())
def test_support_interval_shrinks_under_clip(p, h, positive):
    hs = geo.HalfSpace(h, 1 if positive else -1)
    try:
        c = geo.clip(p, hs)
    except DegenerateCut:
        c = None
    assume(c is not None)
    dirs = np.array([[math.cos(a), math.sin(a)]
                     for a in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)]
                    + [h.normal])
    lo_p, hi_p = geo.support_interval(p, dirs)
    lo_c, hi_c = geo.support_interval(c, dirs)
    assert (lo_c >= lo_p - 1e-9).all() and (hi_c <= hi_p + 1e-9).all()
    n, bound = hs.normal_form()
    assert geo.support_function(c, n) <= bound + 1e-9


@PROPS
@given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=3),
       st.floats(-500.0, 500.0))
def test_canonical_hyperplane_round_trips_through_json(u, d):
    assume(math.hypot(*u) > 1e-3)
    h = geo.Hyperplane(tuple(u), d)
    # the cut's JSON form in tree_to_json
    back = json.loads(dumps_canonical({"u": list(h.u), "d": h.d}))
    assert geo.Hyperplane(tuple(back["u"]), back["d"]) == h
    assert geo.Hyperplane(tuple(-x for x in h.u), -h.d) == h


TOL = geo.GEOM_TOL
# offsets that put a face on, or within a few GEOM_TOL of, another face or 0
near = st.sampled_from([-3e-9, -TOL, -5e-10, 0.0, 5e-10, TOL, 3e-9])


@st.composite
def box_pairs(draw):
    """Two boxes of one dimension 1-3; each face of the second is free or
    near a face of the first, and the first's faces are free or near 0."""
    ell = draw(st.integers(1, 3))

    def interval(anchors):
        a, b = sorted(draw(st.one_of(coord, st.sampled_from(anchors).flatmap(
            lambda x: near.map(lambda e: x + e))))
            for _ in range(2))
        return a, (b if b > a else a + 1.0)

    p = [interval([0.0]) for _ in range(ell)]
    q = [interval(list(pc)) for pc in p]
    return (geo.Box(*zip(*p)), geo.Box(*zip(*q)))


# more draws than PROPS: a face pair exactly GEOM_TOL apart is a rare draw
@settings(PROPS, max_examples=400)
@given(box_pairs())
def test_box_predicates_match_the_interval_formulas(pq):
    # contains, intersect and origin_strictly_inside take the facet path on
    # boxes too; negation is exact, so it gives these formulas bit for bit
    for P, Q in (pq, pq[::-1]):
        pairs = list(zip(P.lo, P.hi, Q.lo, Q.hi))
        assert geo.contains(P, Q) == all(
            ql >= pl - TOL and qh <= ph + TOL for pl, ph, ql, qh in pairs)
        assert geo.contains(P, Q, strict=True) == all(
            ql > pl + TOL and qh < ph - TOL for pl, ph, ql, qh in pairs)
        assert geo.origin_strictly_inside(P) == all(
            lo < -TOL and hi > TOL for lo, hi in zip(P.lo, P.hi))
        lo = np.maximum(P.lo_arr, Q.lo_arr)
        hi = np.minimum(P.hi_arr, Q.hi_arr)
        want = None if (hi - lo <= TOL).any() else geo.Box(tuple(lo), tuple(hi))
        assert geo.intersect(P, Q) == want


@PROPS
@given(st.one_of(bodies, box_pairs().map(lambda pq: pq[0])))
def test_cached_corners_and_facets_are_the_facet_constraints(P):
    normals, offsets = P.facets
    want = facet_list(P)
    assert normals.shape == (P.dim, len(want)) and offsets.shape == (len(want),)
    assert P.verts.tolist() == [list(v) for v in polytope_corners(P)]
    for a, (n, c) in enumerate(want):
        # a box's +-e_c, a polygon's unit((e1, -e0)) of edge a, bit for bit
        assert normals[:, a].tobytes() == n.tobytes() and offsets[a] == c
        assert abs(float(n @ n) - 1.0) <= 4e-16
        face = geo.facet_body(P, a)
        assert (np.abs(face.verts @ normals[:, a] - c) <= TOL).all()
    assert (P.verts @ normals <= offsets + TOL).all()
    for a in (P.verts, normals, offsets):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


@PROPS
@given(bodies, bodies, angle)
def test_facet_predicates_match_the_per_facet_loops(p, q, phi):
    cut = geo.intersect(p, q)
    pairs = [(p, q), (q, p), (p, p), (p, geo.facet_body(p, 0))]
    pairs += [(p, cut), (q, cut)] if cut is not None else []
    for A, B in pairs:
        for strict in (False, True):
            assert geo.contains(A, B, strict) == contains_by_facet(A, B, strict)
    assert geo.contains(p, p) and not geo.contains(p, p, strict=True)
    for P in (p, q):
        assert geo.origin_strictly_inside(P) == \
            origin_strictly_inside_by_facet(P)
        u = (math.cos(phi), math.sin(phi))
        assert _facet_toward(P, u) == facet_toward_by_facet(P, u)
        for a, n in enumerate(P.facets[0].T):
            assert _facet_toward(P, n) == facet_toward_by_facet(P, n) == a
