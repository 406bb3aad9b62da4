"""Geometry kernel tests: worked examples plus randomized invariants."""

import json
import math

import numpy as np
import pytest

from stitsim import geometry as geo
from stitsim.config import dumps_canonical, window_from_json
from stitsim.errors import DegenerateCut, NonPositiveScale
from stitsim.rng import stream

from oracles import translate

SQ2 = math.sqrt(2.0) / 2.0


def shoelace(pts):
    a = 0.0
    for i in range(len(pts)):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % len(pts)]
        a += x1 * y2 - x2 * y1
    return abs(a) / 2.0


def unit_box():
    return geo.Box((-1.0, -1.0), (1.0, 1.0))


def triangle():
    return geo.Polygon2D(((0.0, 0.0), (2.0, 0.0), (0.0, 2.0)))


def regular_gon(n=64, r=1.0):
    return geo.Polygon2D(tuple(
        (r * math.cos(2 * math.pi * k / n), r * math.sin(2 * math.pi * k / n))
        for k in range(n)))


def random_polygon(rng, n=9, scale=2.0):
    from scipy.spatial import ConvexHull
    pts = rng.uniform(-scale, scale, (n, 2))
    hull = ConvexHull(pts)
    return geo.Polygon2D(tuple(map(tuple, pts[hull.vertices])))


def pentagram():
    """The five unit-circle points at 90 + 144 k degrees: every turn goes
    left, but the edges wind twice around the centre."""
    return tuple((math.cos(math.radians(90 + 144 * k)),
                  math.sin(math.radians(90 + 144 * k))) for k in range(5))


def test_polygon_rejects_non_convex_vertex_lists():
    with pytest.raises(ValueError, match="not convex"):
        geo.Polygon2D(((0, 0), (2, 0), (1, 0.5), (2, 2), (0, 2)))  # reflex
    with pytest.raises(ValueError, match="wind more than once"):
        geo.Polygon2D(pentagram())
    # either orientation of a convex polygon, many-sided ones included
    assert geo.Polygon2D(triangle().points[::-1]).points == triangle().points
    assert len(regular_gon(64).points) == 64


def test_support_function_examples():
    assert geo.support_function(unit_box(), (1, 0)) == pytest.approx(1.0)
    assert geo.support_function(unit_box(), (SQ2, SQ2)) == pytest.approx(math.sqrt(2))
    assert geo.support_function(triangle(), (0, -1)) == pytest.approx(0.0)


def test_support_interval_matches_support_function():
    # bit for bit for boxes and along the coordinate axes (the rain kernels'
    # case); a vertex body's matrix product may round oblique rows differently
    rng = stream(2, 0)
    for ell in (2, 3):
        normals = np.vstack([np.eye(ell), rng.normal(size=(20, ell))])
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        for _ in range(100):
            lo = rng.uniform(-50, 50, ell)
            bodies = [geo.Box(tuple(lo), tuple(lo + rng.uniform(1e-3, 60, ell)))]
            if ell == 2:
                bodies += [bodies[0].to_polygon(),
                           geo.Face((tuple(rng.uniform(-50, 50, 2)),
                                     tuple(rng.uniform(-50, 50, 2))))]
            for body in bodies:
                got = geo.support_interval(body, normals)
                want = (np.array([-geo.support_function(body, -u) for u in normals]),
                        np.array([geo.support_function(body, u) for u in normals]))
                exact = slice(None) if isinstance(body, geo.Box) else slice(ell)
                for g, w in zip(got, want):
                    assert g[exact].tolist() == w[exact].tolist()
                    np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_width_examples():
    assert geo.width(unit_box(), (0, 1)) == pytest.approx(2.0)
    assert geo.width(geo.Box((0, 0), (2, 1)), (1, 0)) == pytest.approx(2.0)
    # 64-gon approximation of the unit disc: analytic width is 2 everywhere
    gon = regular_gon()
    rng = stream(1, 0)
    for _ in range(50):
        phi = rng.uniform(0, math.pi)
        assert geo.width(gon, (math.cos(phi), math.sin(phi))) == pytest.approx(2.0, abs=3e-3)


def test_clip_box_examples():
    got = geo.clip(unit_box(), geo.HalfSpace(geo.Hyperplane((1.0, 0.0), 0.25), +1))
    assert isinstance(got, geo.Box)
    assert got.hi[0] == pytest.approx(0.25)
    # x <= 0: the boundary passes through the origin, so the signed
    # half-space type does not apply; the tolerant kernel clips it
    half = geo.clip_tolerant(unit_box(), np.array([1.0, 0.0]), 0.0)
    assert half == geo.Box((-1.0, -1.0), (0.0, 1.0))
    # half-space containing the whole box leaves it unchanged
    same = geo.clip(unit_box(), geo.HalfSpace(geo.Hyperplane((1.0, 0.0), 5.0), +1))
    assert same == unit_box()


def test_clip_triangle_area_oracle():
    hs = geo.HalfSpace(geo.Hyperplane((1.0, 0.0), 1.0), +1)
    got = geo.clip(triangle(), hs)
    assert isinstance(got, geo.Polygon2D)
    assert got.area() == pytest.approx(shoelace(got.points))
    assert got.area() == pytest.approx(1.5, abs=1e-12)
    assert len(got.points) == 4


def test_clip_degenerate_cut():
    h = geo.Hyperplane((1.0, 0.0), 1.0)  # passes through two box vertices
    with pytest.raises(DegenerateCut):
        geo.clip(unit_box(), geo.HalfSpace(h, +1))


def test_hits_examples():
    assert geo.hits(geo.Hyperplane((1, 0), 0.5), unit_box())
    assert not geo.hits(geo.Hyperplane((1, 0), 1.5), unit_box())
    assert geo.hits(geo.Hyperplane((SQ2, SQ2), 1.41), unit_box())
    assert not geo.hits(geo.Hyperplane((SQ2, SQ2), 1.42), unit_box())


def test_separates_examples():
    a, b = unit_box(), geo.Box((5, -1), (7, 1))
    assert geo.separates(geo.Hyperplane((1, 0), 3.0), a, b)
    assert not geo.separates(geo.Hyperplane((1, 0), 0.5), a, b)  # cuts a
    assert not geo.separates(geo.Hyperplane((0, 1), 3.0), a, b)  # same side


def test_contains_examples():
    big, small = geo.Box((-2, -2), (2, 2)), unit_box()
    assert geo.contains(big, small, strict=True)
    assert not geo.contains(big, big, strict=True)
    assert geo.contains(big, big, strict=False)
    assert not geo.contains(big, geo.Box((-1, -1), (3, 1)))


def test_scale_translate_examples():
    assert geo.scale(unit_box(), 2.0) == geo.Box((-2, -2), (2, 2))
    assert translate(unit_box(), (5, 0)) == geo.Box((4, -1), (6, 1))
    tri2 = geo.scale(geo.Polygon2D(((0, 0), (1, 0), (0, 1))), 2.0)
    assert tri2.points == ((0, 0), (2, 0), (0, 2))
    with pytest.raises(NonPositiveScale):
        geo.scale(unit_box(), -1.0)


def test_clip_partition_property():
    rng = stream(2, 0)
    for i in range(60):
        P = random_polygon(rng) if i % 2 else geo.Box(
            tuple(rng.uniform(-2, -0.1, 2)), tuple(rng.uniform(0.1, 2, 2)))
        phi = rng.uniform(0, math.pi)
        u = (math.cos(phi), math.sin(phi))
        lo, hi = -geo.support_function(P, (-u[0], -u[1])), geo.support_function(P, u)
        h = geo.Hyperplane(u, rng.uniform(lo + 0.05, hi - 0.05))
        try:
            plus = geo.clip(P, geo.HalfSpace(h, +1))
            minus = geo.clip(P, geo.HalfSpace(h, -1))
        except DegenerateCut:
            continue
        assert plus is not None and minus is not None
        total = plus.area() + minus.area()
        assert abs(total - P.area()) <= 1e-9 * P.area()


def test_hits_iff_both_clips_nonempty():
    rng = stream(3, 0)
    for _ in range(60):
        P = random_polygon(rng)
        phi = rng.uniform(0, math.pi)
        u = (math.cos(phi), math.sin(phi))
        d = rng.uniform(-3, 3)
        h = geo.Hyperplane(u, d)
        try:
            plus = geo.clip(P, geo.HalfSpace(h, +1))
            minus = geo.clip(P, geo.HalfSpace(h, -1))
        except DegenerateCut:
            continue
        both = plus is not None and minus is not None
        assert both == geo.hits(h, P)


def test_separates_implies_not_hits():
    rng = stream(4, 0)
    for _ in range(40):
        a = translate(random_polygon(rng, scale=0.8), rng.uniform(-1, 1, 2))
        b = translate(random_polygon(rng, scale=0.8), rng.uniform(4, 6, 2))
        phi = rng.uniform(0, math.pi)
        h = geo.Hyperplane((math.cos(phi), math.sin(phi)), rng.uniform(-4, 4))
        if geo.separates(h, a, b):
            assert not geo.hits(h, a)
            assert not geo.hits(h, b)


def test_support_scaling_identity():
    rng = stream(5, 0)
    P = random_polygon(rng)
    for _ in range(20):
        phi = rng.uniform(0, 2 * math.pi)
        u = (math.cos(phi), math.sin(phi))
        r = rng.uniform(0.1, 5.0)
        assert geo.support_function(geo.scale(P, r), u) == pytest.approx(
            r * geo.support_function(P, u))


def test_contains_partial_order():
    rng = stream(6, 0)
    for _ in range(25):
        raw = random_polygon(rng, scale=3.0)
        P = translate(raw, -raw.centroid())  # origin inside: scaling nests
        Q = geo.scale(P, 0.7)
        R = geo.scale(P, 0.4)
        assert geo.contains(P, P)
        assert geo.contains(P, Q) and geo.contains(Q, R)
        assert geo.contains(P, R)  # transitivity
        assert not geo.contains(Q, P)  # antisymmetry


def test_canonical_hyperplane_representative():
    h1 = geo.Hyperplane((-1.0, 0.0), -2.0)
    h2 = geo.Hyperplane((1.0, 0.0), 2.0)
    assert h1 == h2
    assert hash(h1) == hash(h2)
    assert h1.u[0] > 0
    h3 = geo.Hyperplane((0.0, -1.0), 0.5)
    assert h3.u == (0.0, 1.0) and h3.d == -0.5


def test_json_round_trips():
    for P in (unit_box(), triangle()):
        text = dumps_canonical(geo.polytope_to_json(P))
        assert window_from_json(json.loads(text)) == P
    # a cut as tree_to_json writes it
    h = geo.Hyperplane((SQ2, SQ2), 1.23456789012345678)
    back = json.loads(dumps_canonical({"u": list(h.u), "d": h.d}))
    assert geo.Hyperplane(tuple(back["u"]), back["d"]) == h


def test_face_and_facets():
    b = geo.Box((-2, -2, -2), (2, 2, 2))
    f = geo.facet_body(b, 0)  # +x facet
    assert all(v[0] == 2.0 for v in f.vertices())
    assert len(b.facets()) == 6
    assert len(triangle().facets()) == 3


def test_box_higher_dimensions():
    b = geo.Box((0, 0, 0), (1, 2, 3))
    assert b.volume() == pytest.approx(6.0)
    assert b.surface() == pytest.approx(2 * (2 * 3 + 1 * 3 + 1 * 2))
    assert geo.width(b, (0, 0, 1)) == pytest.approx(3.0)


def numpy_box_surface(b):
    """The earlier numpy formula for Box.surface, kept as the reference."""
    side = b.hi_arr - b.lo_arr
    total = 0.0
    for c in range(b.dim):
        total += 2.0 * float(np.prod(np.delete(side, c)))
    return total


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_box_surface_matches_numpy_formula(dim):
    rng = stream(31, dim)
    for _ in range(500):
        lo = rng.uniform(-5.0, 5.0, dim)
        hi = lo + rng.uniform(1e-6, 10.0, dim)
        b = geo.Box(tuple(lo), tuple(hi))
        assert b.surface() == numpy_box_surface(b)
    assert geo.Box((0.0,) * dim, (1.0,) * dim).surface() == 2.0 * dim


def test_polygon_cells_of_lays_a_box_out_counterclockwise():
    # the line drawer and surfaces read each row's edges in cyclic order,
    # so a box body is laid out as its tile, not as its corners in bit order
    box = geo.Box((-1.0, -1.0), (1.0, 1.0))
    of, tile = geo.PolygonCells.of([box]), geo.PolygonCells.tile(box, 1)
    assert np.array_equal(of.V, tile.V)
    assert of.surfaces().tolist() == tile.surfaces().tolist() == [8.0]
    assert all(np.array_equal(a, b) for a, b in zip(of.outlines(),
                                                    tile.outlines()))
    tri = geo.Polygon2D(((0.0, 0.0), (3.0, 0.0), (0.0, 4.0)))
    assert geo.PolygonCells.of([tri, box]).surfaces().tolist() == [12.0, 8.0]
