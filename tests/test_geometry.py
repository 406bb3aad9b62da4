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
    with pytest.raises(ValueError, match=r"repeats vertex \(2.0, 2.0\)"):
        geo.Polygon2D(((0, 0), (2, 0), (2, 2), (2, 2), (0, 2)))
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


def test_face_and_facet_shapes():
    b = geo.Box((-2, -2, -2), (2, 2, 2))
    f = geo.facet_body(b, 0)  # +x facet
    assert all(v[0] == 2.0 for v in f.verts)
    assert [a.shape for a in b.facets] == [(3, 6), (6,)]
    assert [a.shape for a in triangle().facets] == [(2, 3), (3,)]


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


def test_box_cells_inside_reads_any_enclosure_by_its_facet_normals():
    rng = stream(5, 0)
    # a box enclosure: bit for bit the coordinate test, on a grid where many
    # cell sides equal the enclosure's sides exactly
    for ell in (2, 3):
        enc = geo.Box((-1.0,) * ell, (1.5,) * ell)
        grid = np.arange(-2.0, 2.25, 0.25)
        a, b = rng.choice(grid, (2, 4000, ell))
        a, b = np.minimum(a, b), np.maximum(a, b) + 0.25
        cells = geo.BoxCells(a, b)
        want = (a > enc.lo_arr).all(axis=1) & (b < enc.hi_arr).all(axis=1)
        assert want.any() and not want.all()
        assert cells.inside(enc).tolist() == want.tolist()
        assert cells.inside(enc, [3, 1]).tolist() == want[[3, 1]].tolist()
    # a polygon enclosure: what polygon cells decide, away from GEOM_TOL
    octagon = regular_gon(8, 2.0)
    lo = rng.uniform(-2.0, 1.5, (4000, 2))
    cells = geo.BoxCells(lo, lo + rng.uniform(0.01, 1.5, (4000, 2)))
    normals, offsets = octagon.facets
    V = cells.outlines()[0]
    slack = (offsets - V @ normals).min(axis=(1, 2))
    away = np.abs(slack) > 1e-6
    got = cells.inside(octagon)
    assert got[away].any() and not got[away].all()
    want = geo.PolygonCells(*cells.outlines()).inside(octagon)
    assert got[away].tolist() == want[away].tolist()


# ---------------------------------------------------------------------------
# cell accessors against the 2-D fancy-index forms they replace

def fancy_box_inside(lo, hi, enc, rows):
    normals, offsets = enc.facets
    return (hi[rows] @ np.maximum(normals, 0.0)
            + lo[rows] @ np.minimum(normals, 0.0) < offsets).all(axis=1)


@pytest.mark.parametrize("order", [np.ascontiguousarray, np.asfortranarray])
@pytest.mark.parametrize("ell", [2, 3])
def test_box_cell_accessors_match_fancy_indexing(ell, order):
    # Fortran-ordered lo and hi check that the flat reads and writes go
    # through the arrays, not through a contiguous copy of them
    rng = stream(11, ell)
    m, n = 60, 500
    lo = rng.uniform(-2.0, 1.0, (m, ell))
    hi = lo + rng.uniform(0.1, 2.0, (m, ell))
    cells = geo.BoxCells(order(lo), order(hi))
    rows = rng.integers(0, m, n)  # with repeats
    u = rng.integers(0, ell, n)
    d = rng.uniform(-2.5, 3.0, n)
    d[:50] = lo[rows[:50], u[:50]]  # on a face: not met
    got = cells.meets(rows, u, d)
    assert got.tolist() == ((d > lo[rows, u]) & (d < hi[rows, u])).tolist()
    assert got.any() and not got.all()

    b_lo, b_hi = cells.interval(u)
    assert b_lo.shape == b_hi.shape == (m, n)
    assert np.array_equal(b_lo, lo[:, u]) and np.array_equal(b_hi, hi[:, u])

    r = rng.permutation(m)[:40]  # clamp cuts each row once
    below = rng.random(40) < 0.5
    want_lo, want_hi = lo.copy(), hi.copy()
    want_hi[r[below], u[:40][below]] = d[:40][below]
    want_lo[r[~below], u[:40][~below]] = d[:40][~below]
    child, ok = cells.side(r, u[:40], d[:40], below)
    assert ok.all()
    assert np.array_equal(child.lo, want_lo[r])
    assert np.array_equal(child.hi, want_hi[r])
    assert np.array_equal(cells.lo, lo) and np.array_equal(cells.hi, hi)
    cut = geo.BoxCells(order(lo.copy()), order(hi.copy()))
    assert cut.clamp(r, u[:40], d[:40], below).all()
    assert np.array_equal(cut.lo, want_lo) and np.array_equal(cut.hi, want_hi)

    mask = rng.random(m) < 0.5
    for sel in (rows, mask, np.zeros(0, dtype=int), np.zeros(m, dtype=bool),
                [3, 3, 0]):
        taken = cells.take(sel)
        assert taken.lo.flags.c_contiguous or len(taken) == 0
        assert np.array_equal(taken.lo, lo[sel])
        assert np.array_equal(taken.hi, hi[sel])

    encs = [geo.Box((-1.0,) * ell, (1.5,) * ell)]
    if ell == 2:
        encs.append(regular_gon(8, 2.0))
    for enc in encs:
        want = fancy_box_inside(lo, hi, enc, slice(None))
        assert want.any() and not want.all()
        for sel in (slice(None), slice(5, 40), rows, mask):
            got = cells.inside(enc, sel)
            assert got.tolist() == fancy_box_inside(lo, hi, enc, sel).tolist()


def test_polygon_cell_accessors_match_row_by_row_forms():
    rng = stream(12, 0)
    cells = geo.PolygonCells.concat([
        geo.PolygonCells.tile(random_polygon(rng, int(k)), 1)
        for k in rng.integers(4, 12, 30)])
    V, count = cells.V.copy(), cells.count.copy()
    m, n = len(cells), 300
    rows = rng.integers(0, m, n)
    phi = rng.uniform(0.0, np.pi, n)
    u = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    d = rng.uniform(-2.5, 2.5, n)

    proj = [V[c, :count[c]] @ u.T for c in range(m)]  # (count, n) each
    b_lo, b_hi = cells.interval(u)
    assert b_lo.shape == b_hi.shape == (m, n)
    assert np.allclose(b_lo, [p.min(axis=0) for p in proj], rtol=0, atol=1e-12)
    assert np.allclose(b_hi, [p.max(axis=0) for p in proj], rtol=0, atol=1e-12)
    got = cells.meets(rows, u, d)
    p = geo.project(V[rows], u)
    assert got.tolist() == ((p.min(axis=1) <= d)
                            & (d <= p.max(axis=1))).tolist()
    assert got.any() and not got.all()

    r = rng.permutation(m)[:20]
    below = rng.random(20) < 0.5
    s = np.where(below, 1.0, -1.0)[:, None] * (
        geo.project(V[r], u[:20]) - d[:20, None])
    pts, n_pts, ok = geo.clip_side(V[r], count[r], s)
    assert ok.any() and not ok.all()
    child, child_ok = cells.side(r, u[:20], d[:20], below)
    assert child_ok.tolist() == ok.tolist()
    assert child.count.tolist() == n_pts[ok].tolist()
    assert np.array_equal(child.V, pts[ok, :child.V.shape[1]])
    assert np.array_equal(cells.V, V) and np.array_equal(cells.count, count)
    cut = geo.PolygonCells(V.copy(), count.copy())
    assert cut.clamp(r, u[:20], d[:20], below).tolist() == ok.tolist()
    assert cut.count[r].tolist() == np.where(ok, n_pts, count[r]).tolist()
    width = cut.V.shape[1]
    assert np.array_equal(cut.V[r[ok]], pts[ok, :width])
    assert np.array_equal(cut.V[r[~ok], :V.shape[1]], V[r[~ok]])

    enc = regular_gon(8, 2.0)
    want = np.array([geo.contains(enc, P, strict=True)
                     for P in cells.polytopes(slice(None))])
    assert want.any() and not want.all()
    for sel in (slice(None), slice(5, 20), rows):
        assert cells.inside(enc, sel).tolist() == want[sel].tolist()
