"""Driving measure tests: hitting/separating masses and the hitting sampler."""

import math

import numpy as np
import pytest
import scipy.stats

from stitsim import geometry as geo
from stitsim import measure as ms
from stitsim.encapsulation import BoundParams, lower_bound
from stitsim.errors import (NonPositiveScale, RegimeMismatch, SamplerStall,
                            UnsupportedSupport)
from stitsim.rng import stream

from oracles import translate


def unit_box():
    return geo.Box((-1.0, -1.0), (1.0, 1.0))


def disc64():
    return geo.Polygon2D(tuple(
        (math.cos(2 * math.pi * k / 64), math.sin(2 * math.pi * k / 64))
        for k in range(64)))


def test_hitting_axis_box():
    lam = ms.axis_measure([1.0, 1.0])
    assert ms.measure_hitting(lam, unit_box()) == pytest.approx(4.0)


def test_hitting_linearity_in_edge_length():
    g = [0.7, 1.3, 2.1]
    alpha = 1.7
    lam = ms.axis_measure(g)
    box = geo.Box((-alpha,) * 3, (alpha,) * 3)
    assert ms.measure_hitting(lam, box) == pytest.approx(2 * alpha * sum(g))


def test_hitting_isotropic_disc():
    # analytic width of the unit disc is 2 in every direction
    lam = ms.isotropic_measure(1.0)
    assert ms.measure_hitting(lam, disc64()) == pytest.approx(2.0, abs=5e-3)


def test_separating_masses():
    lam = ms.axis_measure([1.0, 1.0])
    a = unit_box()
    # projection gap between [-1,1] and [5,7] is 4
    assert ms.measure_separating(lam, a, geo.Box((5, -1), (7, 1))) == pytest.approx(4.0)
    assert ms.measure_separating(lam, a, geo.Box((-1, 5), (1, 7))) == pytest.approx(4.0)
    # the stated arithmetic "5 - 2 = 3" needs a body reaching x = 2
    b = geo.Box((0, 0), (2, 1))
    assert ms.measure_separating(lam, b, geo.Box((5, 0), (7, 1))) == pytest.approx(3.0)
    # overlapping projections in every support direction
    assert ms.measure_separating(lam, a, geo.Box((0, 0), (2, 2))) == 0.0


def facet_separating(lam, inner, outer, a):
    """Mass of hyperplanes separating `inner` from facet a of `outer`."""
    return ms.measure_separating(lam, inner, geo.facet_body(outer, a))


def test_facet_separating_masses():
    lam = ms.axis_measure([1.0, 1.0])
    outer = geo.Box((-2, -2), (2, 2))
    # g_c (beta - alpha) with alpha=1, beta=2
    assert facet_separating(lam, unit_box(), outer, 0) == pytest.approx(1.0)
    lam31 = ms.axis_measure([3.0, 1.0])
    assert facet_separating(lam31, unit_box(), outer, 2) == pytest.approx(1.0)
    # all four facet masses for the symmetric case
    masses = [facet_separating(lam, unit_box(), outer, a) for a in range(4)]
    assert masses == pytest.approx([1.0, 1.0, 1.0, 1.0])


def test_scale_measure_check():
    lam = ms.axis_measure([1.0, 1.0])
    outer = geo.Box((-2, -2), (2, 2))

    def scaled(r):
        """Separating mass toward facet 0 of the window scaled by r."""
        return facet_separating(lam, unit_box(), geo.scale(outer, r), 0)

    # g_c (r beta - alpha) = 1 * (6 - 1) = 5
    assert scaled(3.0) == pytest.approx(5.0)
    assert scaled(1.0) == pytest.approx(
        facet_separating(lam, unit_box(), outer, 0))
    v1 = scaled(2.0)
    v2 = scaled(4.0)
    assert v2 > v1


def test_sample_hitting_direction_frequencies():
    # widths (2, 1) with equal weights: direction probabilities (2/3, 1/3)
    lam = ms.axis_measure([1.0, 1.0])
    box = geo.Box((0.0, 0.0), (2.0, 1.0))
    rng = stream(10, 0)
    n = 20_000
    vertical = sum(ms.sample_hitting(lam, box, rng).u[0] == 1.0 for _ in range(n))
    sigma = math.sqrt((2 / 3) * (1 / 3) / n)
    assert abs(vertical / n - 2 / 3) <= 4 * sigma


def test_box_drawer_law():
    # weighted 3-D axis measure: axis c with probability g_c side_c / rate,
    # then an offset uniform on the window's side along it
    g = np.array([0.6, 0.6, 0.8])
    box = geo.Box((-1.0, -2.0, -0.5), (1.0, 2.0, 1.5))
    table = ms.box_table(ms.axis_measure(g), box)
    side = box.hi_arr - box.lo_arr
    assert table[0] == pytest.approx(g @ side)
    rng = stream(14, 0)
    n = 30_000
    axis, d = ms.draw_box_marks(table, rng.random(n), rng.random(n))
    for c, p in enumerate(g * side / (g @ side)):
        assert abs((axis == c).mean() - p) <= 4 * math.sqrt(p * (1 - p) / n)
        stat = scipy.stats.kstest(
            d[axis == c], scipy.stats.uniform(loc=box.lo[c], scale=side[c]).cdf)
        assert stat.pvalue > 0.005


@pytest.mark.parametrize("shape", [(997,), (251, 4)])  # 4: rain's chunk
def test_box_mark_axes_match_a_clamped_left_searchsorted(shape):
    # three axes at unequal rates, on a window whose cum[-1] rounds below 1,
    # with uniforms on every cum entry, at and above cum[-1] and near 1
    rng = stream(31, 0)
    for _ in range(200):
        g = rng.uniform(0.1, 2.0, 3)
        lo = rng.uniform(-2.0, 0.0, 3)
        box = geo.Box(tuple(lo), tuple(lo + rng.uniform(0.1, 3.0, 3)))
        table = ms.box_table(ms.axis_measure(g), box)
        if table[1][-1] < 1.0:
            break
    _, cum, lo, side = table
    assert cum[-1] < 1.0 and len(np.unique(g)) == 3
    edges = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0),
                            [0.0, np.nextafter(1.0, 0.0)]])
    u = rng.random(math.prod(shape))
    u[:len(edges)] = edges
    u = u.reshape(shape)
    v = rng.random(shape)
    want = np.minimum(np.searchsorted(cum, u), len(cum) - 1)
    assert set(want.ravel().tolist()) == {0, 1, 2}
    assert (u >= cum[-1]).sum() >= 2 and np.isin(cum, u).all()
    axis, d = ms.draw_box_marks(table, u, v)
    assert axis.dtype == np.intp and axis.shape == shape
    assert np.array_equal(axis, want)
    assert np.array_equal(d, lo[want] + v * side[want])


def test_sample_hitting_postcondition():
    lam = ms.axis_measure([2.0, 1.0])
    iso = ms.isotropic_measure(0.7)
    poly = disc64()
    box = geo.Box((0.5, -2.0), (4.0, 1.0))
    rng = stream(11, 0)
    for _ in range(500):
        assert geo.hits(ms.sample_hitting(lam, box, rng), box)
        assert geo.hits(ms.sample_hitting(iso, poly, rng), poly)


def test_sample_hitting_isotropic_distance_uniform():
    # for the disc every direction has support interval [-1, 1]
    iso = ms.isotropic_measure(1.0)
    poly = disc64()
    rng = stream(12, 0)
    ds = [ms.sample_hitting(iso, poly, rng).d for _ in range(4000)]
    stat = scipy.stats.kstest(ds, scipy.stats.uniform(loc=-1, scale=2).cdf)
    assert stat.pvalue > 0.01


def test_hitting_monotone_and_scaling():
    rng = stream(13, 0)
    lam = ms.axis_measure([1.0, 2.0])
    iso = ms.isotropic_measure(1.0)
    for _ in range(20):
        lo = rng.uniform(-2, -0.2, 2)
        hi = rng.uniform(0.2, 2, 2)
        p = geo.Box(tuple(lo), tuple(hi))
        q = geo.Box(tuple(lo - 0.5), tuple(hi + 0.5))
        assert ms.measure_hitting(lam, p) <= ms.measure_hitting(lam, q)
        r = rng.uniform(0.2, 4.0)
        assert ms.measure_hitting(lam, geo.scale(p, r)) == pytest.approx(
            r * ms.measure_hitting(lam, p), rel=1e-9)
        assert ms.measure_hitting(iso, geo.scale(p, r)) == pytest.approx(
            r * ms.measure_hitting(iso, p), rel=1e-9)


def test_hitting_translation_invariance():
    lam = ms.axis_measure([1.0, 2.0])
    iso = ms.isotropic_measure(1.0)
    p = geo.Box((-1, -0.5), (0.5, 1))
    for h in ((3.0, -2.0), (-7.5, 0.25)):
        assert ms.measure_hitting(lam, translate(p, h)) == \
            ms.measure_hitting(lam, p)
        assert ms.measure_hitting(iso, translate(p, h)) == pytest.approx(
            ms.measure_hitting(iso, p), abs=1e-6)


def test_subadditivity_under_split():
    rng = stream(14, 0)
    lam = ms.axis_measure([1.0, 1.0])
    iso = ms.isotropic_measure(1.0)
    from stitsim.errors import DegenerateCut
    for _ in range(30):
        p = geo.Box(tuple(rng.uniform(-2, -0.2, 2)), tuple(rng.uniform(0.2, 2, 2)))
        phi = rng.uniform(0, math.pi)
        u = (math.cos(phi), math.sin(phi))
        lo, hi = -geo.support_function(p, (-u[0], -u[1])), geo.support_function(p, u)
        h = geo.Hyperplane(u, rng.uniform(lo + 0.05, hi - 0.05))
        try:
            a = geo.clip(p, geo.HalfSpace(h, +1))
            b = geo.clip(p, geo.HalfSpace(h, -1))
        except DegenerateCut:
            continue
        for m in (lam, iso):
            assert ms.measure_hitting(m, a) + ms.measure_hitting(m, b) >= \
                ms.measure_hitting(m, p) - 1e-9


def test_sampler_stall_says_where_it_stopped(monkeypatch):
    monkeypatch.setattr(ms, "_SAMPLER_CAP", 0)
    iso, square = ms.isotropic_measure(1.0), geo.Box((-1, -1), (1, 1))
    with pytest.raises(SamplerStall, match=r"stopped with 1 of 1 rows "
                       r"undrawn after its cap of 0 rounds"):
        ms.sample_hitting(iso, square, stream(0, 0))


def test_regime_mismatch():
    iso = ms.isotropic_measure(1.0)
    with pytest.raises(RegimeMismatch):
        ms.measure_hitting(iso, geo.Box((0, 0, 0), (1, 1, 1)))


def test_discrete_validation():
    with pytest.raises(UnsupportedSupport):
        ms.DrivingMeasure(1.0, ms.Discrete((((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5))))
    with pytest.raises(ValueError):
        ms.DrivingMeasure(1.0, ms.Discrete((((1.0, 0.0), 0.4), ((0.0, 1.0), 0.4))))
    with pytest.raises(ValueError):
        ms.axis_measure([1.0, -1.0])


NAN = math.nan


# each check is written so that NaN fails it, as any comparison with NaN is
# false; the config path refuses non-finite numbers before any of these
@pytest.mark.parametrize("build, error", [
    (lambda: geo.Box((NAN, 0.0), (1.0, 1.0)), ValueError),
    (lambda: geo.Box((0.0, 0.0), (1.0, NAN)), ValueError),
    (lambda: geo.Box((-math.inf, 0.0), (1.0, 1.0)), ValueError),
    (lambda: geo.Box((0.0, 0.0), (1.0, math.inf)), ValueError),
    (lambda: geo.scale(unit_box(), math.inf), ValueError),
    (lambda: geo.Polygon2D(((0.0, 0.0), (1.0, 0.0), (NAN, 1.0))), ValueError),
    (lambda: geo.scale(unit_box(), NAN), NonPositiveScale),
    (lambda: ms.DrivingMeasure(NAN, ms.Isotropic2D()), ValueError),
    (lambda: ms.Discrete((((1.0, 0.0), NAN), ((0.0, 1.0), 0.5))), ValueError),
    (lambda: ms.axis_measure([NAN, 1.0]), ValueError),
    (lambda: BoundParams(NAN, (1.0,)), ValueError),
    (lambda: BoundParams(1.0, (1.0, NAN)), ValueError),
    (lambda: lower_bound(NAN, BoundParams(1.0, (1.0,))), ValueError),
], ids=["box", "box_hi", "box_minus_inf", "box_plus_inf", "box_scaled_inf",
        "polygon", "scale", "gamma", "axis_weight", "axis_measure",
        "bound_lambda", "bound_band_mass", "lower_bound_t"])
def test_range_checks_refuse_nan(build, error):
    with pytest.raises(error):
        build()


def test_axis_rates_round_trip():
    g = [0.5, 2.5]
    lam = ms.axis_measure(g)
    assert lam.axis_rates(2) == pytest.approx(g)
    oblique = ms.DrivingMeasure(1.0, ms.Discrete(
        (((1.0, 0.0), 0.5), ((math.sqrt(0.5), math.sqrt(0.5)), 0.5))))
    assert oblique.axis_rates(2) is None
    assert ms.isotropic_measure(1.0).axis_rates(2) is None
