"""Encapsulation predicate, stopping time, bound and window construction."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import scipy.integrate

from stitsim import geometry as geo
from stitsim import rain, stit
from stitsim.encapsulation import BoundParams, build_window, lower_bound
from stitsim.errors import UnsupportedSupport
from stitsim.experiments import equality_problem
from stitsim.measure import (Discrete, DrivingMeasure, axis_measure,
                             isotropic_measure)
from stitsim.rng import stream
from stitsim.stats import binomial_sigma, ks_two_sample

from oracles import (Tessellation, band_sample, encapsulates,
                     encapsulation_time, sufficient_event_time, validate,
                     zero_cell)

LAM = axis_measure([1.0, 1.0])
W = geo.Box((-2.0, -2.0), (2.0, 2.0))
WP = geo.Box((-1.0, -1.0), (1.0, 1.0))


def frame_tessellation(inner):
    """Tessellation of W whose origin cell is exactly `inner`."""
    (x0, y0), (x1, y1) = inner.lo, inner.hi
    cells = (inner,
             geo.Box((-2, -2), (x0, 2)), geo.Box((x1, -2), (2, 2)),
             geo.Box((x0, -2), (x1, y0)), geo.Box((x0, y1), (x1, 2)))
    return Tessellation(W, cells)


def test_encapsulates_examples():
    def zero_cell_encapsulates(T):
        return encapsulates(zero_cell(T), WP, W)

    trivial = Tessellation(W, (W,))
    assert not zero_cell_encapsulates(trivial)  # zero cell not strictly inside
    assert zero_cell_encapsulates(frame_tessellation(WP))
    # zero cell misses a corner of the inner window
    clipped = frame_tessellation(geo.Box((-1.0, -1.0), (0.9, 1.0)))
    assert not zero_cell_encapsulates(clipped)


def test_encapsulation_time_no_jumps():
    tree = stit.simulate(LAM, W, 1e-9, stream(40, 0))
    assert encapsulation_time(tree, WP) == math.inf


def test_encapsulation_needs_a_cut_per_facet():
    # each of the four outer facets needs a separating cut in the origin-cell
    # lineage, so encapsulation cannot precede the 4th lineage jump
    found = 0
    for i in range(300):
        tree = stit.simulate(LAM, W, 4.0, stream(41, i))
        a_s = encapsulation_time(tree, WP)
        if not math.isfinite(a_s):
            continue
        found += 1
        kids, death = tree.children, tree.forest.death
        i, lineage_jumps = 0, []
        while kids[i] >= 0 and death[i] <= a_s:
            lineage_jumps.append(death[i])
            a = int(kids[i])
            i = a if geo.origin_strictly_inside(tree.cell(a)) else a + 1
        assert len(lineage_jumps) >= 4
        assert a_s in lineage_jumps
    assert found >= 2


def test_encapsulation_time_matches_sufficient_event_law():
    # equality case: the conditional law of the encapsulation time equals the
    # law of M given the sufficient event
    prob = equality_problem(1.0, 2.0, [1.0, 1.0])
    scan = rain.zero_cell_scan(prob.measure, prob.outer, prob.inner, 5.0,
                               150_000, 42)
    a_s = scan["tau_enc"]
    a_s = a_s[np.isfinite(a_s)]
    rng = stream(43, 0)
    ms = []
    params = prob.params()
    for _ in range(150_000):
        ok, m = sufficient_event_time(params, 5.0, rng)
        if ok:
            ms.append(m)
    assert ks_two_sample(a_s, ms).p_value > 0.001


def test_sufficient_event_time():
    params = BoundParams(4.0, (1.0, 1.0, 1.0, 1.0))
    rng = stream(44, 0)
    n = 200_000
    hits = sum(sufficient_event_time(params, 1e9, rng)[0] for _ in range(n))
    assert abs(hits / n - 1 / 70) <= 4 * binomial_sigma(1 / 70, n)
    assert all(not sufficient_event_time(params, 0.0, rng)[0] for _ in range(100))


def series_limit(lam, masses):
    """Exact rational limit of the bound via inclusion-exclusion."""
    lam = Fraction(lam)
    total = Fraction(0)
    for k in range(len(masses) + 1):
        for sub in combinations(masses, k):
            total += (-1) ** k * lam / (lam + sum(Fraction(m) for m in sub))
    return total


def test_lower_bound_values():
    p = BoundParams(4.0, (1.0, 1.0, 1.0, 1.0))
    assert lower_bound(0.0, p) == 0.0
    assert series_limit(4, [1, 1, 1, 1]) == Fraction(1, 70)
    assert lower_bound(1e6, p) == pytest.approx(1 / 70, abs=1e-9)
    assert lower_bound(math.inf, p) == pytest.approx(1 / 70, abs=1e-12)
    v = lower_bound(1.0, p)
    assert math.exp(-4) * (1 - math.exp(-1)) ** 4 <= v <= 1 / 70
    assert v == pytest.approx(0.012457366127064369, abs=1e-12)


def quad_bound(t, lam, masses):
    closed = math.exp(-t * lam)
    for m in masses:
        closed *= 1 - math.exp(-t * m)

    def integrand(x):
        v = lam * math.exp(-lam * x)
        for m in masses:
            v *= 1 - math.exp(-m * x)
        return v

    integral, _ = scipy.integrate.quad(integrand, 0.0, t, limit=200)
    return closed + integral


def test_lower_bound_against_quadrature_oracle():
    rng = stream(45, 0)
    for _ in range(12):
        lam = rng.uniform(0.5, 6.0)
        masses = tuple(rng.uniform(0.1, 2.0, rng.integers(1, 6)))
        t = rng.uniform(0.1, 5.0)
        p = BoundParams(lam, masses)
        assert lower_bound(t, p) == pytest.approx(quad_bound(t, lam, masses),
                                                  abs=1e-9)


def test_lower_bound_many_bands_quadrature_path():
    rng = stream(46, 0)
    masses = tuple(rng.uniform(0.2, 1.0, 22))  # q > 20 switches to quadrature
    p = BoundParams(2.0, masses)
    assert lower_bound(1.5, p) == pytest.approx(quad_bound(1.5, 2.0, masses),
                                                abs=1e-6)


def test_lower_bound_monotone():
    rng = stream(47, 0)
    p = BoundParams(3.0, (0.5, 1.0, 2.0))
    ts = np.sort(rng.uniform(0, 6, 15))
    vals = [lower_bound(t, p) for t in ts]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert vals == sorted(vals)
    # non-decreasing in each band mass
    for scale in (1.5, 3.0):
        bigger = BoundParams(3.0, (0.5 * scale, 1.0, 2.0))
        assert lower_bound(2.0, bigger) >= lower_bound(2.0, p)


def test_build_window_axis_case():
    prob = build_window(WP, LAM)
    assert prob.outer == geo.Box((-4.0, -4.0), (4.0, 4.0))
    assert len(prob.bands) == 4
    for band in prob.bands:
        assert band.mass == pytest.approx(1.0)
        assert (band.d_lo, band.d_hi) == (2.0, 3.0)
    validate(prob, stream(48, 0))
    # bands are pairwise disjoint in (axis, signed distance)
    forms = []
    for b in prob.bands:
        c = geo.coordinate_axis(b.u)
        assert c is not None and b.half_width == 0.0
        forms.append((c, b.d_lo, b.d_hi) if b.u[c] > 0 else (c, -b.d_hi, -b.d_lo))
    for i in range(4):
        for j in range(i + 1, 4):
            ci, li, hi_ = forms[i]
            cj, lj, hj = forms[j]
            assert ci != cj or hi_ <= lj or hj <= li


def test_build_window_isotropic_case():
    prob = build_window(WP.to_polygon(), isotropic_measure(1.0))
    assert isinstance(prob.outer, geo.Box)
    assert prob.outer == geo.Box((-4.0, -4.0), (4.0, 4.0))
    for band in prob.bands:
        assert band.mass == pytest.approx(0.125)
        assert band.half_width == pytest.approx(math.pi / 16)
    validate(prob, stream(49, 0))


def test_build_window_oblique_directions():
    s = math.sqrt(0.5)
    m = DrivingMeasure(1.0, Discrete((((1.0, 0.0), 0.5), ((s, s), 0.5))))
    prob = build_window(WP.to_polygon(), m)
    assert len(prob.bands) == 4
    validate(prob, stream(50, 0))
    assert all(b.mass == pytest.approx(0.5) for b in prob.bands)


def test_build_window_unsupported_support():
    # three dimensions with only two coordinate axes present
    m = DrivingMeasure(1.0, Discrete((((1.0, 0.0, 0.0), 0.5),
                                      ((0.0, 1.0, 0.0), 0.5))))
    with pytest.raises(UnsupportedSupport):
        build_window(geo.Box((-1, -1, -1), (1, 1, 1)), m)


def test_band_mark_test_and_sampling():
    prob = build_window(WP, LAM)
    rng = stream(51, 0)

    def marked(band, h):
        return bool(band.marks_in(h.normal, np.float64(h.d)))

    for band in prob.bands:
        for _ in range(50):
            assert marked(band, band_sample(band, rng))
        # hyperplanes outside the distance interval are rejected
        u = np.asarray(band.u)
        assert not marked(band, geo.Hyperplane(tuple(u), band.d_hi + 0.5))
        others = [b for b in prob.bands if b is not band]
        h = band_sample(band, rng)
        assert not any(marked(b, h) for b in others)


def test_coupled_inclusion_axis_and_isotropic():
    # sufficient event implies encapsulation, pathwise, for both geometries
    prob = build_window(WP, LAM)
    scan = rain.zero_cell_scan(LAM, prob.outer, WP, 2.0, 3_000, 52,
                               bands=prob.bands)
    m = scan["sigma_bands"].max(axis=1)
    suff = m <= np.minimum(scan["sigma_inner"], 2.0)
    a_s = scan["tau_enc"]
    assert int((suff & ~(a_s <= 2.0)).sum()) == 0
    assert suff.sum() > 0

    iso = isotropic_measure(1.0)
    iprob = build_window(WP.to_polygon(), iso)
    iscan = rain.zero_cell_scan(iso, iprob.outer, iprob.inner, 6.0, 400, 53,
                                bands=iprob.bands)
    im = iscan["sigma_bands"].max(axis=1)
    isuff = im <= np.minimum(iscan["sigma_inner"], 6.0)
    ia_s = iscan["tau_enc"]
    assert int((isuff & ~(ia_s <= 6.0)).sum()) == 0
