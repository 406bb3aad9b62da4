"""Lineage-rain kernels against each other and against whole-tree oracles."""

import math

import numpy as np

from stitsim import geometry as geo
from stitsim import rain, stit
from stitsim.encapsulation import encapsulation_time
from stitsim.measure import axis_measure
from stitsim.rng import run_replicates
from stitsim.stats import binomial_sigma, ks_two_sample

LAM = axis_measure([1.0, 1.0])
W = geo.Box((-2.0, -2.0), (2.0, 2.0))
WP = geo.Box((-1.0, -1.0), (1.0, 1.0))


def test_zero_scan_fast_vs_generic():
    horizon = 4.0
    fast = rain.zero_cell_scan(LAM, W, WP, horizon, 30_000, 20)
    gen = rain._generic_zero(LAM, W, WP, horizon, 3_000, 21, ())
    a_fast = rain.encapsulation_times(fast)
    a_gen = np.where(gen["tau_enc"] < gen["sigma_inner"], gen["tau_enc"], np.inf)
    p_fast = np.isfinite(a_fast).mean()
    p_gen = np.isfinite(a_gen).mean()
    assert abs(p_fast - p_gen) <= 5 * binomial_sigma(p_fast, 3_000)
    assert ks_two_sample(fast["sigma_inner"][np.isfinite(fast["sigma_inner"])],
                         gen["sigma_inner"][np.isfinite(gen["sigma_inner"])]
                         ).p_value > 0.001


def test_zero_scan_against_tree_encapsulation():
    horizon = 2.5
    scan = rain.zero_cell_scan(LAM, W, WP, horizon, 60_000, 22)
    a_scan = rain.encapsulation_times(scan)

    def one(_i, rng):
        return encapsulation_time(stit.simulate(LAM, W, horizon, rng), WP)

    a_tree = np.asarray(run_replicates(one, 4_000, 23))
    p1, p2 = np.isfinite(a_scan).mean(), np.isfinite(a_tree).mean()
    assert abs(p1 - p2) <= 5 * binomial_sigma(max(p2, 1e-3), 4_000)


def test_sigma_inner_is_exponential():
    # first rain hit on the inner window ~ Exp(mass(inner)), mass = 4
    scan = rain.zero_cell_scan(LAM, W, WP, 2.0, 20_000, 24)
    s = scan["sigma_inner"]
    p_survive = (s > 1.0).mean()
    target = math.exp(-4.0)
    assert abs(p_survive - target) <= 4 * binomial_sigma(target, 20_000)


def test_pair_scan_fast_vs_generic():
    V = geo.Box((-2.0, -2.0), (2.0, 6.0))
    A = geo.Face(((-1.0, 0.0), (1.0, 0.0)))
    B = geo.Face(((-1.0, 4.0), (1.0, 4.0)))
    fast = rain.pair_scan(LAM, V, A, B, 1.5, 30_000, 25)
    gen = rain._generic_pair(LAM, V, A, B, 1.5, 3_000, 26, None)
    for key in ("cut_a", "cut_b"):
        f, g = fast[key], gen[key]
        assert ks_two_sample(f[np.isfinite(f)], g[np.isfinite(g)]).p_value > 0.001
    jf = (np.isinf(fast["cut_a"]) & np.isinf(fast["cut_b"])).mean()
    jg = (np.isinf(gen["cut_a"]) & np.isinf(gen["cut_b"])).mean()
    assert abs(jf - jg) <= 5 * binomial_sigma(max(jf, 1e-3), 3_000)


def segment_uncut(T, face):
    return any(geo.contains(c, face) for c in T.cells)


def test_pair_scan_against_tree_oracle():
    """Avoidance indicators from the pair kernel match whole-tree simulation."""
    V = geo.Box((-2.0, -2.0), (2.0, 4.0))
    A = geo.Face(((-1.0, 0.0), (1.0, 0.0)))
    B = geo.Face(((-1.0, 2.0), (1.0, 2.0)))
    t = 1.0
    scan = rain.pair_scan(LAM, V, A, B, t, 40_000, 27)
    kd = np.isinf(scan["cut_a"]).mean()
    ke = np.isinf(scan["cut_b"]).mean()
    kj = (np.isinf(scan["cut_a"]) & np.isinf(scan["cut_b"])).mean()

    def one(_i, rng):
        T = stit.slice_at(stit.simulate(LAM, V, t, rng), t)
        return segment_uncut(T, A), segment_uncut(T, B)

    arr = np.asarray(run_replicates(one, 3_000, 28), dtype=float)
    td, te, tj = arr[:, 0].mean(), arr[:, 1].mean(), (arr[:, 0] * arr[:, 1]).mean()
    assert abs(kd - td) <= 5 * binomial_sigma(kd, 3_000)
    assert abs(ke - te) <= 5 * binomial_sigma(ke, 3_000)
    assert abs(kj - tj) <= 5 * binomial_sigma(max(kj, 1e-3), 3_000)
    # marginal law: avoidance of a convex body is exponential in its mass
    assert abs(kd - math.exp(-2.0 * t)) <= 4 * binomial_sigma(math.exp(-2.0 * t), 40_000)


def test_pair_scan_enclosure_matches_zero_scan():
    # with a probe far outside the enclosure, tau_enc of the pair scan has the
    # same law as the single-lineage scan
    V = geo.Box((-3.2, -3.2), (3.2, 3.2))
    probe = geo.Face(((2.5, 0.0), (3.0, 0.0)))
    pair = rain.pair_scan(LAM, V, WP, probe, 2.0, 30_000, 29, enclosure=W)
    a_pair = np.where(pair["tau_enc"] < pair["cut_a"], pair["tau_enc"], np.inf)
    solo = rain.zero_cell_scan(LAM, W, WP, 2.0, 30_000, 30)
    a_solo = rain.encapsulation_times(solo)
    p1, p2 = np.isfinite(a_pair).mean(), np.isfinite(a_solo).mean()
    assert abs(p1 - p2) <= 5 * binomial_sigma(max(p2, 1e-3), 30_000)
    assert ks_two_sample(a_pair[np.isfinite(a_pair)],
                         a_solo[np.isfinite(a_solo)]).p_value > 0.001
