"""Experiment harness behavior at reduced scale; full scale lives in
test_acceptance."""

import hashlib
import math

import numpy as np
import pytest

from stitsim import experiments as ex
from stitsim import geometry as geo
from stitsim import rain
from stitsim.config import dumps_canonical
from stitsim.errors import TooFewConditioned
from stitsim.measure import axis_measure, measure_hitting
from stitsim.stats import gap_estimate

LAM = axis_measure([1.0, 1.0])
W1 = geo.Box((-1.0, -1.0), (1.0, 1.0))
W2 = geo.Box((-2.0, -2.0), (2.0, 2.0))


def test_capacity_small_t_target_near_one():
    rep = ex.experiment_capacity(LAM, 0.005, W1, W2, 400, 70)
    assert rep.passed
    assert rep.rows[0]["p_hat"] >= 0.97
    assert rep.rows[0]["target"] == pytest.approx(math.exp(-0.02))


def test_capacity_target_doubling_identity():
    t = 0.25
    lam_inner = measure_hitting(LAM, W1)
    assert math.exp(-2 * t * lam_inner) == pytest.approx(
        math.exp(-t * lam_inner) ** 2)


def test_smoke_tree_experiments():
    assert ex.run_methods(seed=2, n_scale=0.08).passed
    assert ex.run_consistency(seed=2, n_scale=0.08).passed
    assert ex.run_iteration(seed=2, n_scale=0.08).passed


def test_self_similarity_detects_power_case():
    rep = ex.run_self_similarity(seed=2, n_scale=0.1)
    assert rep.passed
    normal = [r for r in rep.rows if not r["statistic"].endswith("_power")]
    power = [r for r in rep.rows if r["statistic"].endswith("_power")]
    assert all(r["p_value"] > ex.KS_ALPHA for r in normal)
    assert min(r["p_value"] for r in power) < ex.KS_ALPHA


def test_self_similarity_sanity_same_time():
    # unscaled sanity: the same recipe on both sides passes trivially
    rep = ex.experiment_self_similarity(LAM, W2, 0.5, 400, 3, power_factor=3.0)
    normal = [r for r in rep.rows if not r["statistic"].endswith("_power")]
    assert all(r["p_value"] > ex.KS_ALPHA for r in normal)


def test_smoke_encapsulation_experiments():
    assert ex.run_encapsulation_equality(seed=2, n_scale=0.2).passed
    assert ex.run_encapsulation_bound(seed=2, n_scale=0.08).passed
    assert ex.run_inclusion(seed=2, n_scale=0.2).passed


def test_smoke_mixing_and_pht():
    assert ex.run_mixing_stit(seed=2, n_scale=0.15).passed
    assert ex.run_mixing_pht(seed=2, n_scale=0.05).passed
    assert ex.run_pht_capacity(seed=2, n_scale=0.05).passed
    assert ex.run_no_jump(seed=2, n_scale=0.1).passed


def test_cond_independence_smoke_and_guard():
    rep = ex.run_cond_independence(seed=2, n_scale=0.05)
    assert rep.passed
    assert rep.rows[0]["n_conditioned"] >= 200
    with pytest.raises(TooFewConditioned):
        ex.run_cond_independence(seed=2, n_scale=0.002)


def test_cond_independence_contrast_unconditioned():
    """Without conditioning, nearby avoidance events correlate strongly.

    The probe overlaps the inner window's projections on both axes, so the
    bodies always share a cell and common cuts induce a positive gap."""
    probe = geo.Box((0.5, -1.0), (2.5, 1.0))
    sim = geo.Box((-3.2, -3.2), (3.2, 3.2))
    t = 0.5
    scan = rain.pair_scan(LAM, sim, W1, probe, t, 20_000, 71)
    d = (scan["cut_a"] > t).astype(float)
    e = (scan["cut_b"] > t).astype(float)
    gap, sigma = gap_estimate(d, e)
    # joint avoidance rate exp(-5.5 t) versus product exp(-8 t)
    expected = math.exp(-5.5 * t) - math.exp(-8.0 * t)
    assert gap > 4 * sigma
    assert gap == pytest.approx(expected, abs=5 * sigma)


def test_mixing_gap_at_zero_distance_is_variance():
    body = geo.Face(((-1.0, 0.0), (1.0, 0.0)))
    window = geo.Box((-3.0, -2.0), (3.0, 2.0))
    scan = rain.pair_scan(LAM, window, body, body, 1.0, 20_000, 72)
    d = np.isinf(scan["cut_a"]).astype(float)
    e = np.isinf(scan["cut_b"]).astype(float)
    assert np.array_equal(d, e)
    gap, _ = gap_estimate(d, e)
    assert gap == pytest.approx(d.mean() * (1 - d.mean()), abs=1e-12)


def test_no_jump_tiny_interval():
    rep = ex.experiment_no_jump(LAM, W1, 1.0, (0.001, 0.05), 500, 73)
    assert rep.rows[0]["freq"] >= 0.98


def test_reports_deterministic_and_hashed():
    r1 = ex.run_first_split(seed=9, n_scale=0.05)
    r2 = ex.run_first_split(seed=9, n_scale=0.05)
    assert dumps_canonical(r1.to_json()) == dumps_canonical(r2.to_json())
    assert len(r1.to_json()["config_hash"]) == 16
    r3 = ex.run_first_split(seed=10, n_scale=0.05)
    assert dumps_canonical(r1.to_json()) != dumps_canonical(r3.to_json())


def test_iteration_report_golden():
    # pins every stream key and argument of the iteration experiment: a
    # shifted replicate index or positional argument changes the bytes
    text = dumps_canonical(ex.run_iteration(seed=4, n_scale=0.05).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2e5c871ac7962b413751347e2d8a8a7e2d4f6e9d93f32ee77d1b4a6615da89c0")
