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
    rep = ex.experiment_self_similarity(LAM, W2, 0.5, 400, 3)
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
        "616445869ce704b14b3c85f4fdecf5dfb40e1e68715acc579eecc508374975cf")


def test_no_jump_report_golden():
    # pins the no_jump report, including its zeta_mean column (the summed
    # hitting mass of the cells at t, in cell order)
    text = dumps_canonical(ex.run_no_jump(seed=4, n_scale=0.05).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ea5f047848027bdb4db99c817d4721530a045ad1c1e0793c51e594337fe8e7fb")


# sha256 of each report not pinned above, at seed 4 and n-scale 0.01
# (cond_independence at 0.05: fewer replicates condition too few).  Each
# pins the experiment's stream keys, replicate bases and argument order.
REPORT_GOLDEN = {
    "first_split": (0.01, "d20d8948ed94889dfed2313692509e61d82cda754438ffc01310c3a8a7fd3bb6"),
    "capacity": (0.01, "e5c0255b5ba91102ee119ff7de1f9f7e9fac684a721d6af02a1f90d6d490f7e1"),
    "methods": (0.01, "b104bd2c712ac4a19313251b8f27438e466b2cb6b3e1460a05aa5de12604c84a"),
    "consistency": (0.01, "828825d98d785f981bcc618babb1da02f2f4f56dac51b7dad222d89c5648e50d"),
    "self_similarity": (0.01, "e844bb1e93c583711f3655de91d224851f9c32778617475c758eeb23e40f8f06"),
    "encapsulation_equality": (0.01, "999640769b7d8b57e73862ddf48d14c503266826cc923ee301ef3132e4599560"),
    "encapsulation_bound": (0.01, "4403a542eb6c9d711243907aeb9e83788efcd45dcd2099d489112d6f68e6d58c"),
    "inclusion": (0.01, "771298bb70e95875e80cf8f1a51e7ce6382b35580d98805004e58fc5a754ba76"),
    "cond_independence": (0.05, "8c91f7192967777ce4cc49d411c85cebee5a36fe052260f15a1bcb417925b6fa"),
    "mixing_stit": (0.01, "4c9157f221e9cfcb1164576ea0af7021b33f16ec327109207ae9a24bd701a2f6"),
    "mixing_pht": (0.01, "cf61b1d55628b2cf5205ff23eb3e6c15a1b55e5c7d12e7ffcb422628fc05cc9b"),
    "pht_capacity": (0.01, "fb34a49a312e2079b29f1cf08cb72b05434b19ba24764cf2febc02deaa9a95a2"),
    "determinism": (0.01, "5cd50ff678ae18e8bec3f43afb5290be246bd26f02180a69c3f9cb09bbccbc42"),
}


def test_every_report_has_a_golden():
    assert set(REPORT_GOLDEN) | {"iteration", "no_jump"} == set(ex.EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(REPORT_GOLDEN))
def test_report_bytes_golden(name):
    n_scale, sha = REPORT_GOLDEN[name]
    text = dumps_canonical(ex.EXPERIMENTS[name](seed=4, n_scale=n_scale).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == sha


def test_report_write(tmp_path):
    rep = ex.Report("demo", 1, {"n": 2}, [{"a": 1.5, "b": float("inf")},
                                          {"c": np.float64(0.1), "a": 2}])
    rep.write(str(tmp_path))
    assert (tmp_path / "demo.json").read_text() == (
        dumps_canonical(rep.to_json()) + "\n")
    assert (tmp_path / "demo.csv").read_text() == "a,b,c\n1.5,inf,\n2,,0.1\n"
