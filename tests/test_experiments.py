"""Experiment harness behavior at reduced scale; full scale lives in
test_acceptance."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from stitsim import experiments as ex
from stitsim import geometry as geo
from stitsim import rain, stit
from stitsim import rng as rng_module
from stitsim.config import dumps_canonical
from stitsim.errors import (AmbiguousZeroCell, DegenerateCut,
                            TooFewConditioned, WindowMismatch)
from stitsim.measure import (Discrete, DrivingMeasure, axis_measure,
                             isotropic_measure, measure_hitting)
from stitsim.rng import stream
from stitsim.stats import gap_estimate

import oracles
from oracles import as_polytopes

LAM = axis_measure([1.0, 1.0])
ISO = isotropic_measure(1.0)
OBLIQUE = DrivingMeasure(1.5, Discrete((((1.0, 0.5), 0.6), ((-0.3, 1.0), 0.4))))
W1 = geo.Box((-1.0, -1.0), (1.0, 1.0))
W2 = geo.Box((-2.0, -2.0), (2.0, 2.0))
PENTAGON = geo.Polygon2D(((-1.6, -0.9), (1.4, -1.2), (1.8, 0.7), (0.2, 1.9),
                          (-1.3, 1.1)))
INNER = geo.Polygon2D(((-1.0, -0.6), (1.0, -0.8), (0.8, 0.9), (-0.7, 0.8)))


def test_capacity_small_t_target_near_one():
    rep = ex.experiment_capacity(LAM, 0.005, W1, W2, 400, 70)
    assert rep.passed
    assert rep.rows[0]["p_hat"] >= 0.97
    assert rep.rows[0]["target"] == pytest.approx(math.exp(-0.02))


def test_survival_experiments_on_a_polygon_window():
    # the tree experiments grow polygon cells on a non-box window: the
    # window, and a polygon inside it, stay uncut with prob exp(-t mass)
    t, n = 0.2, 1000
    first = ex.experiment_first_split(ISO, PENTAGON, t, n, 71)
    cap = ex.experiment_capacity(ISO, t, INNER, PENTAGON, n, 72)
    for rep, body in ((first, PENTAGON), (cap, INNER)):
        assert rep.passed, rep.rows
        assert rep.rows[0]["target"] == pytest.approx(
            math.exp(-t * measure_hitting(ISO, body)))
        assert 0.3 < rep.rows[0]["target"] < 0.8


def test_capacity_target_doubling_identity():
    t = 0.25
    lam_inner = measure_hitting(LAM, W1)
    assert math.exp(-2 * t * lam_inner) == pytest.approx(
        math.exp(-t * lam_inner) ** 2)


def test_resample_names_the_replicate_and_chains_the_last_error():
    attempts = []

    def body(i, rng):
        attempts.append(i)
        raise DegenerateCut(f"attempt {len(attempts)} at t=0.5")

    with pytest.raises(AmbiguousZeroCell,
                       match="replicate 3 failed all 20 attempts") as e:
        ex._with_resample(body)(3, stream(0, 0))
    assert attempts == [3] * 20
    assert isinstance(e.value.__cause__, DegenerateCut)
    assert str(e.value.__cause__) == "attempt 20 at t=0.5"


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


def test_mixing_stit_grid_points_never_share_a_stream(monkeypatch):
    # grid point j keys its rain batches from j * ceil(n / _BATCH), so the
    # grid points of seeds 1 and 2 draw from disjoint streams (with seed + j,
    # grid point 1 of seed 1 replayed grid point 0 of seed 2)
    keys = []

    def recording(seed, index):
        keys.append((seed, index))
        return stream(seed, index)

    monkeypatch.setattr(rain, "stream", recording)
    monkeypatch.setattr(rain, "_BATCH", 64)
    for seed in (1, 2):
        ex.experiment_mixing_stit(LAM, 1.5, (2, 4, 8), 150, seed)
    assert len(keys) == 2 * 3 * 3
    assert len(set(keys)) == len(keys)



def test_pht_experiments_never_build_a_key_twice(monkeypatch):
    # each experiment draws its patterns in chunks on stream(seed, base + c),
    # mixing_pht's grid point j from base j * ceil(n / _PHT_CHUNK), so over
    # two adjacent seeds neither experiment builds a key twice (with seed + j,
    # grid point 1 of seed 1 replayed grid point 0 of seed 2)
    keys = {"mixing_pht": [], "pht_capacity": []}
    current = []

    def recording(seed, index=0):
        keys[current[-1]].append((seed, index))
        return stream(seed, index)

    monkeypatch.setattr(rng_module, "stream", recording)
    monkeypatch.setattr(ex, "_PHT_CHUNK", 64)
    for seed in (1, 2):
        current.append("mixing_pht")
        ex.experiment_mixing_pht(LAM, 1.0, (2, 8, 32), 150, seed)
        current.append("pht_capacity")
        ex.experiment_pht_capacity(LAM, 1.0, W2, W1, 150, seed)
    assert len(keys["mixing_pht"]) == 2 * 3 * 3
    assert len(keys["pht_capacity"]) == 2 * 3
    for built in keys.values():
        assert len(set(built)) == len(built)

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
        "83d5b3b8e0d70335d75fd00745a5a880b067b8527fea400e9d7209a42a25ddc7")


def test_no_jump_report_golden():
    # pins the no_jump report, including its zeta_mean column (the summed
    # hitting mass of the cells at t, in cell order)
    text = dumps_canonical(ex.run_no_jump(seed=4, n_scale=0.05).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "20b6f3c79e9e39fd137e64f4723656a71adbffc720a7d9e0050a0e8ac66f7513")


# sha256 of each report not pinned above, at seed 4 and n-scale 0.01
# (cond_independence at 0.05: fewer replicates condition too few).  Each
# pins the experiment's stream keys, replicate bases and argument order.
REPORT_GOLDEN = {
    "first_split": (0.01, "5944110b90382fa33937983ea6fff252f5536708bae3c6350ec59d12147bc37a"),
    "capacity": (0.01, "e20bdae9607876b50ebf347109d284292c899c1e64fbe04af7e791062a5f14b8"),
    "methods": (0.01, "85e07e2c81775b0725fb877d67dff44fd1c6a222728f39114af14bf40287c323"),
    "consistency": (0.01, "e02c82dd106e8b6e8650daf5e9b4d29919f23623d9402c5540905eb74ca60efe"),
    "self_similarity": (0.01, "5a669a4cd2c9735f8150fd3804d96b4432bcf04d807747b3ed9e8b8a1d3d20eb"),
    "encapsulation_equality": (0.01, "ef1bc62633b98da6003911c32d76a41419b3bd4ab3fbb7c36a00a9910206d208"),
    "encapsulation_bound": (0.01, "eb97727bbd54ac2eff99901e6dcce555feb250af98e17780d09a615e955591bf"),
    "inclusion": (0.01, "771298bb70e95875e80cf8f1a51e7ce6382b35580d98805004e58fc5a754ba76"),
    "cond_independence": (0.05, "a4ba31f4c1db774942354a20062df9f6c2cab4157ed81d93946849856d7338c8"),
    "mixing_stit": (0.01, "1d19702ae17794f813f8451f6c7ba1d9fc75d56ba0328a94f11627f0f6859622"),
    "mixing_pht": (0.01, "dffe5bfd74ac859f632bd9d26da52bead1ec0a6e1d7bf576738a094f59d2da78"),
    "pht_capacity": (0.01, "3095e22089932b0c0f79a9e554e87386f96c0d4e53a3cd5f6d9c8f20c0755973"),
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


def _assert_stats(T, references):
    """stit.summary_stats of T against the oracle's per tessellation."""
    got = stit.summary_stats(T)
    want = [oracles.summary_stats(R) for R in references]
    assert got[:, 0].tolist() == [s.cell_count for s in want]
    assert got[:, 1] == pytest.approx([s.boundary for s in want], abs=1e-9)


def _check_against_oracles(measure, window, sub, t, s, nb, seed):
    """stit's summary_stats, restrict, scaling and iterate on a batch of nb
    trees against the oracles' per-polytope versions of the same trees."""
    T = ex._grow(measure, window, nb, t, stream(seed, 0)).leaves(window, nb)
    tess = as_polytopes(T)
    _assert_stats(T, tess)
    _assert_stats(stit.restrict(T, sub),
                  [oracles.restrict(P, sub) for P in tess])
    big = geo.scale(window, 2.0)
    _assert_stats(stit.Tessellation(big, T.rep, T.cells.scale(2.0), nb), [
        oracles.Tessellation(big, tuple(geo.scale(c, 2.0) for c in P.cells))
        for P in tess])
    # iteration: nest j goes into frame j; the oracle takes the nests in
    # number_cells order of each tree's frames
    m = len(T.cells)
    R = ex._grow(measure, window, m, s, stream(seed, 1)).leaves(window, m)
    nests = as_polytopes(R)
    frames = [np.flatnonzero(T.rep == i) for i in range(nb)]
    _assert_stats(stit.iterate(T, R), [
        oracles.iterate(P, [nests[frames[i][k]]
                            for k in oracles.number_cells(P)])
        for i, P in enumerate(tess)])
    with pytest.raises(WindowMismatch):
        stit.restrict(T, geo.Box((-3, -3), (3, 3)))
    return T


def test_array_statistics_match_tessellation_functions():
    # the tree experiments' tessellation functions on box cells
    T = _check_against_oracles(LAM, W2, W1, 1.0, 0.5, 40, 74)
    assert isinstance(T.cells, geo.BoxCells) and len(T.cells) > 200


@pytest.mark.parametrize("measure", [ISO, OBLIQUE], ids=["isotropic", "oblique"])
@pytest.mark.parametrize("sub", [INNER, geo.Box((-0.8, -0.6), (0.9, 0.8))],
                         ids=["polygon", "box"])
def test_polygon_tessellation_functions_match_oracles(measure, sub):
    T = _check_against_oracles(measure, PENTAGON, sub, 0.8, 0.4, 6, 76)
    assert isinstance(T.cells, geo.PolygonCells) and len(T.cells) > 30


def test_tree_sample_memory_does_not_grow_with_n():
    # trees grow in chunks of ex._BATCH, so a larger n cannot exhaust memory
    def peak(n):
        tracemalloc.start()
        try:
            ex._stat_sample(LAM, W2, 1.0, n, 75)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(ex._BATCH)  # first-call allocations
    small, large = peak(ex._BATCH), peak(8 * ex._BATCH)
    assert large < 1.25 * small

