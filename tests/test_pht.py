"""Poisson hyperplane pattern tests."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from stitsim import geometry as geo
from stitsim.cli import main
from stitsim.config import dumps_canonical, run_config_from_json, sanitize
from stitsim.errors import ExplosionGuard
from stitsim.experiments import _PHT_CHUNK, _pht_sample
from stitsim.measure import (Discrete, DrivingMeasure, axis_measure,
                             draw_lines, isotropic_measure, measure_hitting,
                             regime, sample_hitting)
from stitsim.pht import (PoissonHyperplanePattern, draw_patterns,
                         empty_probability, pattern_hits, pattern_to_json,
                         simulate_pht, tail_event_hits_ball)
from stitsim.rng import stream
from stitsim.stats import binomial_sigma, ks_two_sample

from oracles import Tessellation, tiling_defect

LAM = axis_measure([1.0, 1.0])
W1 = geo.Box((-1.0, -1.0), (1.0, 1.0))
W2 = geo.Box((-2.0, -2.0), (2.0, 2.0))


def disc64():
    return geo.Polygon2D(tuple(
        (math.cos(2 * math.pi * k / 64), math.sin(2 * math.pi * k / 64))
        for k in range(64)))


def test_mean_count():
    n = 3000
    counts = [len(simulate_pht(LAM, 1.0, W1, stream(60, i)).hyperplanes)
              for i in range(n)]
    # counts ~ Poisson(4): mean 4, sd of the mean sqrt(4/n)
    assert abs(np.mean(counts) - 4.0) <= 4 * math.sqrt(4.0 / n)


def test_small_rho_mostly_empty():
    rng = stream(61, 0)
    assert all(len(simulate_pht(LAM, 1e-9, W1, rng).hyperplanes) == 0
               for _ in range(200))


def test_every_hyperplane_hits_window():
    rng = stream(62, 0)
    for _ in range(50):
        pat = simulate_pht(LAM, 1.5, W2, rng)
        assert all(geo.hits(h, W2) for h in pat.hyperplanes)


def test_empty_probability_values():
    # unit disc under the isotropic measure: mass 2, so P(empty) = e^{-2}
    assert empty_probability(isotropic_measure(1.0), 1.0, disc64()) == \
        pytest.approx(math.exp(-2.0), abs=2e-3)
    assert empty_probability(LAM, 1.0, W1) == pytest.approx(math.exp(-4.0))
    assert empty_probability(LAM, 0.0, W1) == 1.0


def test_empty_probability_monte_carlo():
    n = 30_000
    hits = n - int(_pht_sample(LAM, 1.0, W2, (W1,), n, 63).sum())
    target = math.exp(-4.0)
    assert abs(hits / n - target) <= 4 * binomial_sigma(target, n)


def test_tail_event():
    empty = PoissonHyperplanePattern(W2, 1.0, np.zeros((0, 2)), np.zeros(0))
    assert not tail_event_hits_ball(empty, W1)
    through_origin = PoissonHyperplanePattern(W2, 1.0, np.array([[1.0, 0.0]]),
                                              np.array([1e-3]))
    assert tail_event_hits_ball(through_origin, W1)

    seg = geo.Face(((-1.0, 0.0), (1.0, 0.0)))
    n = 20_000
    hits = int(_pht_sample(LAM, 1.0, W2, (seg,), n, 64).sum())
    target = 1.0 - math.exp(-1.0 * measure_hitting(LAM, seg))
    assert abs(hits / n - target) <= 4 * binomial_sigma(target, n)


def test_capacity_functional_random_bodies():
    rng = stream(65, 0)
    bodies = []
    for _ in range(4):
        lo = rng.uniform(-1.5, 0.0, 2)
        hi = lo + rng.uniform(0.2, 1.0, 2)
        bodies.append(geo.Box(tuple(lo), tuple(hi)))
    n = 20_000
    arr = ~_pht_sample(LAM, 1.0, W2, bodies, n, 66)
    for j, b in enumerate(bodies):
        target = empty_probability(LAM, 1.0, b)
        assert abs(arr[:, j].mean() - target) <= 4 * binomial_sigma(target, n)


def cells_of_pattern(pattern: PoissonHyperplanePattern) -> Tessellation:
    """The cell arrangement induced by the pattern, by repeated clipping."""
    cells = [pattern.window]
    for h in pattern.hyperplanes:
        nxt = []
        for cell in cells:
            if not geo.hits(h, cell):
                nxt.append(cell)
                continue
            lower = geo.clip_tolerant(cell, h.normal, h.d)
            upper = geo.clip_tolerant(cell, -h.normal, -h.d)
            nxt.extend(p for p in (lower, upper) if p is not None)
        cells = nxt
    return Tessellation(pattern.window, tuple(cells))


def test_cells_of_pattern_tile_window():
    rng = stream(68, 0)
    for _ in range(10):
        pat = simulate_pht(LAM, 1.0, W2, rng)
        T = cells_of_pattern(pat)
        assert tiling_defect(T) <= 1e-6
        # every hyperplane hits the window, so each split adds a cell
        assert len(T.cells) >= 1 + len(pat.hyperplanes)


def test_long_range_dependence_witness():
    """Hyperplanes hitting a segment hit all its vertical translates, so the
    two hit events coincide pathwise: no decorrelation under translation."""
    seg0 = geo.Face(((-1.0, 0.0), (1.0, 0.0)))
    seg_h = geo.Face(((-1.0, 24.0), (1.0, 24.0)))
    window = geo.Box((-2.0, -2.0), (2.0, 26.0))
    rng = stream(67, 0)
    for _ in range(400):
        pat = simulate_pht(LAM, 1.0, window, rng)
        assert tail_event_hits_ball(pat, seg0) == tail_event_hits_ball(pat, seg_h)


# ---------------------------------------------------------------------------
# the array sampler and hit test against the per-hyperplane reference:
# box-drawer rows are sample_hitting's draw for draw, line-drawer rows
# (every other case) follow its law

R3 = math.sqrt(3.0) / 2.0
HEX = geo.Polygon2D(((-2.0, -1.0), (2.0, -1.5), (2.5, 1.0), (0.0, 2.5),
                     (-2.0, 1.5)))
DISCRETE_CASES = {
    "axis": (LAM, W2),
    "weighted_axis": (axis_measure([0.6, 2.4]), geo.Box((-1.5, -0.5), (2.5, 3.0))),
    "box_3d": (axis_measure([0.6, 0.6, 0.8]),
               geo.Box((-1.0, -2.0, -0.5), (1.0, 2.0, 1.5))),
    "oblique_polygon": (DrivingMeasure(1.0, Discrete((
        ((1.0, 0.0), 0.3), ((0.5, R3), 0.3), ((-0.5, R3), 0.4)))), HEX),
    "oblique_box": (DrivingMeasure(1.0, Discrete((
        ((1.0, 0.0), 0.3), ((0.6, 0.8), 0.3), ((-0.8, 0.6), 0.4)))),
        geo.Box((-2.0, -1.0), (3.0, 2.0))),
}
BOX_CASES = ("axis", "box_3d", "weighted_axis")


def _angles(normals):
    return np.arctan2(normals[:, 1], normals[:, 0])


def _assert_sample_hitting_law(measure, window):
    """Rows of about 13,000 hyperplanes against as many sample_hitting
    draws: the mean count is rho * mass within 4 sigma, every normal is in
    canonical form, and the canonical angle and the offset each pass a
    two-sample KS test."""
    rho, size = 2.0, 1300
    lam = rho * measure_hitting(measure, window)
    counts, normals, offsets = draw_patterns(measure, rho, window,
                                             stream(91, 0), size)
    assert abs(counts.mean() - lam) <= 4 * math.sqrt(lam / size)
    assert len(offsets) >= 10_000
    assert all(np.array_equal(a, b) for a, b in
               zip(geo.canonical_rows(normals, offsets), (normals, offsets)))
    rng = stream(91, 1)
    ref = [sample_hitting(measure, window, rng) for _ in range(len(offsets))]
    ref_normals = np.array([h.u for h in ref])
    assert ks_two_sample(_angles(normals), _angles(ref_normals)).p_value > 0.005
    assert ks_two_sample(offsets, [h.d for h in ref]).p_value > 0.005


@pytest.mark.parametrize("case", sorted(DISCRETE_CASES))
def test_array_sampler_matches_sample_hitting(case):
    measure, window = DISCRETE_CASES[case]
    if case not in BOX_CASES:
        _assert_sample_hitting_law(measure, window)
        return
    mass = measure_hitting(measure, window)
    for i in range(40):
        pat = simulate_pht(measure, 3.0, window, stream(90, i))
        rng = stream(90, i)
        count = int(rng.poisson(3.0 * mass))
        ref = tuple(sample_hitting(measure, window, rng) for _ in range(count))
        assert pat.hyperplanes == ref
        assert pat.normals.shape == (count, window.dim)


def test_isotropic_pattern_matches_sample_hitting():
    # the exact drawer picks an edge by its length, so it must read the
    # window's vertices in cyclic order: a box's corners in bit order
    # would add its diagonals to the perimeter
    for window in (HEX, geo.Box((-3.0, -1.0), (3.0, 1.0)),
                   geo.Polygon2D(((-3.5, 0.0), (3.5, -0.4), (1.0, 0.4)))):
        _assert_sample_hitting_law(isotropic_measure(1.0), window)


def _random_bodies(rng, dim):
    lo = rng.uniform(-2.0, 1.0, dim)
    box = geo.Box(tuple(lo), tuple(lo + rng.uniform(0.05, 1.5, dim)))
    pts = rng.uniform(-2.0, 2.0, (rng.integers(1, 4), dim))
    bodies = [box, geo.Face(tuple(map(tuple, pts)))]
    if dim == 2:
        c, r = rng.uniform(-1.5, 1.5, 2), rng.uniform(0.05, 1.0)
        angles = np.sort(rng.uniform(0.0, 2 * math.pi, 5))
        bodies.append(geo.Polygon2D(tuple(
            (c[0] + r * math.cos(a), c[1] + r * math.sin(a)) for a in angles)))
    return bodies


@pytest.mark.parametrize("case", sorted(DISCRETE_CASES) + ["isotropic"])
def test_hit_test_matches_geometry_hits(case):
    measure, window = DISCRETE_CASES.get(case, (isotropic_measure(1.0), HEX))
    rng = stream(92, 0)
    seen = set()
    for i in range(60):
        pat = simulate_pht(measure, 0.3, window, stream(93, i))
        for body in _random_bodies(rng, window.dim):
            hit = tail_event_hits_ball(pat, body)
            assert hit == any(geo.hits(h, body) for h in pat.hyperplanes)
            seen.add(hit)
    assert seen == {False, True}


def test_hit_test_empty_pattern():
    for window, body in ((W2, W1), (W2, geo.Face(((0.0, 0.0), (1.0, 0.0)))),
                         (HEX, HEX), (geo.Box((0.0,) * 3, (1.0,) * 3),
                                      geo.Box((0.0,) * 3, (1.0,) * 3))):
        empty = PoissonHyperplanePattern(window, 1.0,
                                         np.zeros((0, window.dim)), np.zeros(0))
        assert empty.normals.shape == (0, window.dim)
        assert not tail_event_hits_ball(empty, body)


def test_simulate_pht_axis_golden(tmp_path):
    """Output bytes of the axis PHT config at seed 5 are pinned."""
    config = Path(__file__).resolve().parents[1] / "configs" / "pht_axis.json"
    out = tmp_path / "p.json"
    assert main(["simulate", "--config", str(config), "--seed", "5",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "9dc0bad93b5a383369b93d7ccd50fe276fab2d5fa7cca17f059f108b8d6b06e7"
    # the payload simulate writes is already plain JSON: no sanitize copy
    cfg = run_config_from_json(json.loads(config.read_text()))
    payload = pattern_to_json(simulate_pht(cfg.measure, cfg.rho, cfg.window,
                                           stream(5, 0)))
    payload["seed"] = 5
    assert sanitize(payload) == payload
    assert dumps_canonical(payload) + "\n" == out.read_text()


def test_drawn_count_over_cap(monkeypatch):
    from stitsim import stit
    monkeypatch.setattr(stit, "EVENT_CAP", 10)  # above the mean count 8
    raised = 0
    for i in range(40):
        count = int(stream(95, i).poisson(8.0))
        if count > 10:
            with pytest.raises(ExplosionGuard, match=f"drew {count} hyperplanes"):
                simulate_pht(LAM, 1.0, W2, stream(95, i))
            raised += 1
        else:
            assert len(simulate_pht(LAM, 1.0, W2, stream(95, i)).offsets) == count
    assert 0 < raised < 40


# ---------------------------------------------------------------------------
# the batched draw and hit test against the one-pattern oracles


@pytest.mark.parametrize("case", sorted(DISCRETE_CASES) + ["isotropic"])
def test_batch_draw_is_scalar_counts_then_sample_hitting(case):
    # the batch's counts come from one poisson call, which consumes the
    # stream as one scalar call per pattern; its box rows then follow as a
    # loop of sample_hitting would draw them, and every other case's rows
    # are one line-drawer call on the rest of the stream, whose law is
    # sample_hitting's (test_array_sampler_matches_sample_hitting)
    measure, window = DISCRETE_CASES.get(case, (isotropic_measure(1.0), HEX))
    lam = 0.5 * measure_hitting(measure, window)
    counts, normals, offsets = draw_patterns(measure, 0.5, window,
                                             stream(96, 0), 30)
    rng = stream(96, 0)
    ref_counts = [int(rng.poisson(lam)) for _ in range(30)]
    assert counts.tolist() == ref_counts
    pat = PoissonHyperplanePattern(window, 0.5, normals, offsets)
    if case in BOX_CASES:
        assert pat.hyperplanes == tuple(sample_hitting(measure, window, rng)
                                        for _ in range(sum(ref_counts)))
        return
    V = geo.polygon_vertices(window)
    ref = geo.canonical_rows(*draw_lines(
        rng, measure, np.broadcast_to(V, (sum(ref_counts),) + V.shape)))
    assert np.array_equal(normals, ref[0]) and np.array_equal(offsets, ref[1])
    assert all(geo.hits(h, window) for h in pat.hyperplanes)


def test_batch_counts_match_simulate_pht():
    batch = np.concatenate([draw_patterns(LAM, 1.0, W2, stream(97, c), 1000)[0]
                            for c in range(5)])
    single = [len(simulate_pht(LAM, 1.0, W2, stream(98, i)).offsets)
              for i in range(5000)]
    assert ks_two_sample(batch, single).p_value > 0.005


MIXING_WINDOW = geo.Box((-3.2, -2.2), (3.2, 10.2))  # mixing_pht at h = 8
SEG0 = geo.Face(((-1.0, 0.0), (1.0, 0.0)))
SEG8 = geo.Face(((-1.0, 8.0), (1.0, 8.0)))


@pytest.mark.parametrize("window, bodies", [
    (W2, (W1,)),  # pht_capacity
    (MIXING_WINDOW, (SEG0, SEG8)),  # mixing_pht
])
def test_batch_hit_frequencies(window, bodies):
    n = 20_000  # 78 full chunks and a partial one
    hit = _pht_sample(LAM, 1.0, window, bodies, n, 99)
    assert hit.shape == (n, len(bodies)) and hit.dtype == bool
    for b, body in enumerate(bodies):
        target = 1.0 - empty_probability(LAM, 1.0, body)
        assert abs(hit[:, b].mean() - target) <= 4 * binomial_sigma(target, n)


def _patterns(window, rho, counts, normals, offsets):
    ends = np.cumsum(counts)
    return [PoissonHyperplanePattern(window, rho, normals[e - c:e],
                                     offsets[e - c:e])
            for c, e in zip(counts, ends)]


def test_batch_hits_empty_patterns_and_oracle():
    counts, normals, offsets = draw_patterns(LAM, 0.2, W2, stream(100, 0), 300)
    # empty patterns at the start, in the middle and at the end of a chunk
    k = len(counts) // 2
    counts = np.concatenate([[0, 0], counts[:k], [0], counts[k:], [0]])
    bodies = (W1, SEG0, geo.Face(((0.5, -1.5), (1.5, 1.0))))
    hit = pattern_hits(counts, normals, offsets, bodies)
    pats = _patterns(W2, 0.2, counts, normals, offsets)
    assert [len(p.offsets) == 0 for p in pats].count(True) > 4
    for j, pat in enumerate(pats):
        for b, body in enumerate(bodies):
            assert hit[j, b] == tail_event_hits_ball(pat, body)
    assert not hit[[0, 1, k + 2, -1]].any()
    assert hit.any()


def test_all_empty_chunk_hits_nothing():
    counts, normals, offsets = draw_patterns(LAM, 1e-9, W2, stream(101, 0), 4096)
    assert counts.sum() == 0 and normals.shape == (0, 2)
    hit = pattern_hits(counts, normals, offsets, (W1, SEG0))
    assert hit.shape == (4096, 2) and not hit.any()
    counts, normals, offsets = draw_patterns(isotropic_measure(1.0), 1e-9, HEX,
                                             stream(101, 1), 4096)
    assert counts.sum() == 0 and normals.shape == (0, 2) and offsets.shape == (0,)


def test_pht_sample_builds_the_regime_once():
    # every chunk of patterns on one (measure, window) reuses one regime:
    # rebuilding it per chunk would slow pht_capacity and mixing_pht
    regime.cache_clear()
    _pht_sample(LAM, 1.0, W2, (W1,), 40 * _PHT_CHUNK, 104)
    info = regime.cache_info()
    assert (info.misses, info.hits) == (1, 39)
