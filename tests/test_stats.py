"""Estimator and test-statistic calibration."""

import numpy as np
import pytest
import scipy.special
import scipy.stats

from stitsim.errors import InsufficientSamples
from stitsim.rng import run_replicates, stream
from stitsim.stats import (estimate_from_hits, gap_estimate, kolmogorov_sf,
                           ks_two_sample, wilson_interval)


def frequency(event, n, seed):
    """Replicate frequency of a boolean event, as the experiments compute it."""
    hits = sum(run_replicates(lambda _i, rng: bool(event(rng)), n, seed))
    return estimate_from_hits(hits, n, seed)


def test_mc_estimate_constant_true():
    est = frequency(lambda rng: True, 200, 1)
    assert est.p_hat == 1.0
    assert est.ci_hi == 1.0
    assert est.ci_lo < 1.0


def test_mc_estimate_fair_coin():
    est = frequency(lambda rng: rng.random() < 0.5, 10_000, 2)
    assert 0.48 < est.p_hat < 0.52
    assert est.ci_lo <= est.p_hat <= est.ci_hi


def test_mc_estimate_reproducible():
    e1 = frequency(lambda rng: rng.random() < 0.3, 500, 3)
    e2 = frequency(lambda rng: rng.random() < 0.3, 500, 3)
    assert e1 == e2


def test_wilson_coverage():
    # nominal 95% interval should cover the truth in >= 93 of 100 seeded runs
    p_true = 0.3
    n = 500
    covered = 0
    for s in range(100):
        rng = stream(5, s)
        hits = int((rng.random(n) < p_true).sum())
        lo, hi = wilson_interval(hits, n)
        covered += lo <= p_true <= hi
    assert covered >= 93


def test_ks_identical_samples():
    xs = np.arange(100, dtype=float)
    r = ks_two_sample(xs, xs.copy())
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_ks_shifted_samples():
    rng = stream(6, 0)
    xs = rng.normal(0.0, 1.0, 2000)
    r = ks_two_sample(xs, xs + 10.0)
    assert r.statistic == 1.0
    assert r.p_value < 1e-6


def test_ks_level_calibration():
    # same exponential law twice: p > 0.01 in at least 98 of 100 repeats
    good = 0
    for s in range(100):
        rng = stream(7, s)
        xs = rng.exponential(1.0, 5000)
        ys = rng.exponential(1.0, 5000)
        if ks_two_sample(xs, ys).p_value > 0.01:
            good += 1
    assert good >= 98


def test_ks_against_scipy_oracle():
    rng = stream(8, 0)
    for _ in range(10):
        xs = rng.normal(0, 1, 1500)
        ys = rng.normal(rng.uniform(0, 0.2), 1, 1500)
        ours = ks_two_sample(xs, ys)
        ref = scipy.stats.ks_2samp(xs, ys, method="asymp")
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=0.05)
    with pytest.raises(InsufficientSamples):
        ks_two_sample(np.arange(10.0), np.arange(100.0))


def test_kolmogorov_sf_against_scipy():
    for lam in np.linspace(0.3, 3.0, 28):
        assert kolmogorov_sf(lam) == pytest.approx(
            float(scipy.special.kolmogorov(lam)), abs=1e-9)
    assert kolmogorov_sf(0.0) == 1.0


def test_gap_estimate():
    rng = stream(9, 0)
    x = (rng.random(50_000) < 0.4).astype(float)
    y = (rng.random(50_000) < 0.6).astype(float)
    gap, sigma = gap_estimate(x, y)
    assert abs(gap) <= 4 * sigma
    # identical indicators: gap is exactly p(1 - p)
    gap2, _ = gap_estimate(x, x)
    p = x.mean()
    assert gap2 == pytest.approx(p * (1 - p), abs=1e-12)
