"""Monte-Carlo estimators and the two-sample distribution test."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class EstimateWithCI:
    p_hat: float
    n: int
    ci_lo: float
    ci_hi: float
    seed: int


@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float
    n1: int
    n2: int


def wilson_interval(successes: int, n: int, z: float = _Z95) -> tuple[float, float]:
    if n <= 0:
        raise ValueError("n must be positive")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def estimate_from_hits(successes: int, n: int, seed: int) -> EstimateWithCI:
    lo, hi = wilson_interval(successes, n)
    return EstimateWithCI(p_hat=successes / n, n=n, ci_lo=lo, ci_hi=hi, seed=seed)


def binomial_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution, Q(lam)."""
    if lam < 0.2:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, 101):
        term = sign * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-12 * abs(total) or abs(term) < 1e-300:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(xs, ys) -> KSResult:
    """Two-sample Kolmogorov-Smirnov test.

    The p-value uses the asymptotic Kolmogorov distribution evaluated at
    (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D with effective sample size
    ne = n1 n2 / (n1 + n2).
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    n1, n2 = len(xs), len(ys)
    if n1 < 50 or n2 < 50:
        raise InsufficientSamples("both samples need at least 50 points")
    grid = np.concatenate([xs, ys])
    cdf1 = np.searchsorted(xs, grid, side="right") / n1
    cdf2 = np.searchsorted(ys, grid, side="right") / n2
    d = float(np.abs(cdf1 - cdf2).max())
    ne = math.sqrt(n1 * n2 / (n1 + n2))
    p = kolmogorov_sf((ne + 0.12 + 0.11 / ne) * d)
    return KSResult(statistic=d, p_value=p, n1=n1, n2=n2)


def gap_estimate(x, y) -> tuple[float, float]:
    """Independence gap mean(xy) - mean(x)mean(y) and its standard error.

    x, y are 0/1 arrays over the same replicates; the standard error is the
    plug-in estimate of the asymptotic deviation of the sample covariance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    px, py = x.mean(), y.mean()
    gap = float((x * y).mean() - px * py)
    resid = (x - px) * (y - py) - gap
    sigma = float(math.sqrt((resid * resid).mean() / n))
    return gap, sigma
