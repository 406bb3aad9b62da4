"""Poisson hyperplane patterns in a window and their avoidance probabilities.

A pattern is held as two arrays: unit normals (count, dim) and signed
offsets (count,), row i being the hyperplane {x : <x, normals[i]> =
offsets[i]} in canonical form (lexicographically positive normal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry as geo
from . import stit
from .errors import ExplosionGuard
from .measure import (DrivingMeasure, _sampling_table, measure_hitting,
                      sample_hitting)


@dataclass(frozen=True, eq=False)
class PoissonHyperplanePattern:
    window: geo.Polytope
    rho: float
    normals: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_hyperplanes(cls, window: geo.Polytope, rho: float,
                         hs) -> PoissonHyperplanePattern:
        hs = tuple(hs)
        normals = np.array([h.u for h in hs], dtype=float).reshape(len(hs), window.dim)
        return cls(window, rho, normals, np.array([h.d for h in hs], dtype=float))

    @cached_property
    def hyperplanes(self) -> tuple[geo.Hyperplane, ...]:
        return tuple(geo.Hyperplane(tuple(u), d) for u, d in
                     zip(self.normals.tolist(), self.offsets.tolist()))


def simulate_pht(measure: DrivingMeasure, rho: float, window: geo.Polytope,
                 rng) -> PoissonHyperplanePattern:
    """Poisson(rho * mass(window)) hyperplanes, i.i.d. from the restriction.

    For a discrete measure, hyperplane i is drawn from the doubles 2i and
    2i + 1 after the Poisson count (axis, then offset), the order in which
    a loop of sample_hitting would consume them.
    """
    if not rho >= 0:  # also catches NaN
        raise ValueError(f"rho must be a non-negative number, got {rho!r}")
    mass, table = _sampling_table(measure, window)
    if rho * mass > stit.EVENT_CAP:
        raise ExplosionGuard(
            f"PHT with rho={rho:g} on a window of hitting mass {mass:g} expects "
            f"{rho * mass:g} hyperplanes, over the cap of {stit.EVENT_CAP}")
    count = int(rng.poisson(rho * mass)) if rho > 0 else 0
    if count > stit.EVENT_CAP:
        raise ExplosionGuard(
            f"PHT with rho={rho:g} on a window of hitting mass {mass:g} drew "
            f"{count} hyperplanes, over the cap of {stit.EVENT_CAP}")
    if table is None:
        hs = [sample_hitting(measure, window, rng) for _ in range(count)]
        return PoissonHyperplanePattern.from_hyperplanes(window, rho, hs)
    normals, cum, total, lo, span = table
    u = rng.random(2 * count).reshape(count, 2)
    k = np.minimum(np.searchsorted(cum, u[:, 0] * total), len(cum) - 1)
    return PoissonHyperplanePattern(window, rho, normals[k],
                                    lo[k] + span[k] * u[:, 1])


def empty_probability(measure: DrivingMeasure, rho: float, body) -> float:
    """P(no hyperplane of the pattern meets the body)."""
    return math.exp(-rho * measure_hitting(measure, body))


def tail_event_hits_ball(pattern: PoissonHyperplanePattern, body) -> bool:
    """Whether some hyperplane of the pattern meets the body."""
    lo, hi = geo.support_interval(body, pattern.normals)
    d = pattern.offsets
    return bool(((lo <= d) & (d <= hi)).any())


def pattern_to_json(pattern: PoissonHyperplanePattern) -> dict:
    return {
        "kind": "pht_pattern",
        "window": geo.polytope_to_json(pattern.window),
        "rho": pattern.rho,
        "hyperplanes": [{"u": u, "d": d} for u, d in
                        zip(pattern.normals.tolist(), pattern.offsets.tolist())],
    }
