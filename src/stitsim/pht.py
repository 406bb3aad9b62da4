"""Poisson hyperplane patterns in a window and their avoidance probabilities.

A pattern is held as two arrays: unit normals (count, dim) and signed
offsets (count,), row i being the hyperplane {x : <x, normals[i]> =
offsets[i]} in canonical form (lexicographically positive normal).  A
batch of patterns is the same two arrays, the patterns' rows one after
another, plus their counts.  Rows are drawn through the window's
measure.Regime: in the box regime by the box drawer, in sample_hitting's
order of doubles, else by one call of the regime's line drawer on the
window broadcast to every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry as geo
from . import stit
from .config import Encoded, hyperplane_fields, objects_text
from .errors import ExplosionGuard
from .measure import (DrivingMeasure, box_table, draw_box_marks,
                      measure_hitting, regime)


@dataclass(frozen=True, eq=False)
class PoissonHyperplanePattern:
    window: geo.Polytope
    rho: float
    normals: np.ndarray
    offsets: np.ndarray

    @cached_property
    def hyperplanes(self) -> tuple[geo.Hyperplane, ...]:
        return tuple(geo.Hyperplane(tuple(u), d) for u, d in
                     zip(self.normals.tolist(), self.offsets.tolist()))


def draw_patterns(measure: DrivingMeasure, rho: float, window: geo.Polytope,
                  rng, size: int):
    """(counts, normals, offsets) of `size` independent patterns on one stream.

    The `size` Poisson(rho * mass(window)) counts come first, in one call,
    then the rows of pattern 0, 1, ... in order: pattern j is rows
    counts[:j].sum() up to counts[:j + 1].sum().  mass(window) is the
    rate of the window's regime (measure.regime).  In the box regime row i
    is the box drawer's mark from the doubles 2i and 2i + 1 after the
    counts (axis, then offset), the order in which a loop of sample_hitting
    would consume them.  Otherwise every row comes from one call of the
    regime's line drawer, normals in canonical form; the rows follow
    sample_hitting's law, not its draws.  Generator.poisson(lam, size)
    consumes the stream as `size` scalar calls do, so size 1 is exactly
    simulate_pht's draw.
    """
    if not rho >= 0:  # also catches NaN
        raise ValueError(f"rho must be a non-negative number, got {rho!r}")
    law = regime(measure, window)  # one cached call per chunk
    mass = law.rate
    if rho * mass > stit.EVENT_CAP:
        raise ExplosionGuard(
            f"PHT with rho={rho:g} on a window of hitting mass {mass:g} expects "
            f"{rho * mass:g} hyperplanes, over the cap of {stit.EVENT_CAP}")
    counts = (rng.poisson(rho * mass, size) if rho > 0
              else np.zeros(size, dtype=np.int64))
    if size and counts.max() > stit.EVENT_CAP:
        raise ExplosionGuard(
            f"PHT with rho={rho:g} on a window of hitting mass {mass:g} drew "
            f"{counts.max()} hyperplanes, over the cap of {stit.EVENT_CAP}")
    total = int(counts.sum())
    if law.cells is not geo.BoxCells:
        return counts, *geo.canonical_rows(*law.draw(rng, (total,)))
    u = rng.random(2 * total).reshape(total, 2)
    axis, offsets = draw_box_marks(box_table(measure, window), u[:, 0],
                                   u[:, 1])
    return counts, np.eye(window.dim).take(axis, axis=0), offsets


def simulate_pht(measure: DrivingMeasure, rho: float, window: geo.Polytope,
                 rng) -> PoissonHyperplanePattern:
    """Poisson(rho * mass(window)) hyperplanes, i.i.d. from the restriction:
    the one-pattern case of draw_patterns."""
    _, normals, offsets = draw_patterns(measure, rho, window, rng, 1)
    return PoissonHyperplanePattern(window, rho, normals, offsets)


def pattern_hits(counts: np.ndarray, normals: np.ndarray, offsets: np.ndarray,
                 bodies) -> np.ndarray:
    """(len(counts), len(bodies)) bools: whether some row of pattern j (laid
    out as draw_patterns returns them) meets body b.  A pattern with no rows
    meets nothing: each pattern's hits are a difference of running sums, not
    a reduceat, which would read the next row for an empty segment."""
    ends = np.cumsum(counts)
    out = np.empty((len(counts), len(bodies)), dtype=bool)
    for b, body in enumerate(bodies):
        lo, hi = geo.support_interval(body, normals)
        run = np.concatenate(([0], np.cumsum((lo <= offsets) & (offsets <= hi))))
        out[:, b] = run[ends] > run[ends - counts]
    return out


def empty_probability(measure: DrivingMeasure, rho: float, body) -> float:
    """P(no hyperplane of the pattern meets the body)."""
    return math.exp(-rho * measure_hitting(measure, body))


def tail_event_hits_ball(pattern: PoissonHyperplanePattern, body) -> bool:
    """Whether some hyperplane of the pattern meets the body."""
    lo, hi = geo.support_interval(body, pattern.normals)
    d = pattern.offsets
    return bool(((lo <= d) & (d <= hi)).any())


def pattern_to_json(pattern: PoissonHyperplanePattern) -> dict:
    """The pattern as plain JSON, its rows in draw order; the rows are a
    config.Encoded array, written from the normals and offsets."""
    return {
        "kind": "pht_pattern",
        "window": geo.polytope_to_json(pattern.window),
        "rho": pattern.rho,
        "hyperplanes": Encoded(objects_text(hyperplane_fields(
            pattern.normals, pattern.offsets))),
    }
