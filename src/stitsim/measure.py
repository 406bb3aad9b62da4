"""Translation-invariant hyperplane measures of product form gamma * lambda x theta.

The directional part theta is either a discrete even distribution stored as
unoriented axes (one representative per +-u pair) or the uniform distribution
on the circle.  Directions are parameterized over [0, pi) throughout, so a
weight w_c is the full unoriented mass of its axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import geometry as geo
from .errors import RegimeMismatch, SamplerStall, UnsupportedSupport

# Fixed quadrature for the isotropic separating mass (measure_separating):
# 256 nodes on [0, pi).  Trapezoid coincides with the uniform node average
# for pi-periodic gaps, and its error is far below Monte-Carlo noise at the
# sample sizes used here.  The hitting mass needs none: by Cauchy's formula
# the mean width of a convex body is its perimeter over pi.
_N_QUAD = 256
_QUAD_ANGLES = np.arange(_N_QUAD) * math.pi / _N_QUAD
_QUAD_DIRS = np.stack([np.cos(_QUAD_ANGLES), np.sin(_QUAD_ANGLES)], axis=1)

_SAMPLER_CAP = 10 ** 6


@dataclass(frozen=True)
class Discrete:
    """Even discrete directional distribution on unoriented axes.

    axes: tuple of (direction tuple, weight); weights sum to 1.
    """

    axes: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        cleaned = []
        for u, w in self.axes:
            ua = geo.unit(u)
            if not geo._lex_positive(ua):
                ua = -ua
            if w <= 0:
                raise ValueError("directional weights must be positive")
            cleaned.append((tuple(float(x) for x in ua), float(w)))
        total = sum(w for _, w in cleaned)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"directional weights must sum to 1, got {total}")
        dim = len(cleaned[0][0])
        if any(len(u) != dim for u, _ in cleaned):
            raise ValueError("mixed direction dimensions")
        if dim == 2:
            non_parallel = {self._angle_key(u) for u, _ in cleaned}
            if len(non_parallel) < 2:
                raise UnsupportedSupport("need >= 2 non-parallel directions")
        object.__setattr__(self, "axes", tuple(cleaned))

    @staticmethod
    def _angle_key(u):
        return round(math.atan2(u[1], u[0]) % math.pi, 9)

    @property
    def dim(self) -> int:
        return len(self.axes[0][0])

    @cached_property
    def dir_array(self) -> np.ndarray:
        return np.asarray([u for u, _ in self.axes], dtype=float)

    @cached_property
    def weights(self) -> np.ndarray:
        return np.asarray([w for _, w in self.axes], dtype=float)

    def coordinate_axis_map(self) -> list[int] | None:
        """Per-entry coordinate axis index, or None if any entry is oblique."""
        out = [geo.coordinate_axis(u) for u, _ in self.axes]
        return None if None in out else out


@dataclass(frozen=True)
class Isotropic2D:
    """Uniform even directional distribution on the circle; plane only."""

    @property
    def dim(self) -> int:
        return 2


Directional = Discrete | Isotropic2D


@dataclass(frozen=True)
class DrivingMeasure:
    gamma: float
    directional: Directional

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    @property
    def dim(self) -> int:
        return self.directional.dim

    def axis_rates(self, ell: int) -> np.ndarray | None:
        """Per-coordinate-axis rates g_c when theta lives on the axes.

        Returns None for oblique or isotropic support.
        """
        if not isinstance(self.directional, Discrete):
            return None
        if self.directional.dim != ell:
            return None
        amap = self.directional.coordinate_axis_map()
        if amap is None:
            return None
        g = np.zeros(ell)
        for idx, c in enumerate(amap):
            g[c] += self.gamma * self.directional.weights[idx]
        if (g <= 0).any():
            return None
        return g


def box_axis_rates(measure: DrivingMeasure, window) -> np.ndarray | None:
    """Per-axis rates g_c when every cell of `window` stays a box: the window
    is a box and the measure lives on its coordinate axes.  None otherwise.

    This is the one test that selects the box regime's kernels (the STIT
    tree kernel and the rain lineage kernel).
    """
    if not isinstance(window, geo.Box):
        return None
    return measure.axis_rates(window.dim)


def axis_measure(g) -> DrivingMeasure:
    """Measure concentrated on the coordinate axes with per-axis rates g_c."""
    g = [float(x) for x in g]
    if any(x <= 0 for x in g):
        raise ValueError("axis rates must be positive")
    total = sum(g)
    ell = len(g)
    axes = []
    for c, gc in enumerate(g):
        u = tuple(1.0 if i == c else 0.0 for i in range(ell))
        axes.append((u, gc / total))
    return DrivingMeasure(total, Discrete(tuple(axes)))


def isotropic_measure(gamma: float = 1.0) -> DrivingMeasure:
    return DrivingMeasure(gamma, Isotropic2D())


def _check_regime(measure: DrivingMeasure, P) -> None:
    if isinstance(measure.directional, Isotropic2D):
        if P.dim != 2:
            raise RegimeMismatch("isotropic measure requires dimension 2")
    elif measure.directional.dim != P.dim:
        raise RegimeMismatch(
            f"measure dimension {measure.directional.dim} != body dimension {P.dim}")


def _discrete_widths(th: Discrete, P) -> np.ndarray:
    if isinstance(P, geo.Box):
        return np.abs(th.dir_array) @ (P.hi_arr - P.lo_arr)
    proj = P.vertices() @ th.dir_array.T
    return proj.max(axis=0) - proj.min(axis=0)


def measure_hitting(measure: DrivingMeasure, P) -> float:
    """Total mass of hyperplanes meeting P: gamma * sum_c w_c width_c(P) for
    a discrete measure, Cauchy's gamma * perimeter(P) / pi for the isotropic
    one (stit.grow_polygons computes the same per cell)."""
    _check_regime(measure, P)
    th = measure.directional
    if isinstance(th, Discrete):
        return measure.gamma * float(th.weights @ _discrete_widths(th, P))
    return measure.gamma * P.surface() / math.pi


def _projection_gaps(A, B, dirs: np.ndarray) -> np.ndarray:
    pa = A.vertices() @ dirs.T
    pb = B.vertices() @ dirs.T
    a_lo, a_hi = pa.min(axis=0), pa.max(axis=0)
    b_lo, b_hi = pb.min(axis=0), pb.max(axis=0)
    return np.maximum(0.0, np.maximum(b_lo - a_hi, a_lo - b_hi))


def measure_separating(measure: DrivingMeasure, A, B) -> float:
    """Mass of hyperplanes strictly separating A and B."""
    _check_regime(measure, A)
    th = measure.directional
    if isinstance(th, Discrete):
        gaps = _projection_gaps(A, B, th.dir_array)
        return measure.gamma * float(th.weights @ gaps)
    return measure.gamma * float(_projection_gaps(A, B, _QUAD_DIRS).mean())


@lru_cache(maxsize=64)
def _sampling_table(measure: DrivingMeasure, P):
    """(mass, table) for drawing many hyperplanes that meet P.

    mass is measure_hitting(measure, P).  For a discrete measure, table is
    (normals, cum, total, lo, span): the axis normals, the cumulative
    width-weighted axis probabilities and their total, and per axis the low
    end and the length of the offset range of the hyperplanes meeting P.
    These are the numbers sample_hitting computes on every draw, so the axis
    searchsorted(cum, U0 * total) and the offset lo + span * U1 repeat its
    draw from the same two doubles.  table is None for the isotropic
    measure.  The result is cached per (measure, P) and its arrays are
    read-only.
    """
    mass = measure_hitting(measure, P)
    th = measure.directional
    if not isinstance(th, Discrete):
        return mass, None
    probs = th.weights * _discrete_widths(th, P)
    lo = np.array([-geo.support_function(P, -u) for u in th.dir_array])
    hi = np.array([geo.support_function(P, u) for u in th.dir_array])
    normals, cum, span = th.dir_array.copy(), np.cumsum(probs), hi - lo
    for a in (normals, cum, lo, span):
        a.flags.writeable = False
    return mass, (normals, cum, probs.sum(), lo, span)


def sample_hitting(measure: DrivingMeasure, P, rng) -> geo.Hyperplane:
    """Draw a hyperplane from the normalized restriction of the measure to [P]."""
    _check_regime(measure, P)
    th = measure.directional
    if isinstance(th, Discrete):
        probs = th.weights * _discrete_widths(th, P)
        total = probs.sum()
        if total <= 0:
            raise SamplerStall("hitting mass is zero")
        k = min(int(np.searchsorted(np.cumsum(probs), rng.random() * total)),
                len(th.axes) - 1)
        u = th.dir_array[k]
    else:
        diam = P.diameter()
        for _ in range(_SAMPLER_CAP):
            phi = rng.uniform(0.0, math.pi)
            u = np.array([math.cos(phi), math.sin(phi)])
            if rng.random() * diam <= geo.width(P, u):
                break
        else:
            raise SamplerStall("isotropic direction sampler exceeded cap")
    lo, hi = -geo.support_function(P, -u), geo.support_function(P, u)
    d = rng.uniform(lo, hi)
    return geo.Hyperplane(tuple(u), d)
