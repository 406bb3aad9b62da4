"""Encapsulation of an inner window by the origin cell, and its probability bound.

The origin cell encapsulates the inner window W' inside W at time t when
W' lies inside the cell and the cell lies strictly inside W.  A sufficient
event for encapsulation by time t is that one hyperplane lands in each of
q disjoint separating bands before any hyperplane meets W' and before t;
this yields a closed-form lower bound on P(encapsulation time <= t), with
equality for the axis-orthogonal measure on concentric boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import geometry as geo
from .errors import UnsupportedSupport
from .measure import DrivingMeasure, Isotropic2D, measure_hitting

# Facet offset, band interval and isotropic arc half-width of the adapted
# window construction (0 < BAND[0] < BAND[1] < OFFSET).  The values are
# sufficient, not optimal.
OFFSET = 3.0
BAND = (1.0, 2.0)
ARC_HALF_WIDTH = math.pi / 16.0
# Simpson panels of the bound integral when there are too many bands to
# sum the inclusion-exclusion terms.
SIMPSON_PANELS = 4096


@dataclass(frozen=True)
class Band:
    """Separating hyperplane band: directions near `u`, oriented distance in
    (d_lo, d_hi).

    `half_width` is the angular radius of the direction set (0 for a single
    direction) and `mass` its measure.
    """

    u: tuple[float, ...]
    d_lo: float
    d_hi: float
    half_width: float
    mass: float

    def marks_in(self, normals, offsets) -> np.ndarray:
        """Which hyperplanes {x : <x, normals[...]> = offsets[...]} (box
        marks as their exact unit normals) belong to the band, each taken in
        the orientation closest to u."""
        cos = normals @ np.asarray(self.u, dtype=float)
        d = np.where(cos >= 0, offsets, -offsets)
        lim = 1.0 - 1e-12 if self.half_width == 0.0 else math.cos(self.half_width)
        return (np.abs(cos) >= lim) & (self.d_lo < d) & (d < self.d_hi)


@dataclass(frozen=True)
class BoundParams:
    lambda_inner: float
    band_masses: tuple[float, ...]

    def __post_init__(self):
        if not (self.lambda_inner > 0 and all(m > 0 for m in self.band_masses)):
            raise ValueError("bound parameters must be positive")

    @property
    def q(self) -> int:
        return len(self.band_masses)


@dataclass(frozen=True)
class EncapsulationProblem:
    inner: geo.Polytope
    outer: geo.Polytope
    measure: DrivingMeasure
    bands: tuple[Band, ...]

    def params(self) -> BoundParams:
        return BoundParams(measure_hitting(self.measure, self.inner),
                           tuple(b.mass for b in self.bands))


def _facet_toward(outer, u) -> int:
    """Index of the outer facet whose outward normal best matches u."""
    return int(np.argmax(np.asarray(u) @ outer.facets[0]))


def lower_bound(t: float, params: BoundParams) -> float:
    """Closed-form lower bound on P(encapsulation time <= t).

    Exact 2^q expansion of the product integrand for q <= 20, adaptive
    Simpson quadrature above; the result is a probability, non-decreasing
    in t and in every band mass.
    """
    if not t >= 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return 0.0
    lam = params.lambda_inner
    ms = params.band_masses
    closed = math.exp(-t * lam) if not math.isinf(t) else 0.0
    if closed > 0.0:
        for m in ms:
            closed *= -math.expm1(-t * m)
    if params.q <= 20:
        integral = 0.0
        for k in range(params.q + 1):
            for sub in combinations(ms, k):
                r = lam + sum(sub)
                frac = 1.0 if math.isinf(t) else -math.expm1(-t * r)
                integral += (-1) ** k * (lam / r) * frac
    else:
        integral = _simpson_bound_integral(t, lam, ms)
    return min(1.0, max(0.0, closed + integral))


def _simpson_bound_integral(t, lam, ms):
    hi = min(t, 50.0 / lam)
    xs = np.linspace(0.0, hi, 2 * SIMPSON_PANELS + 1)
    ys = lam * np.exp(-lam * xs)
    for m in ms:
        ys = ys * (-np.expm1(-m * xs))
    w = np.ones_like(xs)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((ys * w).sum() * (xs[1] - xs[0]) / 3.0)


def build_window(inner: geo.Polytope,
                 measure: DrivingMeasure) -> EncapsulationProblem:
    """Adapt an outer window and disjoint separating bands to the measure.

    Facet normals come from the directional support (coordinate axes, the
    discrete directions, or the four coordinate directions for isotropic
    measures); each facet sits OFFSET beyond the support function h of the
    inner window and its band occupies oriented distances in
    (h + BAND[0], h + BAND[1]).
    """
    if not geo.origin_strictly_inside(inner):
        raise ValueError("inner window must contain the origin strictly")
    th = measure.directional
    if isinstance(th, Isotropic2D):
        dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                np.array([-1.0, 0.0]), np.array([0.0, -1.0])]
        theta_w = None
    else:
        dirs = []
        theta_w = []
        for u, w in zip(th.dir_array, th.weights):
            dirs.extend([np.asarray(u), -np.asarray(u)])
            theta_w.extend([float(w), float(w)])
        if not _positively_spans(dirs):
            raise UnsupportedSupport("directions do not positively span the space")

    outer = _window_from_dirs(inner, dirs)

    bands = []
    for a, u in enumerate(dirs):
        h = geo.support_function(inner, u)
        d_lo, d_hi = h + BAND[0], h + BAND[1]
        if isinstance(th, Isotropic2D):
            hw = _shrink_arc(inner, outer, u, d_lo, d_hi)
            mass = measure.gamma * (2.0 * hw / math.pi) * (d_hi - d_lo)
        else:
            hw = 0.0
            mass = measure.gamma * theta_w[a] * (d_hi - d_lo)
        bands.append(Band(tuple(u), d_lo, d_hi, hw, mass))
    return EncapsulationProblem(inner=inner, outer=outer,
                                measure=measure, bands=tuple(bands))


def _positively_spans(dirs) -> bool:
    """Origin interior to the convex hull of the directions (2-D support)."""
    if len(dirs[0]) != 2:
        # box regime: require every coordinate direction
        axes = {geo.coordinate_axis(u) for u in dirs}
        return axes >= set(range(len(dirs[0])))
    angles = sorted(math.atan2(u[1], u[0]) for u in dirs)
    gaps = [angles[i + 1] - angles[i] for i in range(len(angles) - 1)]
    gaps.append(2 * math.pi - (angles[-1] - angles[0]))
    return max(gaps) < math.pi - 1e-12


def _window_from_dirs(inner, dirs):
    """Intersection of half-spaces at support + OFFSET along each direction."""
    axis_vals = {}
    oblique = False
    ell = len(dirs[0])
    for u in dirs:
        ax = geo.coordinate_axis(u)
        if ax is not None:
            axis_vals[(ax, u[ax] > 0)] = geo.support_function(inner, u) + OFFSET
        else:
            oblique = True
    if not oblique:
        lo = [-axis_vals[(c, False)] for c in range(ell)]
        hi = [axis_vals[(c, True)] for c in range(ell)]
        return geo.Box(tuple(lo), tuple(hi))
    # general 2-D polygon: clip a generous bounding box by every constraint
    bound = max(geo.support_function(inner, u) for u in dirs) + OFFSET
    cur = geo.Box((-2 * bound,) * 2, (2 * bound,) * 2).to_polygon()
    for u in dirs:
        c = geo.support_function(inner, u) + OFFSET
        cur = geo.clip_tolerant(cur, np.asarray(u), c)
        if cur is None:
            raise UnsupportedSupport("window construction produced empty set")
    return cur


def _shrink_arc(inner, outer, u, d_lo, d_hi):
    """Largest arc half-width (up to ARC_HALF_WIDTH) whose extreme hyperplanes
    still separate the inner window from the facet."""
    facet = geo.facet_body(outer, _facet_toward(outer, u))
    phi0 = math.atan2(u[1], u[0])

    def ok(hw: float) -> bool:
        for phi in (phi0 - hw, phi0 + hw):
            for d in (d_lo + 1e-9, d_hi - 1e-9):
                h = geo.Hyperplane((math.cos(phi), math.sin(phi)), d)
                if not geo.separates(h, inner, facet):
                    return False
        return True

    hw = ARC_HALF_WIDTH
    for _ in range(20):
        if ok(hw):
            return hw
        hw /= 2.0
    raise UnsupportedSupport("no separating arc found")
