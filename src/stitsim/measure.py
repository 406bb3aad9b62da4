"""Translation-invariant hyperplane measures of product form gamma * lambda x theta.

The directional part theta is either a discrete even distribution stored as
unoriented axes (one representative per +-u pair) or the uniform distribution
on the circle.  Directions are parameterized over [0, pi) throughout, so a
weight w_c is the full unoriented mass of its axis.

The STIT trees, the rain lineages and the PHT patterns draw hyperplanes in
bulk through one drawer per geometry regime, picked with box_axis_rates:
the box drawer (box_table, draw_box_marks) for an axis measure on a box,
the line drawer (draw_lines) for every other planar case, which draws an
isotropic direction exactly from the cell's edges.  sample_hitting, one
hyperplane at a time, is their scalar reference.

A Regime is the measure's law on one window as the tree and rain kernels
read it: the window's cell type (geometry.BoxCells or PolygonCells), its
hitting mass and drawer, each cell's hitting mass, and one mark drawn from
each cell's own law.  box_regime and polygon_regime build it, and regime
picks between them for the trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

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
    tree kernel, the rain lineage kernel and the box drawer).
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
    one (a Regime's masses computes the same for a batch of cells)."""
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
def box_table(measure: DrivingMeasure, window):
    """The box drawer's table: (rate, cum, lo, side), rate the window's
    hitting mass g . side, cum the cumulative axis probabilities
    cumsum(g * side) / rate, lo and side the window's low corner and side
    lengths; None outside the box regime (box_axis_rates None).  The result
    is cached per (measure, window) and its arrays are read-only.
    """
    g = box_axis_rates(measure, window)
    if g is None:
        return None
    side = window.hi_arr - window.lo_arr
    rate = float(g @ side)
    cum, lo = np.cumsum(g * side) / rate, window.lo_arr.copy()
    for a in (cum, lo, side):
        a.flags.writeable = False
    return rate, cum, lo, side


def draw_box_marks(table, u_axis, u_offset):
    """(axes, offsets) of box marks, from the caller's uniforms (any shape):
    an axis with probability g_c side_c / rate by one left searchsorted of
    u_axis in the table's cum, an offset uniform on the window's side along
    it from u_offset."""
    _, cum, lo, side = table
    axis = np.minimum(np.searchsorted(cum, u_axis), len(cum) - 1)
    return axis, lo[axis] + u_offset * side[axis]


def draw_lines(rng, measure: DrivingMeasure, V: np.ndarray):
    """One line per cell from the measure restricted to the lines meeting
    it, in sample_hitting's law: a discrete axis with probability w_c
    width_c / sum, or an isotropic normal turned by arcsin(2U - 1) from an
    edge e picked with probability |e| / perimeter, modulo pi (the width
    along u is half the sum of |<e, u>|, so this is exact), then an offset
    uniform in the cell's support interval; 2m uniforms, 3m isotropic.
    V (m, K, dim) holds the cells' vertices in cyclic order (padded, or
    one window broadcast to every row).  Returns (normals, offsets)."""
    m = len(V)
    th = measure.directional
    rows = np.arange(m)
    # a window broadcast to all rows (stride 0) is measured once
    W = V[:1] if V.strides[0] == 0 else V
    if isinstance(th, Discrete):
        proj = W @ th.dir_array.T
        lo, hi = proj.min(axis=1), proj.max(axis=1)
        weight = th.weights * (hi - lo)
    else:
        # padding edges have length 0, so they are never picked
        e = np.roll(W, -1, axis=1) - W
        weight = np.hypot(e[..., 0], e[..., 1])
    cum = np.cumsum(weight, axis=1)
    x = rng.random(m) * np.broadcast_to(cum[:, -1], m)
    k = np.minimum((cum < x[:, None]).sum(axis=1), weight.shape[1] - 1)
    if isinstance(th, Discrete):
        u = th.dir_array[k]
        lo, hi = (np.broadcast_to(a, (m, a.shape[1]))[rows, k] for a in (lo, hi))
    else:
        ek = np.broadcast_to(e, V.shape)[rows, k]
        phi = (np.arctan2(ek[:, 1], ek[:, 0])
               + np.arcsin(2.0 * rng.random(m) - 1.0)) % math.pi
        u = np.column_stack([np.cos(phi), np.sin(phi)])
        proj = geo.project(V, u)
        lo, hi = proj.min(axis=1), proj.max(axis=1)
    return u, lo + rng.random(m) * (hi - lo)


def _stall(undrawn: int, m: int) -> SamplerStall:
    return SamplerStall(f"isotropic direction sampler stopped with {undrawn} "
                        f"of {m} rows undrawn after its cap of {_SAMPLER_CAP} "
                        f"rounds")


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
            raise _stall(1, 1)
    lo, hi = -geo.support_function(P, -u), geo.support_function(P, u)
    d = rng.uniform(lo, hi)
    return geo.Hyperplane(tuple(u), d)


class Regime(NamedTuple):
    """The measure's law on one window, as the tree and rain kernels read it.

    cells is the window's cell type and rate its hitting mass.  draw(rng,
    shape) gives marks (u, d) of that shape from the window's law,
    masses(cells) each cell's hitting mass, and mark(rng, cells) one mark
    per cell from the measure restricted to the hyperplanes meeting it.
    """

    cells: type
    rate: float
    draw: Callable
    masses: Callable
    mark: Callable


def box_regime(measure: DrivingMeasure, window: geo.Box) -> Regime:
    """Box cells cut by marks (axis, offset) from the box drawer; a cell's
    mass is g . side, and its own mark takes an axis with probability
    g_c side_c / mass and an offset uniform along that side."""
    table, g = box_table(measure, window), box_axis_rates(measure, window)

    def mark(rng, cells):
        side = cells.hi - cells.lo
        rows = np.arange(len(side))
        cum = np.cumsum(g * side, axis=1)
        x = rng.random(len(side)) * cum[:, -1]
        axis = np.minimum((x[:, None] >= cum).sum(axis=1), len(g) - 1)
        return axis, (cells.lo[rows, axis]
                      + rng.random(len(side)) * side[rows, axis])

    return Regime(geo.BoxCells, table[0],
                  lambda rng, shape: draw_box_marks(
                      table, rng.random(shape), rng.random(shape)),
                  lambda cells: (cells.hi - cells.lo) @ g, mark)


def polygon_regime(measure: DrivingMeasure, window) -> Regime:
    """Padded polygon cells cut by lines from the line drawer; a cell's mass
    is gamma * sum_c w_c width_c(cell) for a discrete measure and Cauchy's
    gamma * perimeter / pi for the isotropic one."""
    wv = geo.polygon_vertices(window)
    th = measure.directional

    def draw(rng, shape):
        us, ds = draw_lines(rng, measure, np.broadcast_to(
            wv, (math.prod(shape),) + wv.shape))
        return us.reshape(shape + (2,)), ds.reshape(shape)

    def masses(cells):
        if isinstance(th, Discrete):
            proj = cells.V @ th.dir_array.T
            return measure.gamma * ((proj.max(axis=1) - proj.min(axis=1))
                                    @ th.weights)
        return measure.gamma * cells.surfaces() / math.pi

    return Regime(geo.PolygonCells, measure_hitting(measure, window), draw,
                  masses, lambda rng, cells: draw_lines(rng, measure, cells.V))


def regime(measure: DrivingMeasure, window) -> Regime:
    """The trees' regime on `window`: box_regime where box_axis_rates holds
    (every cell stays a box), else polygon_regime."""
    if box_axis_rates(measure, window) is None:
        return polygon_regime(measure, window)
    return box_regime(measure, window)
