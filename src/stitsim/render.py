"""SVG rendering of 2-D tessellations and hyperplane patterns.

One length unit maps to 100 px, strokes are 1 px; the y axis is flipped so
drawings match the usual mathematical orientation.  Paths are written from
the cells' padded vertex arrays (and a pattern's chord arrays): each
distinct coordinate is formatted once, and the paths with the same number
of points are one join.
"""

from __future__ import annotations

import numpy as np

from . import geometry as geo
from .config import number_texts, row_texts
from .pht import PoissonHyperplanePattern
from .stit import Tessellation

SCALE = 100.0


def _bbox(window) -> tuple[float, float, float, float]:
    v = window.vertices()
    return (float(v[:, 0].min()), float(v[:, 1].min()),
            float(v[:, 0].max()), float(v[:, 1].max()))


class _Canvas:
    def __init__(self, window):
        self.x0, self.y0, self.x1, self.y1 = _bbox(window)
        self.w = (self.x1 - self.x0) * SCALE
        self.h = (self.y1 - self.y0) * SCALE
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w:.0f}" '
            f'height="{self.h:.0f}" viewBox="0 0 {self.w:.2f} {self.h:.2f}">\n',
            f'<rect width="{self.w:.2f}" height="{self.h:.2f}" fill="white"/>\n',
        ]

    def paths(self, V: np.ndarray, count: np.ndarray, closed: bool):
        """One path per row i through its first count[i] points of V (m, K,
        2), in the padded layout, with coordinates as "%.2f" of the same
        doubles f"{v:.2f}" would print."""
        x = number_texts((V[..., 0] - self.x0) * SCALE, "%.2f")
        y = number_texts((self.y1 - V[..., 1]) * SCALE, "%.2f")
        tail = ("Z" if closed else "") + \
            '" fill="none" stroke="black" stroke-width="1"/>'
        lines = np.empty(len(count), dtype=object)
        for k in np.unique(count).tolist():
            rows = np.flatnonzero(count == k)
            pieces = []
            for j in range(k):
                pieces += ["L", x[rows, j], " ", y[rows, j]]
            lines[rows] = row_texts(['<path d="M'] + pieces[1:] + [tail])
        self.parts += [line + "\n" for line in lines.tolist()]

    def text(self) -> str:
        return "".join(self.parts) + "</svg>\n"


def render_tessellation(T: Tessellation) -> str:
    """One tessellation (T.n == 1) as SVG: its cells, then the window."""
    if T.window.dim != 2:
        raise ValueError("SVG rendering is 2-D only")
    cv = _Canvas(T.window)
    cv.paths(*T.cells.outlines(), closed=True)
    cv.paths(*geo.PolygonCells.tile(T.window, 1).outlines(), closed=True)
    return cv.text()


def _chords(normals: np.ndarray, offsets: np.ndarray, window):
    """Endpoints of each hyperplane's trace inside the window.

    Returns (keep, start, end): keep marks the rows whose trace has
    positive length, start and end are (count, 2) arrays.
    """
    v = np.stack([-normals[:, 1], normals[:, 0]], axis=1)
    p0 = offsets[:, None] * normals
    keep = np.ones(len(offsets), dtype=bool)
    t_lo = np.full(len(offsets), -np.inf)
    t_hi = np.full(len(offsets), np.inf)
    for n, c in window.facets():
        a = n[0] * v[:, 0] + n[1] * v[:, 1]
        b = c - (n[0] * p0[:, 0] + n[1] * p0[:, 1])
        parallel = np.abs(a) < 1e-14
        keep &= ~(parallel & (b < 0))
        t = b / np.where(parallel, 1.0, a)
        t_hi = np.where(~parallel & (a > 0), np.minimum(t_hi, t), t_hi)
        t_lo = np.where(~parallel & (a < 0), np.maximum(t_lo, t), t_lo)
    keep &= t_lo < t_hi
    return keep, p0 + t_lo[:, None] * v, p0 + t_hi[:, None] * v


def render_pattern(pattern: PoissonHyperplanePattern) -> str:
    """The pattern as SVG: each hyperplane's chord in the window, in draw
    order, then the window."""
    if pattern.window.dim != 2:
        raise ValueError("SVG rendering is 2-D only")
    cv = _Canvas(pattern.window)
    keep, start, end = _chords(pattern.normals, pattern.offsets, pattern.window)
    cv.paths(np.stack([start[keep], end[keep]], axis=1),
             np.full(int(keep.sum()), 2), closed=False)
    cv.paths(*geo.PolygonCells.tile(pattern.window, 1).outlines(),
             closed=True)
    return cv.text()
