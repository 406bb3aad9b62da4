"""SVG rendering of 2-D tessellations and hyperplane patterns.

One length unit maps to 100 px, strokes are 1 px; the y axis is flipped so
drawings match the usual mathematical orientation.  Paths are written from
the cells' padded vertex arrays (and a pattern's chord arrays) as bytes:
each coordinate's "%.2f" digits come from its double's integer cents, and
each paths call fills one byte matrix, a column per path, whose masked
bytes are the text.
"""

from __future__ import annotations

import numpy as np

from . import geometry as geo
from .pht import PoissonHyperplanePattern
from .stit import Tessellation

SCALE = 100.0


def _bbox(window) -> tuple[float, float, float, float]:
    v = window.verts
    return (float(v[:, 0].min()), float(v[:, 1].min()),
            float(v[:, 0].max()), float(v[:, 1].max()))


def _fixed2(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text "%.2f" % x of each double x of v, as (chars, used), uint8
    and bool arrays of shape (F,) + v.shape: x's text is chars[:, i] where
    used[:, i], right-aligned in F bytes.

    |x| = m 2**(e - 53) with m an integer below 2**53, so x holds exactly
    N / 2**s cents, N = 100 m < 2**60 and s = 53 - e; the cents are rounded
    half to even from the bits shifted out, as Python rounds.  A sign is
    written where signbit(x), -0.00 included.  Raises ValueError for
    non-finite values and for |x| >= 2**52."""
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError("%.2f texts need finite values")
    frac, e = np.frexp(np.abs(v))
    s = 53 - e.astype(np.int64)
    if (s < 1).any():
        raise ValueError("%.2f texts need |x| < 2**52")
    N = np.ldexp(frac, 53).astype(np.int64) * 100
    # N < 2**60, so a shift of 63 bits or more rounds to 0; the low s bits
    # carry into q when they exceed half of 2**s, or equal it and q is odd
    s = np.minimum(s, 63)
    q = (N + (np.int64(1) << (s - 1)) - 1 + ((N >> s) & 1)) >> s
    digits = max(3, len(str(int(q.max(initial=0)))))
    chars = np.empty((digits + 2,) + v.shape, dtype=np.uint8)
    used = np.ones(chars.shape, dtype=bool)
    for p in range(digits):
        row = digits + 1 - p - (p >= 2)  # 10**p cents; the point after p = 2
        if p >= 3:
            used[row] = q > 0
        q, chars[row] = np.divmod(q, 10)
    chars += ord("0")
    chars[0], used[0] = ord("-"), np.signbit(v)
    chars[-3] = ord(".")
    return chars, used


def _bytes(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), dtype=np.uint8)[:, None]


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
        doubles f"{v:.2f}" would print.  Column i of one byte matrix holds
        path i's line: the head, then per point "M" or "L", x, " " and y,
        then the tail, with the points past count[i], copies of point 0,
        masked out."""
        m, K = V.shape[:2]
        valid = np.arange(K)[:, None] < count
        xy = np.stack([(V[..., 0].T - self.x0) * SCALE,
                       (self.y1 - V[..., 1].T) * SCALE], axis=1)
        chars, used = _fixed2(xy)
        head = _bytes('<path d="')
        tail = _bytes(("Z" if closed else "") +
                      '" fill="none" stroke="black" stroke-width="1"/>\n')
        F = len(chars)
        mat = np.empty((len(head) + K * 2 * (F + 1) + len(tail), m),
                       dtype=np.uint8)
        msk = np.ones(mat.shape, dtype=bool)
        mat[:len(head)], mat[-len(tail):] = head, tail
        # point j of x (c = 0) or y (c = 1): a lead byte, then F digits
        pts = mat[len(head):-len(tail)].reshape(K, 2, F + 1, m)
        keep = msk[len(head):-len(tail)].reshape(K, 2, F + 1, m)
        pts[:, 0, 0], pts[0, 0, 0], pts[:, 1, 0] = ord("L"), ord("M"), ord(" ")
        pts[:, :, 1:] = chars.transpose(1, 2, 0, 3)
        keep[:, :, 1:] = used.transpose(1, 2, 0, 3)
        keep &= valid[:, None, None]
        self.parts.append(str(mat.T[msk.T], "ascii"))

    def text(self) -> str:
        return "".join(self.parts + ["</svg>\n"])


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
    for n, c in zip(window.facets[0].T, window.facets[1]):
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
