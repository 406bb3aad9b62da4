"""Counter-based random streams for reproducible replication.

Every unit of work draws from its own Philox stream keyed by (seed, index),
so results do not depend on the order units run in and two runs with the
same seed are bit-identical.  A unit is one replicate, or one chunk for the
batched kernels: a chunk of trees is keyed base + chunk, where the arms of
one experiment take bases 0, n, 2n, ... and an arm of n trees has at most
n chunks, so arms never share a stream.  A chunk of Poisson hyperplane
patterns is keyed the same way, base + chunk, with mixing_pht's grid point
j at base j * ceil(n / chunk size).

Several chunks of trees may grow in one generation loop as Lanes, each
chunk still drawing from its own stream: every draw over the rows at hand
takes lane c's rows, in row order, from stream c.  A zero-size draw leaves
a stream's state unchanged and draws of k and then j values equal one draw
of k + j, so each stream sees the same values it would see with its chunk
grown alone.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "run_replicates", "Lanes"]


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for replicate `index` of experiment `seed`."""
    if seed < 0 or index < 0:
        raise ValueError("seed and index must be non-negative")
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def run_replicates(fn, n: int, seed: int, base_index: int = 0):
    """Return [fn(i, stream(seed, base_index + i)) for i in range(n)]."""
    return [fn(i, stream(seed, base_index + i)) for i in range(n)]


class Lanes:
    """Generators drawn in lockstep: tree i draws from gens[lane[i]].  One
    generator needs no lane array (lane None)."""

    def __init__(self, gens, lane: np.ndarray | None = None):
        self.gens = list(gens)
        self.lane = lane if len(self.gens) > 1 else None

    def rows(self, rep: np.ndarray):
        """A Generator-like view for one draw per row of trees rep, sorted
        by lane: the generator itself for one lane."""
        if self.lane is None:
            return self.gens[0]
        # the rows are sorted by lane, so each lane's end is one search
        return _Rows(self.gens, np.searchsorted(
            self.lane.take(rep), np.arange(len(self.gens)), "right").tolist())

    def of(self, rep: np.ndarray) -> Lanes:
        """Lanes of new trees j, tree j on tree rep[j]'s lane."""
        return Lanes(self.gens, None if self.lane is None else self.lane[rep])

    def grouped(self, rep: np.ndarray):
        """The index that groups rows of trees rep stably by lane."""
        if self.lane is None:
            return slice(None)
        return np.argsort(self.lane[rep], kind="stable")


class _Rows:
    """random and standard_exponential over rows sorted by lane: rows
    ends[c - 1] to ends[c] take their values from gens[c]."""

    def __init__(self, gens, ends: list[int]):
        self.parts = [(g, a, b) for g, a, b in zip(gens, [0] + ends, ends)
                      if b > a]
        self.n = ends[-1]

    def _fill(self, draw, size):
        out = np.empty(size)
        if len(out) != self.n:
            raise ValueError(f"{len(out)} values asked of {self.n} rows")
        for g, a, b in self.parts:
            draw(g, out=out[a:b])
        return out

    def random(self, size):
        return self._fill(np.random.Generator.random, size)

    def standard_exponential(self, size):
        return self._fill(np.random.Generator.standard_exponential, size)
