"""Counter-based random streams for reproducible replication.

Every unit of work draws from its own Philox stream keyed by (seed, index),
so results do not depend on the order units run in and two runs with the
same seed are bit-identical.  A unit is one replicate, or one batch for the
batched kernels: a chunk of trees grown together is keyed base + chunk,
where the arms of one experiment take bases 0, n, 2n, ... and an arm of n
trees has at most n chunks, so arms never share a stream.  A chunk of
Poisson hyperplane patterns is keyed the same way, base + chunk, with
mixing_pht's grid point j at base j * ceil(n / chunk size).
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "run_replicates"]


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
