"""Counter-based random streams for reproducible replication.

Every replicate draws from its own Philox stream keyed by (seed, index),
so results do not depend on the order replicates run in and two runs with
the same seed are bit-identical.
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
