"""Seed derivation helpers.

One master seed drives every randomized stage. Sub-seeds are derived with
splitmix64 so that stage k (or permutation replicate k) can be regenerated
in isolation without sharing sequential generator state, which keeps
replicates embarrassingly parallel and runs reproducible.
"""

from __future__ import annotations

import numpy as np

_M64 = (1 << 64) - 1


def splitmix64_array(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized splitmix64 on a uint64 array (wraparound arithmetic),
    computed in place in `out` when given (which may be `x` itself)."""
    out = np.add(x, np.uint64(0x9E3779B97F4A7C15), out=out)
    tmp = np.empty_like(out)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        out ^= np.right_shift(out, np.uint64(shift), out=tmp)
        out *= np.uint64(mult)
    out ^= np.right_shift(out, np.uint64(31), out=tmp)
    return out


def derive_seed(master: int, *indices: int) -> int:
    """Fold stage/replicate indices into the master seed, one round per index."""
    s = splitmix64_array(np.array([master & _M64], dtype=np.uint64))
    for ix in indices:
        s = splitmix64_array(s ^ np.uint64(ix & _M64))
    return int(s[0])


def generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & _M64))
