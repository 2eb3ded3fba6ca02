"""Flat indexing of the (j, m) basis of the n-th level, j = 0..n-1, m = -j..j."""

from __future__ import annotations

import numpy as np


def total_dim(n: int) -> int:
    """Dimension of the n-th level: sum of (2j+1) over j < n, i.e. n**2."""
    return n * n


def flat_index(j: int, m: int) -> int:
    """Position of |j, m> in the flattened state vector (block j starts at j**2)."""
    return j * j + (m + j)


def block_slice(j: int) -> slice:
    """Slice covering the 2j+1 components of block j."""
    return slice(j * j, j * j + 2 * j + 1)


def block_norms(vec: np.ndarray, n: int) -> np.ndarray:
    """Euclidean norm of each block j < n of a flat state vector, in one reduction."""
    return np.sqrt(np.add.reduceat(vec.real**2 + vec.imag**2, np.arange(n) ** 2))


def iter_jm(n: int):
    """Yield (j, m) pairs in flat order."""
    for j in range(n):
        for m in range(-j, j + 1):
            yield j, m

