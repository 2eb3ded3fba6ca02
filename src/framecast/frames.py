"""Reduction of weighted direction sets to three orthogonal axes.

Transmitting any weighted set of directions scores as a contraction of the
expected classical rotation matrix with the set's second-moment matrix c;
that matrix diagonalizes into three orthogonal axes with non-negative
weights, so nothing beyond the weighted three-axis problem ever arises. The
expectation itself is one quadratic form (`coefficients.moment_tensor`), and
a general c costs one O(d) `expectation`, as much as a diagonal one, with no
d x d matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coefficients import SparseCoefficientTensor, moment_tensor
from .objective import AliceState, FiducialState


@dataclass(frozen=True)
class WeightedVectorSet:
    """Unit direction vectors with positive importance weights."""

    vectors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        vecs = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        wts = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if vecs.shape[0] == 0:
            raise ValueError("vector set must be non-empty")
        if vecs.shape[1] != 3 or wts.shape[0] != vecs.shape[0]:
            raise ValueError("need one 3-vector per weight")
        if np.any(np.abs(np.linalg.norm(vecs, axis=1) - 1.0) > 1e-12):
            raise ValueError("all vectors must be unit length within 1e-12")
        if np.any(wts <= 0.0):
            raise ValueError("weights must be positive")
        vecs.flags.writeable = False
        wts.flags.writeable = False
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "weights", wts)

    @classmethod
    def from_json(cls, doc: dict) -> "WeightedVectorSet":
        return cls(np.asarray(doc["vectors"], dtype=float), np.asarray(doc["weights"], dtype=float))

    @classmethod
    def load(cls, path) -> "WeightedVectorSet":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def to_json(self) -> dict:
        return {"vectors": self.vectors.tolist(), "weights": self.weights.tolist()}


@dataclass(frozen=True)
class GramLikeMatrix:
    """Symmetric positive-semidefinite 3x3 second-moment matrix."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (3, 3):
            raise ValueError("expected a 3x3 matrix")
        if np.max(np.abs(c - c.T)) > 1e-14:
            raise ValueError("matrix must be symmetric within 1e-14")
        if np.linalg.eigvalsh(c)[0] < -1e-12:
            raise ValueError("matrix must be positive semidefinite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "c", c)


def build_c(vector_set: WeightedVectorSet) -> GramLikeMatrix:
    """Weighted second-moment matrix sum of w e e^T over the set."""
    c = np.einsum("u,um,un->mn", vector_set.weights, vector_set.vectors, vector_set.vectors)
    return GramLikeMatrix(0.5 * (c + c.T))


def reduce_to_axes(gram: GramLikeMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal axes (rows) and weights reconstructing the moment matrix.

    Weights come out descending; each axis is sign-fixed so its
    largest-magnitude component is positive, and ties between equal weights
    are broken by putting the axis leaning on the earliest coordinate first.
    """
    evals, evecs = np.linalg.eigh(gram.c)
    order = np.argsort(evals)[::-1]
    axes = evecs[:, order].T.copy()
    weights = np.clip(evals[order], 0.0, None)
    for i in range(3):
        pivot = int(np.argmax(np.abs(axes[i])))
        if axes[i, pivot] < 0:
            axes[i] = -axes[i]
    tie_tol = 1e-12 * max(1.0, float(weights[0]))
    start = 0
    while start < 3:
        stop = start + 1
        while stop < 3 and weights[start] - weights[stop] <= tie_tol:
            stop += 1
        if stop - start > 1:
            cluster = sorted(range(start, stop), key=lambda i: int(np.argmax(np.abs(axes[i]))))
            axes[start:stop] = axes[cluster]
        start = stop
    return axes, weights


@lru_cache(maxsize=None)
def rotation_entry_tensor(row: int, col: int, j_max: int) -> SparseCoefficientTensor:
    """Coefficient tensor of the single rotation-matrix entry R_{row, col}, cached.

    Off-diagonal entries carry imaginary coefficients.
    """
    if not (0 <= row < 3 and 0 <= col < 3):
        raise ValueError("rotation entries are indexed 0..2")
    unit = np.zeros((3, 3))
    unit[row, col] = 1.0
    return moment_tensor(unit, j_max)


def weighted_objective_expectation(a: AliceState, b: FiducialState,
                                   gram: GramLikeMatrix) -> float:
    """Expected weighted sum of direction cosines, E[sum_ab c_ab R_ab], for the moment matrix."""
    if a.n != b.n:
        raise ValueError("state dimensions differ")
    return moment_tensor(gram.c, a.n - 1).expectation(a.a, b.b)
