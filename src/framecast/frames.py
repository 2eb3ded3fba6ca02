"""Weighted direction sets as objectives.

Transmitting any weighted set of directions scores as a contraction of the
expected classical rotation matrix with the set's second-moment matrix c,
so `build_c` turns a set into an `Objective` like any preset. c
diagonalizes into three orthogonal axes with non-negative weights
(`Objective.axes`), so nothing beyond the weighted three-axis problem ever
arises. The expectation itself is one quadratic form
(`coefficients.moment_tensor`), and a general c costs one O(d)
`expectation`, as much as a diagonal one, with no d x d matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coefficients import Objective, SparseCoefficientTensor, moment_tensor
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
        vecs.flags.writeable = wts.flags.writeable = False
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "weights", wts)

    @classmethod
    def from_json(cls, doc: dict) -> "WeightedVectorSet":
        return cls(np.asarray(doc["vectors"], dtype=float), np.asarray(doc["weights"], dtype=float))

    def to_json(self) -> dict:
        return {"vectors": self.vectors.tolist(), "weights": self.weights.tolist()}


# perfbench's directions workload imports this name
GramLikeMatrix = Objective


def build_c(vector_set: WeightedVectorSet) -> Objective:
    """The objective of the set: its second-moment matrix sum of w e e^T."""
    c = np.einsum("u,um,un->mn", vector_set.weights, vector_set.vectors, vector_set.vectors)
    return Objective(0.5 * (c + c.T))


def reduce_to_axes(gram: Objective) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal axes (rows) and descending weights reconstructing c: `Objective.axes`."""
    return gram.axes


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
                                   gram: Objective) -> float:
    """Expected weighted sum of direction cosines, E[sum_ab c_ab R_ab], for the moment matrix."""
    if a.n != b.n:
        raise ValueError("state dimensions differ")
    return moment_tensor(gram.c, a.n - 1).expectation(a.a, b.b)
