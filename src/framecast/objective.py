"""Signal and fiducial states, the induced Hermitian form, and error reports.

The expected value of any transmission objective is <A|M|A>, where M is
Hermitian by construction and the fiducial amplitudes enter it through three
scalars per coupled block pair. The reports take it in O(d) from
`SparseCoefficientTensor.expectation`; M itself exists only as the O(d)
`SparseCoefficientTensor.operator`, and the tests hold the dense d x d form,
summed from the coefficient entries, as their oracle. Per-axis mean square
errors follow from the expected cosines as (1 - <cos w>)/2 per axis.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NoReturn

import numpy as np
import numpy.random

from .basis import block_norms, block_slice, flat_index, iter_jm, total_dim
from .coefficients import Objective, cached_tensor

NORM_TOL = 1e-12


def _as_state_vector(n: int, coefficients) -> np.ndarray:
    vec = np.asarray(coefficients, dtype=complex).reshape(-1)
    if vec.size != total_dim(n):
        raise ValueError(f"expected {total_dim(n)} coefficients for n={n}, got {vec.size}")
    vec = vec.copy()
    vec.flags.writeable = False
    return vec


def _coeff_rows(vec: np.ndarray, n: int) -> list:
    return [[j, m, float(vec[flat_index(j, m)].real), float(vec[flat_index(j, m)].imag)]
            for j, m in iter_jm(n)]


def _integer(value) -> int:
    """An index read from a state file; 2.5, a string or inf is an error, not truncated."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"expected an integer index, got {value!r}")
    return int(value)


def _vec_from_rows(n: int, rows) -> np.ndarray:
    """Amplitudes from state-file rows [j, m, re, im]: exactly one row per (j, m) of level n.

    The rows are checked as one array: integer indices in range, each (j, m)
    once. A refused file is reported by _refuse_rows, at its first bad row.
    """
    size = total_dim(n)
    if len(rows) != size:
        raise ValueError(f"expected {size} coefficient rows for n={n}, got {len(rows)}")
    try:
        table = np.array(rows)
    except ValueError:  # rows of different lengths
        _refuse_rows(n, rows)
    if table.shape != (size, 4) or table.dtype.kind not in "biuf":
        _refuse_rows(n, rows)
    j, m, re, im = table.astype(float).T
    if not ((j == np.round(j)) & (m == np.round(m)) & (0 <= j) & (j < n) & (np.abs(m) <= j)).all():
        _refuse_rows(n, rows)
    index = flat_index(j, m).astype(np.int64)
    if np.bincount(index, minlength=size).max() > 1:
        _refuse_rows(n, rows)
    vec = np.zeros(size, dtype=complex)
    vec.real[index], vec.imag[index] = re, im
    return vec


def _refuse_rows(n: int, rows) -> NoReturn:
    """Raise the error of the first row that is not [j, m, re, im] with a new (j, m) of level n."""
    seen = set()
    for j, m, re, im in rows:
        j, m = _integer(j), _integer(m)
        if not (0 <= j < n and abs(m) <= j):
            raise ValueError(f"invalid coefficient index (j={j}, m={m}) for n={n}")
        if flat_index(j, m) in seen:
            raise ValueError(f"duplicate coefficient row j={j}, m={m}")
        seen.add(flat_index(j, m))
        re + 1j * im  # a non-number raises TypeError here
    raise ValueError("coefficient rows must hold four numbers each")


@dataclass(frozen=True)
class AliceState:
    """Sender amplitudes a_{jm} over the full level, unit total norm."""

    n: int
    a: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        vec = _as_state_vector(self.n, self.a)
        if not abs(np.linalg.norm(vec) - 1.0) <= NORM_TOL:  # NaN compares false
            raise ValueError("signal amplitudes must have unit total norm")
        object.__setattr__(self, "a", vec)

    def block(self, j: int) -> np.ndarray:
        return self.a[block_slice(j)]

    def to_json(self) -> dict:
        return {"n": self.n, "coefficients": _coeff_rows(self.a, self.n)}

    @classmethod
    def from_json(cls, doc: dict) -> "AliceState":
        n = _integer(doc["n"])
        return cls(n, _vec_from_rows(n, doc["coefficients"]))


@dataclass(frozen=True)
class FiducialState:
    """Detector fiducial amplitudes b_{jm}, unit norm within every j block."""

    n: int
    b: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        vec = _as_state_vector(self.n, self.b)
        bad = np.flatnonzero(~(np.abs(block_norms(vec, self.n) - 1.0) <= NORM_TOL))
        if bad.size:
            raise ValueError(f"fiducial block j={bad[0]} is not unit-normalized")
        object.__setattr__(self, "b", vec)

    @classmethod
    def uniform(cls, n: int) -> "FiducialState":
        sizes = 2 * np.arange(n) + 1
        return cls(n, np.repeat(1.0 / np.sqrt(sizes), sizes))

    @classmethod
    def stretched(cls, n: int) -> "FiducialState":
        """b_j = |j, j>, the stretched state of every block."""
        j = np.arange(n)
        vec = np.zeros(total_dim(n))
        vec[flat_index(j, j)] = 1.0
        return cls(n, vec)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "FiducialState":
        raw = rng.standard_normal(total_dim(n)) + 1j * rng.standard_normal(total_dim(n))
        vec = np.empty_like(raw)
        for j in range(n):
            sl = block_slice(j)
            vec[sl] = raw[sl] / np.linalg.norm(raw[sl])
        return cls(n, vec)

    def block(self, j: int) -> np.ndarray:
        return self.b[block_slice(j)]

    def to_json(self) -> dict:
        return {"n": self.n, "coefficients": _coeff_rows(self.b, self.n)}

    @classmethod
    def from_json(cls, doc: dict) -> "FiducialState":
        n = _integer(doc["n"])
        return cls(n, _vec_from_rows(n, doc["coefficients"]))


@dataclass(frozen=True)
class FidelityReport:
    """Expected error cosines and the per-axis mean square error.

    expect_cos_xy is the x and y contributions combined; mse_per_axis averages
    (1 - <cos w>)/2 over the axes the objective weights, the range of its c.
    lam is the objective's expectation value.
    """

    expect_cos_z: float
    expect_cos_xy: float
    expect_cos_sum: float
    mse_per_axis: float
    lam: float

    def to_json(self) -> dict:
        return {
            "expect_cos_z": self.expect_cos_z,
            "expect_cos_xy": self.expect_cos_xy,
            "expect_cos_sum": self.expect_cos_sum,
            "mse_per_axis": self.mse_per_axis,
            "lambda": self.lam,
        }


def fidelity_report(a: AliceState, b: FiducialState,
                    objective: Objective = Objective.xyz_axes()) -> FidelityReport:
    """Expected cosines of the state pair, scored under the given objective.

    Every value is a cached tensor's `expectation`, so no d x d matrix is
    built and lam is the number the optimizer reports for the same pair. The
    mean square error averages over the axes c weights: its support.
    """
    if a.n != b.n:
        raise ValueError("state dimensions differ")
    cos_z, cos_xy, lam, active = (
        cached_tensor(scored, a.n - 1).expectation(a.a, b.b)
        for scored in (Objective.z_axis(), Objective.xy_axes(), objective, objective.support))
    k = objective.axis_count
    return FidelityReport(cos_z, cos_xy, cos_z + cos_xy, (k - active) / (2 * k), lam)
