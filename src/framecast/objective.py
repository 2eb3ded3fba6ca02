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

import numpy as np
import numpy.random

from .basis import block_norms, block_slice, flat_index, iter_jm, total_dim
from .coefficients import Objective, cached_tensor
from .so3 import AngularIndex

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
    """Amplitudes from state-file rows [j, m, re, im]: exactly one row per (j, m) of level n."""
    if len(rows) != total_dim(n):
        raise ValueError(f"expected {total_dim(n)} coefficient rows for n={n}, got {len(rows)}")
    vec = np.zeros(total_dim(n), dtype=complex)
    seen = set()
    for j, m, re, im in rows:
        index = AngularIndex(_integer(j), _integer(m))
        if index.j >= n:
            raise ValueError(f"coefficient block j={index.j} exceeds n-1={n - 1}")
        if index in seen:
            raise ValueError(f"duplicate coefficient row j={index.j}, m={index.m}")
        seen.add(index)
        vec[flat_index(index.j, index.m)] = re + 1j * im
    return vec


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
    """Detector fiducial amplitudes b_{jm}, unit norm within every j block.

    uniform_filled_blocks records blocks that were set to the uniform vector
    because the source amplitudes carried no weight there.
    """

    n: int
    b: np.ndarray
    uniform_filled_blocks: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        vec = _as_state_vector(self.n, self.b)
        bad = np.flatnonzero(~(np.abs(block_norms(vec, self.n) - 1.0) <= NORM_TOL))
        if bad.size:
            raise ValueError(f"fiducial block j={bad[0]} is not unit-normalized")
        object.__setattr__(self, "b", vec)
        object.__setattr__(self, "uniform_filled_blocks", tuple(self.uniform_filled_blocks))

    @classmethod
    def uniform(cls, n: int) -> "FiducialState":
        sizes = 2 * np.arange(n) + 1
        return cls(n, np.repeat(1.0 / np.sqrt(sizes), sizes))

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
    (1 - <cos w>)/2 over the axes the active objective optimizes. lam is the
    active objective's expectation value.
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

    Each cosine is the z or xy tensor's `expectation`, so no d x d matrix is built.
    """
    if a.n != b.n:
        raise ValueError("state dimensions differ")
    j_max = a.n - 1
    cos_z = cached_tensor(Objective.z_axis(), j_max).expectation(a.a, b.b)
    cos_xy = cached_tensor(Objective.xy_axes(), j_max).expectation(a.a, b.b)
    lam = objective.w_z * cos_z + objective.w_xy * cos_xy
    k = objective.axis_count
    active = (cos_z if objective.w_z > 0 else 0.0) + (cos_xy if objective.w_xy > 0 else 0.0)
    return FidelityReport(
        expect_cos_z=cos_z,
        expect_cos_xy=cos_xy,
        expect_cos_sum=cos_z + cos_xy,
        mse_per_axis=(k - active) / (2 * k),
        lam=lam,
    )
