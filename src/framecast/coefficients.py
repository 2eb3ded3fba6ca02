"""Closed-form transmission coefficients and sparse tensor assembly.

Every transmission objective is the expectation of a weighted sum
sum_ab c_ab R_ab of classical rotation-matrix entries, a quadratic form in
the sender amplitudes a_{jm} and the fiducial amplitudes b_{jm}. Its
coefficients come from one formula, `moment_entries`: each R_ab is a
combination of spin-1 D-matrix entries, so the coefficient of blocks (j, k)
is a product of two spin-1 Clebsch-Gordan coefficients. It vanishes outside
|j - k| <= 1. The z axis is c = diag(0, 0, 1) and the joint x and y axes are
c = diag(1, 1, 0); the brute-force quadrature oracle in `quadrature` checks
the assembled tensors entrywise without sharing this formula.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from types import MappingProxyType

import numpy as np

from .basis import flat_index


@dataclass(frozen=True)
class Objective:
    """Which axes to optimize: weights on the z term and on the joint xy term."""

    kind: str
    w_z: float
    w_xy: float

    _KINDS = ("z", "xy", "xyz", "weighted")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.w_z < 0 or self.w_xy < 0 or (self.w_z == 0 and self.w_xy == 0):
            raise ValueError("objective weights must be non-negative and not all zero")

    @classmethod
    def z_axis(cls) -> "Objective":
        return cls("z", 1.0, 0.0)

    @classmethod
    def xy_axes(cls) -> "Objective":
        return cls("xy", 0.0, 1.0)

    @classmethod
    def xyz_axes(cls) -> "Objective":
        return cls("xyz", 1.0, 1.0)

    @classmethod
    def weighted(cls, w_z: float, w_xy: float) -> "Objective":
        return cls("weighted", float(w_z), float(w_xy))

    @classmethod
    def from_kind(cls, kind: str, w_z: float | None = None, w_xy: float | None = None) -> "Objective":
        if kind == "weighted":
            return cls.weighted(w_z if w_z is not None else 1.0, w_xy if w_xy is not None else 1.0)
        return {"z": cls.z_axis, "xy": cls.xy_axes, "xyz": cls.xyz_axes}[kind]()

    @property
    def axis_count(self) -> int:
        """Number of axes being optimized (weighted counts axes with weight > 0)."""
        if self.kind == "z":
            return 1
        if self.kind == "xy":
            return 2
        if self.kind == "xyz":
            return 3
        return (1 if self.w_z > 0 else 0) + (2 if self.w_xy > 0 else 0)

    def to_json(self) -> dict:
        return {"kind": self.kind, "w_z": self.w_z, "w_xy": self.w_xy}

    @classmethod
    def from_json(cls, doc: dict) -> "Objective":
        return cls(doc["kind"], float(doc["w_z"]), float(doc["w_xy"]))


@dataclass(frozen=True)
class SparseCoefficientTensor:
    """Nonzero transmission coefficients keyed by (j, k, m, n, r, s).

    Entries stay within |j - k| <= 1 and satisfy the Hermitian symmetry
    entry(j,k,m,n,r,s) = conj(entry(k,j,n,m,s,r)), with n - m = mu and
    s - r = nu in {-1, 0, 1}. Objective tensors are real; tensors of single
    rotation-matrix entries (objective=None) may carry imaginary parts.
    """

    j_max: int
    objective: Objective | None
    entries: dict

    def __post_init__(self):
        # instances are shared through the assembly cache; freeze the mapping
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    @cached_property
    def _index_arrays(self):
        """Precomputed flat-index arrays for fast quadratic-form assembly."""
        vals = np.array(list(self.entries.values()))
        j, k, m, n, r, s = np.array(list(self.entries), dtype=np.intp).reshape(-1, 6).T
        return vals, flat_index(j, m), flat_index(k, n), flat_index(j, r), flat_index(k, s)

    def to_json(self) -> dict:
        if any(isinstance(v, complex) for v in self.entries.values()):
            raise ValueError("only real-valued tensors serialize to JSON")
        entries = [[*key, val] for key, val in sorted(self.entries.items())]
        objective = self.objective.to_json() if self.objective is not None else None
        return {"j_max": self.j_max, "objective": objective, "entries": entries}

    @classmethod
    def from_json(cls, doc: dict) -> "SparseCoefficientTensor":
        entries = {tuple(int(i) for i in row[:6]): float(row[6]) for row in doc["entries"]}
        objective = Objective.from_json(doc["objective"]) if doc["objective"] else None
        return cls(int(doc["j_max"]), objective, entries)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path) -> "SparseCoefficientTensor":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


# Columns are the spherical unit vectors e_{-1} = (x - iy)/sqrt2, e_0 = z and
# e_{+1} = -(x + iy)/sqrt2, split into an exact 0, +-1, +-i matrix and real
# per-pair scales, so Cartesian weights that cancel leave exact zeros.
_SPHERICAL = np.array([[1, 0, -1], [-1j, 0, -1j], [0, 1, 0]])
_SPHERICAL_SCALE = 1.0 / np.sqrt(np.outer([2, 1, 2], [2, 1, 2]))


def _spin_one_cg(j: int, k: int, mu: int) -> np.ndarray:
    """Clebsch-Gordan coefficients <j m; 1 mu | k m+mu> for m = -j..j.

    Condon-Shortley phases (Varshalovich, Moskalev & Khersonskii 1988, spin-1
    table) for k in {j, j + 1}, k = j needing j >= 1. Every radicand vanishes
    where m + mu falls outside block k, so those entries are exact zeros.
    """
    n = np.arange(-j, j + 1) + mu
    if k == j + 1:
        sign, den = 1, (2 * j + 1) * (2 * j + 2)
        num = ((j + n) * (j + n + 1) if mu == 1 else
               2 * (j - n + 1) * (j + n + 1) if mu == 0 else
               (j - n) * (j - n + 1))
    else:
        den = 2 * j * (j + 1)
        sign, num = ((-1, (j + n) * (j - n + 1)) if mu == 1 else
                     (np.sign(n), 2 * n * n) if mu == 0 else
                     (1, (j - n) * (j + n + 1)))
    return sign * np.sqrt(num / den)


def moment_entries(c, j_max: int) -> dict:
    """Nonzero coefficients of E[sum_ab c_ab R_ab], keyed by (j, k, m, n, r, s).

    The spherical components c_hat of the real 3x3 matrix c satisfy sum_ab c_ab R_ab
    = sum_{mu nu} c_hat_{mu nu} D^1_{mu nu}, and the Haar integral of
    D^j conj(D^k) D^1 is a product of two spin-1 Clebsch-Gordan coefficients.
    Each block pair (|j - k| <= 1) is therefore a sum of rank-1 terms
    sqrt((2j+1)/(2k+1)) c_hat_{mu nu} <j m; 1 mu|k n> <j r; 1 nu|k s> with
    n = m + mu and s = r + nu. Blocks with j > k are the conjugate mirror
    images of those with j < k, so the Hermitian symmetry of the tensor holds
    exactly. Values are floats when c_hat is real.
    """
    if j_max < 0:
        raise ValueError("j_max must be non-negative")
    c_hat = (_SPHERICAL.conj().T @ np.asarray(c) @ _SPHERICAL) * _SPHERICAL_SCALE
    if not np.any(c_hat.imag):
        c_hat = c_hat.real
    entries: dict = {}
    for j in range(j_max + 1):
        for k in range(j, min(j_max, j + 1) + 1):
            if k == 0:
                continue  # spin 1 does not couple the trivial block to itself
            cg = np.stack([_spin_one_cg(j, k, mu) for mu in (-1, 0, 1)])
            # block[mu + 1, m + j, nu + 1, r + j]
            block = (math.sqrt((2 * j + 1) / (2 * k + 1)) * c_hat[:, None, :, None]
                     * cg[:, :, None, None] * cg[None, None, :, :])
            mu, m, nu, r = np.nonzero(block)
            val = block[mu, m, nu, r]
            m, n, r, s = ((i - j).tolist() for i in (m, m + mu - 1, r, r + nu - 1))
            entries.update(zip(zip(repeat(j), repeat(k), m, n, r, s), val.tolist()))
            if k != j:
                entries.update(zip(zip(repeat(k), repeat(j), n, m, s, r), val.conj().tolist()))
    return entries


def assemble_tensor(objective: Objective, j_max: int) -> SparseCoefficientTensor:
    """Sparse coefficient tensor for the requested objective at block cutoff j_max.

    The z term scores R_zz and the joint xy term R_xx + R_yy, so the objective
    is the moment matrix diag(w_xy, w_xy, w_z).
    """
    c = np.diag([objective.w_xy, objective.w_xy, objective.w_z])
    return SparseCoefficientTensor(j_max, objective, moment_entries(c, j_max))


@lru_cache(maxsize=64)
def cached_tensor(objective: Objective, j_max: int) -> SparseCoefficientTensor:
    """Memoized assembly; tensors are immutable so sharing is safe."""
    return assemble_tensor(objective, j_max)
