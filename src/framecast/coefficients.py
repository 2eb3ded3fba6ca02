"""Closed-form transmission coefficients in factored form.

Every transmission objective is the expectation of a weighted sum
sum_ab c_ab R_ab of classical rotation-matrix entries, a quadratic form in
the sender amplitudes a_{jm} and the fiducial amplitudes b_{jm}. Its
coefficients are rank-1 terms c_hat_{mu nu} cg_mu cg_nu in spin-1
Clebsch-Gordan vectors that depend on j_max alone (`moment_tensor`), so a
tensor stores only the 3x3 spherical moment c_hat of c. `operator` builds
the objective matrix from it as its O(d) nonzeros, the only form of that
matrix in the package. `block` and `entries` expand the coefficients for the
brute-force quadrature oracle in `quadrature`, which shares nothing with
this formula, and for the tests, whose dense reference matrix is summed
from `entries`. The z axis is c = diag(0, 0, 1) and the joint x and y axes
are c = diag(1, 1, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from types import MappingProxyType
from typing import NamedTuple

import numpy as np


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
        in_range = all(0 <= w < math.inf for w in (self.w_z, self.w_xy))
        if not in_range or (self.w_z == 0 and self.w_xy == 0):
            raise ValueError("objective weights must be finite, non-negative and not all zero")

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
        """Number of axes being optimized: z if w_z > 0, x and y if w_xy > 0."""
        return int(self.w_z > 0) + 2 * int(self.w_xy > 0)

    def to_json(self) -> dict:
        return {"kind": self.kind, "w_z": self.w_z, "w_xy": self.w_xy}


# Columns are the spherical unit vectors e_{-1} = (x - iy)/sqrt2, e_0 = z and
# e_{+1} = -(x + iy)/sqrt2, split into an exact 0, +-1, +-i matrix and real
# per-pair scales, so Cartesian weights that cancel leave exact zeros.
_SPHERICAL = np.array([[1, 0, -1], [-1j, 0, -1j], [0, 1, 0]])
_SPHERICAL_SCALE = 1.0 / np.sqrt(np.outer([2, 1, 2], [2, 1, 2]))


def _spin_one_cg(j: int, k: int) -> np.ndarray:
    """Clebsch-Gordan coefficients <j m; 1 mu | k m+mu>, rows mu = -1, 0, 1, columns m = -j..j.

    Condon-Shortley phases (Varshalovich, Moskalev & Khersonskii 1988, spin-1
    table) for k in {j, j + 1}, k = j needing j >= 1. Every radicand vanishes
    where m + mu falls outside block k, so those entries are exact zeros.
    """
    mu = np.arange(-1, 2)[:, None]
    n = np.arange(-j, j + 1) + mu
    if k == j + 1:
        sign, den = 1, (2 * j + 1) * (2 * j + 2)
        num = np.choose(mu + 1, [(j - n) * (j - n + 1), 2 * (j - n + 1) * (j + n + 1),
                                 (j + n) * (j + n + 1)])
    else:
        den = 2 * j * (j + 1)
        sign = np.choose(mu + 1, [1, np.sign(n), -1])
        num = np.choose(mu + 1, [(j - n) * (j + n + 1), 2 * n * n, (j + n) * (j - n + 1)])
    return sign * np.sqrt(num / den)


_Plan = NamedTuple("_Plan", [(field, np.ndarray) for field in (
    "rows", "cols", "cg", "segment", "starts", "weight",
    "order", "slot_starts", "slot_rows", "slot_cols", "row_starts")])


@lru_cache(maxsize=4)  # about 60 d numbers each; a sweep uses one level at a time
def _contraction_plan(j_max: int) -> _Plan:
    """Every nonzero <j m; 1 mu | k m+mu>, k in {j, j + 1} (not 0, 0), and M's slots.

    rows and cols are the flat indices of (j, m) and (k, m + mu); the terms of
    segment 3 * pair + mu + 1 are contiguous, never empty, and begin at starts.
    weight is sqrt((2j+1)/(2k+1)), halved on diagonal pairs as M = P + P^H.

    M's terms are P's, P^H's and a zero at (0, 0) that keeps j_max = 0 well-formed;
    `order` sorts them stably by (row, col), so the terms of each position, a
    slot, are adjacent and begin at slot_starts. row_starts holds every row's
    first slot (each row has one) and then the slot count.
    """
    pairs = [(j, k) for j in range(j_max + 1) for k in (j, j + 1) if 0 < k <= j_max]
    parts = [(np.zeros(0, dtype=np.intp),) * 4]  # keeps j_max = 0, with no pair, well-formed
    for pair, (j, k) in enumerate(pairs):
        cg = _spin_one_cg(j, k)
        mu, m = np.nonzero(cg)
        parts.append((j * j + m, k * k + m + mu + k - j - 1, cg[mu, m], 3 * pair + mu))
    rows, cols, cg, segment = (np.concatenate(part) for part in zip(*parts))
    weight = np.array([math.sqrt((2 * j + 1) / (2 * k + 1)) / (2 if k == j else 1)
                       for j, k in pairs])
    d = (j_max + 1) ** 2
    term_rows, term_cols = np.concatenate((rows, cols, [0])), np.concatenate((cols, rows, [0]))
    order = np.lexsort((term_cols, term_rows))
    slot_starts = np.flatnonzero(np.diff((term_rows * d + term_cols)[order], prepend=-1))
    slot_rows, slot_cols = term_rows[order][slot_starts], term_cols[order][slot_starts]
    plan = _Plan(rows, cols, cg, segment, np.flatnonzero(np.diff(segment, prepend=-1)), weight,
                 order, slot_starts, slot_rows, slot_cols,
                 np.searchsorted(slot_rows, np.arange(d + 1)))
    for part in plan:
        part.flags.writeable = False  # shared by every tensor with this j_max
    return plan


class ObjectiveOperator(NamedTuple):
    """M = operator(b) as its nonzeros (at most 9 per row), one per slot of `plan`."""

    values: np.ndarray
    plan: _Plan

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """M x: one gather, one product and one sum per row."""
        return np.add.reduceat(self.values * x[self.plan.slot_cols], self.plan.row_starts[:-1])

    @property
    def norm_inf(self) -> float:  # ||M||_inf, the largest absolute row sum
        return float(np.add.reduceat(np.abs(self.values), self.plan.row_starts[:-1]).max())

    def blocks(self):
        """Dense (M_jj, M_{j,j+1}) for j = 0..j_max; the last M_{j,j+1} has no columns."""
        plan, n = self.plan, math.isqrt(len(self.plan.row_starts) - 1)
        for j in range(n):
            # block row j's slots fill a strip over the columns of blocks j - 1 to j + 1
            first = max(j - 1, 0) ** 2
            strip = np.zeros((2 * j + 1, min(j + 2, n) ** 2 - first), dtype=complex)
            slots = slice(plan.row_starts[j * j], plan.row_starts[(j + 1) ** 2])
            strip[plan.slot_rows[slots] - j * j, plan.slot_cols[slots] - first] = self.values[slots]
            yield strip[:, j * j - first : (j + 1) ** 2 - first], strip[:, (j + 1) ** 2 - first :]


@dataclass(frozen=True, eq=False)
class SparseCoefficientTensor:
    """Transmission coefficients f_{jkmnrs} of one moment matrix, in factored form.

    c_hat[mu + 1, nu + 1] is the spherical moment of `moment_tensor`, which
    gives the coefficients. Objective tensors are real; tensors of single
    off-diagonal rotation-matrix entries carry imaginary parts.
    """

    j_max: int
    c_hat: np.ndarray

    def __post_init__(self):
        if self.j_max < 0:
            raise ValueError("j_max must be non-negative")
        c_hat = np.array(self.c_hat)
        c_hat.flags.writeable = False  # instances are shared through the assembly cache
        object.__setattr__(self, "c_hat", c_hat)

    def block(self, j: int, k: int) -> np.ndarray:
        """Dense coefficients f[m+j, r+j, n+k, s+k] of blocks (j, k), zero outside |j - k| <= 1."""
        if not (0 <= j <= self.j_max and 0 <= k <= self.j_max):
            raise ValueError(f"blocks ({j}, {k}) outside 0..{self.j_max}")
        if j > k:
            return self.block(k, j).transpose(2, 3, 0, 1).conj()
        dense = np.zeros((2 * j + 1, 2 * j + 1, 2 * k + 1, 2 * k + 1), dtype=self.c_hat.dtype)
        if 0 < k <= j + 1:
            cg = _spin_one_cg(j, k)
            # terms[mu + 1, m + j, nu + 1, r + j]
            terms = (math.sqrt((2 * j + 1) / (2 * k + 1)) * self.c_hat[:, None, :, None]
                     * cg[:, :, None, None] * cg[None, None, :, :])
            mu, m, nu, r = np.nonzero(terms)
            dense[m, r, m + mu + k - j - 1, r + nu + k - j - 1] = terms[mu, m, nu, r]
        return dense

    @cached_property
    def entries(self) -> MappingProxyType:
        """Every nonzero coefficient keyed by (j, k, m, n, r, s), for the oracles and tests only."""
        entries = {}
        for j in range(self.j_max + 1):
            for k in range(max(j - 1, 0), min(j + 1, self.j_max) + 1):
                block = self.block(j, k)
                idx = np.nonzero(block)
                m, r, n, s = ((i - off).tolist() for i, off in zip(idx, (j, j, k, k)))
                entries.update(zip(zip(repeat(j), repeat(k), m, n, r, s), block[idx].tolist()))
        return MappingProxyType(entries)

    def _pair_values(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat (row, col) indices and values of P, the half of M = P + P^H.

        Per coupled pair, S_nu = sum_r <j r; 1 nu|k r+nu> b_{jr} conj(b_{k,r+nu})
        is one scalar and P[(j,m),(k,m+mu)] = sqrt((2j+1)/(2k+1))
        <j m; 1 mu|k m+mu> sum_nu c_hat_{mu nu} S_nu, in O(d) work; the
        (row, col) pairs are distinct.
        """
        rows, cols, cg, segment, starts, weight = _contraction_plan(self.j_max)[:6]
        s = np.add.reduceat(cg * b[rows] * np.conj(b[cols]), starts).reshape(-1, 3)
        vals = cg * (weight[:, None] * (s @ self.c_hat.T)).ravel()[segment]
        return rows, cols, vals

    def operator(self, b: np.ndarray) -> ObjectiveOperator:
        """M[(j,m),(k,n)] = sum_rs f_{jkmnrs} b_{jr} conj(b_{ks}) for flat b, as its O(d) nonzeros.

        Each slot sums its terms of P from `_pair_values` and of the mirror
        P^H, so M = P + P^H is exactly Hermitian.
        """
        plan = _contraction_plan(self.j_max)
        vals = self._pair_values(b)[2]
        terms = np.concatenate((vals, vals.conj(), [0.0]))[plan.order]
        return ObjectiveOperator(np.add.reduceat(terms, plan.slot_starts), plan)

    def expectation(self, a: np.ndarray, b: np.ndarray) -> float:
        """<a|M|a> for M = operator(b) in O(d), with no d x d array.

        M = P + P^H makes it 2 Re sum conj(a_row) P[row, col] a_col.
        """
        rows, cols, vals = self._pair_values(b)
        return 2.0 * float(np.vdot(a[rows], vals * a[cols]).real)


def moment_tensor(c, j_max: int) -> SparseCoefficientTensor:
    """Coefficient tensor of E[sum_ab c_ab R_ab] for a 3x3 moment matrix c.

    The spherical components c_hat of c satisfy sum_ab c_ab R_ab
    = sum_{mu nu} c_hat_{mu nu} D^1_{mu nu}, and the Haar integral of
    D^j conj(D^k) D^1 is a product of two spin-1 Clebsch-Gordan coefficients.
    Each block pair (|j - k| <= 1) is therefore a sum of rank-1 terms
    sqrt((2j+1)/(2k+1)) c_hat_{mu nu} <j m; 1 mu|k n> <j r; 1 nu|k s> with
    n = m + mu and s = r + nu. Blocks with j > k are the conjugate mirror
    images of those with j < k, so the Hermitian symmetry of the tensor holds
    exactly. c_hat is kept real when it has no imaginary part.
    """
    c_hat = (_SPHERICAL.conj().T @ np.asarray(c) @ _SPHERICAL) * _SPHERICAL_SCALE
    if not np.any(c_hat.imag):
        c_hat = c_hat.real
    return SparseCoefficientTensor(j_max, c_hat)


def assemble_tensor(objective: Objective, j_max: int) -> SparseCoefficientTensor:
    """Coefficient tensor for the requested objective at block cutoff j_max.

    The z term scores R_zz and the joint xy term R_xx + R_yy, so the objective
    is the moment matrix diag(w_xy, w_xy, w_z).
    """
    return moment_tensor(np.diag([objective.w_xy, objective.w_xy, objective.w_z]), j_max)


@lru_cache(maxsize=64)
def cached_tensor(objective: Objective, j_max: int) -> SparseCoefficientTensor:
    """Memoized assembly; tensors are immutable so sharing is safe."""
    return assemble_tensor(objective, j_max)
