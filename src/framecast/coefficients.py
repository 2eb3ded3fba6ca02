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
from `entries`. `Objective` holds c and is the package's one description of
what is scored: the presets z, xy and xyz are c = diag(0, 0, 1),
diag(1, 1, 0) and the identity, a weighted objective weights the z and the
joint xy diagonal, and any other symmetric positive-semidefinite c (a set of
directions, say) is scored the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from types import MappingProxyType
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True, eq=False)
class Objective:
    """What a transmission scores: E[sum_ab c_ab R_ab] for a 3x3 moment matrix c.

    c is read-only, symmetric and positive semidefinite: its eigenvectors are
    the axes being sent and its eigenvalues their weights. name labels the
    objective in output only. Objectives with equal (name, c) are equal and
    share one `cached_tensor`.
    """

    c: np.ndarray
    name: str = "custom"

    def __post_init__(self):
        c = np.array(self.c, dtype=float) + 0.0  # a copy; -0.0 becomes 0.0 for the hash
        if c.shape != (3, 3):
            raise ValueError("expected a 3x3 matrix")
        finite = bool(np.isfinite(c).all())
        if finite and np.abs(c - c.T).max() > 1e-14:
            raise ValueError("matrix must be symmetric within 1e-14")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)
        if not finite or self._spectrum[0][0] < -1e-12 or self._spectrum[0][-1] <= 0:
            raise ValueError("objective weights must be finite, non-negative and not all zero")
        # ||M|| <= tr c <= 3 w, w the largest weight, and the optimizer squares
        # norms of M x from (3 w)^2 down to rounding errors (eps w)^2; below the
        # normal range such a square loses digits or vanishes
        w = float(self._spectrum[0][-1])
        if not math.isfinite((3.0 * w) ** 2):
            raise ValueError("objective weights overflow: (3 w)^2 must be finite, "
                             "w the largest weight")
        if (np.finfo(float).eps * w) ** 2 < np.finfo(float).tiny:
            raise ValueError("objective weights underflow: (eps w)^2 must be a normal "
                             "float, w the largest weight")

    def __eq__(self, other) -> bool:
        return isinstance(other, Objective) and self.name == other.name \
            and np.array_equal(self.c, other.c)

    def __hash__(self) -> int:
        return hash((self.name, self.c.tobytes()))

    @classmethod
    def z_axis(cls) -> "Objective":
        return cls.from_kind("z")

    @classmethod
    def xy_axes(cls) -> "Objective":
        return cls.from_kind("xy")

    @classmethod
    def xyz_axes(cls) -> "Objective":
        return cls.from_kind("xyz")

    @classmethod
    def weighted(cls, w_z: float, w_xy: float) -> "Objective":
        """Weight w_z on the z term R_zz and w_xy on the joint xy term R_xx + R_yy."""
        return cls(np.diag([w_xy, w_xy, w_z]), "weighted")

    @classmethod
    def from_kind(cls, kind: str) -> "Objective":
        """The preset z, xy, xyz or equal-weight weighted objective, built once."""
        if kind not in _PRESETS:
            raise ValueError(f"unknown objective kind {kind!r}")
        return _PRESETS[kind]

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.c)

    @cached_property
    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal axes (rows) and descending weights reconstructing c, read-only.

        Each axis is sign-fixed so its largest-magnitude component is positive;
        among weights equal within 1e-12, the axis leaning on the earliest
        coordinate comes first.
        """
        evals, evecs = self._spectrum
        weights, axes = np.maximum(evals[::-1], 0.0), evecs[:, ::-1].T
        pivots = np.abs(axes).argmax(axis=1)
        # a weight starts a new cluster unless within 1e-12 of the one before it
        gaps = (weights[:-1] - weights[1:] > 1e-12 * max(1.0, weights[0])).tolist()
        order = sorted(range(3), key=lambda i: (sum(gaps[:i]), pivots[i]))
        axes = axes[order] * np.sign(axes[order, pivots[order]])[:, None]
        axes.flags.writeable = weights.flags.writeable = False
        return axes, weights

    @property
    def axis_count(self) -> int:
        """Number of axes being sent: the rank of c."""
        return int(np.count_nonzero(self.axes[1] > 1e-12 * self.axes[1][0]))

    @cached_property
    def support(self) -> "Objective":
        """The projector onto the range of c under the same name: every sent axis weighted 1."""
        sent = self.axes[0][: self.axis_count]
        return Objective(sent.T @ sent, self.name)

    def to_json(self) -> dict:
        """{"kind", "w_z", "w_xy"}, which records only c = diag(w_xy, w_xy, w_z)."""
        w_xy, w_z = float(self.c[0, 0]), float(self.c[2, 2])
        if not np.array_equal(self.c, np.diag([w_xy, w_xy, w_z])):
            raise ValueError(f"objective {self.name!r} is not diag(w_xy, w_xy, w_z), "
                             "so {kind, w_z, w_xy} cannot record it")
        return {"kind": self.name, "w_z": w_z, "w_xy": w_xy}


_PRESETS = {name: Objective(np.diag(weights), name) for name, weights in (
    ("z", [0.0, 0.0, 1.0]), ("xy", [1.0, 1.0, 0.0]), ("xyz", [1.0] * 3), ("weighted", [1.0] * 3))}


# Columns are the spherical unit vectors e_{-1} = (x - iy)/sqrt2, e_0 = z and
# e_{+1} = -(x + iy)/sqrt2, split into an exact 0, +-1, +-i matrix and real
# per-pair scales, so Cartesian weights that cancel leave exact zeros.
_SPHERICAL = np.array([[1, 0, -1], [-1j, 0, -1j], [0, 1, 0]])
_SPHERICAL_SCALE = 1.0 / np.sqrt(np.outer([2, 1, 2], [2, 1, 2]))


def _cg(j, m, mu, up: bool) -> np.ndarray:
    """<j m; 1 mu | k m+mu>, k = j + 1 if up else j (j >= 1), elementwise in j, m and mu.

    Condon-Shortley phases (Varshalovich, Moskalev & Khersonskii 1988, spin-1
    table). Every radicand vanishes where m + mu falls outside block k, so
    those entries are exact zeros.
    """
    n = m + mu
    if up:
        sign, den = 1, (2 * j + 1) * (2 * j + 2)
        num = np.choose(mu + 1, [(j - n) * (j - n + 1), 2 * (j - n + 1) * (j + n + 1),
                                 (j + n) * (j + n + 1)])
    else:
        den = 2 * j * (j + 1)
        sign = np.choose(mu + 1, [1, np.sign(n), -1])
        num = np.choose(mu + 1, [(j - n) * (j + n + 1), 2 * n * n, (j + n) * (j - n + 1)])
    return sign * np.sqrt(num / den)


def _spin_one_cg(j: int, k: int) -> np.ndarray:
    """<j m; 1 mu | k m+mu> for k in {j, j + 1}, rows mu = -1, 0, 1, columns m = -j..j."""
    return _cg(j, np.arange(-j, j + 1), np.arange(-1, 2)[:, None], k == j + 1)


_Plan = NamedTuple("_Plan", [(field, np.ndarray) for field in (
    "rows", "cols", "cg", "segment", "starts", "weight",
    "p_slot", "ph_slot", "slot_rows", "slot_cols", "row_starts")])


@lru_cache(maxsize=4)  # about 60 d numbers each; a sweep uses one level at a time
def _contraction_plan(j_max: int) -> _Plan:
    """Every nonzero <j m; 1 mu | k m+mu>, k in {j, j + 1} (not 0, 0), and M's slots.

    rows and cols are the flat indices of (j, m) and (k, m + mu); the terms of
    segment 3 * pair + mu + 1 are contiguous, never empty, and begin at starts.
    weight is sqrt((2j+1)/(2k+1)), halved on diagonal pairs as M = P + P^H.

    M's positions, its slots, are those of P's terms, of P^H's and (0, 0), which
    keeps j_max = 0 well-formed, in (row, col) order. p_slot and ph_slot give
    the slot of each term of P and of its P^H mirror; no slot receives two
    terms of P or two of P^H. row_starts holds every row's first slot (each
    row has one) and then the slot count.
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
    keys = np.concatenate((rows * d + cols, cols * d + rows, [0]))
    ordered = keys[np.lexsort((keys,))]  # np.unique and np.sort map ~0.4 MB more code
    slots = ordered[np.flatnonzero(np.diff(ordered, prepend=-1))]
    p_slot, ph_slot = np.searchsorted(slots, keys[:-1]).reshape(2, -1)
    assert len(set(p_slot.tolist())) == len(set(ph_slot.tolist())) == rows.size
    slot_rows, slot_cols = np.divmod(slots, d)
    plan = _Plan(rows, cols, cg, segment, np.flatnonzero(np.diff(segment, prepend=-1)), weight,
                 p_slot, ph_slot, slot_rows, slot_cols,
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


class SectorOperator(NamedTuple):
    """M(b) at a sector fiducial (`SparseCoefficientTensor.sector`) as n^2 numbers, flat in (j, m).

    M couples (j, m) only to itself and to (j +- 1, m +- s), so it keeps the
    label m - s j: it is the direct sum of one tridiagonal block over j per
    label. diagonal holds M[(j,m),(j,m)] and upper M[(j,m),(j+1,m+s)], zero
    in block j_max.
    """

    s: int
    diagonal: np.ndarray
    upper: np.ndarray

    @property
    def n(self) -> int:
        return math.isqrt(len(self.diagonal))

    def sites(self, label: int) -> np.ndarray:
        """Flat indices of the (j, m = label + s j) that carry the label, j ascending."""
        j = np.arange(self.n)
        m = label + self.s * j
        return (j * j + m + j)[np.abs(m) <= j]

    def block(self, label: int) -> np.ndarray:
        """The label's dense tridiagonal block over its sites."""
        sites = self.sites(label)
        off = self.upper[sites[:-1]]
        return np.diag(self.diagonal[sites]) + np.diag(off, 1) + np.diag(off, -1)

    def level_norms(self) -> np.ndarray:
        """||M_n||_inf for n = 1..self.n: no entry depends on n, so M_n is the blocks j < n."""
        n, diagonal, upper = self.n, np.abs(self.diagonal), np.abs(self.upper)
        # (j, m) at flat p couples down to (j + 1, m + s) at flat p + 2j + 2 + s
        j = np.repeat(np.arange(n - 1), 2 * np.arange(n - 1) + 1)
        down = np.zeros(n * n)
        down[np.arange(j.size) + 2 * j + 2 + self.s] = upper[: j.size]
        starts = np.arange(n) ** 2
        inner = np.maximum.accumulate(np.maximum.reduceat(diagonal + upper + down, starts))
        last = np.maximum.reduceat(diagonal + down, starts)  # block n - 1 has no upper
        return np.maximum(last, np.concatenate(([0.0], inner[:-1])))


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

    @cached_property
    def weight(self) -> float:
        """c's largest weight, the unit of the optimizer's tolerances.

        An objective's c_hat is Hermitian and has c's eigenvalues, so this is
        its largest eigenvalue magnitude.
        """
        return float(np.abs(np.linalg.eigvalsh(self.c_hat)).max())

    @cached_property
    def _nonzeros(self) -> dict:
        """`nonzeros` of every pair with terms, each j <= k built once; read-only.

        The mirror (k, j) holds the same index arrays in swapped roles and the conjugate values.
        """
        found = {}
        for k in range(1, self.j_max + 1):
            for j in (k - 1, k):
                cg = _spin_one_cg(j, k)
                # terms[mu + 1, m + j, nu + 1, r + j]
                terms = (math.sqrt((2 * j + 1) / (2 * k + 1)) * self.c_hat[:, None, :, None]
                         * cg[:, :, None, None] * cg[None, None, :, :])
                mu, m, nu, r = np.nonzero(terms)
                index = m, r, m + mu + k - j - 1, r + nu + k - j - 1
                found[j, k] = index, terms[mu, m, nu, r]
                if j < k:
                    found[k, j] = index[2:] + index[:2], found[j, k][1].conj()
        for index, values in found.values():
            for part in (*index, values):
                part.flags.writeable = False
        return found

    def nonzeros(self, j: int, k: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Indices (m+j, r+j, n+k, s+k) and values of the nonzero f of blocks (j, k).

        Only blocks with |j - k| <= 1 have any; every other block returns empty arrays.
        """
        if not (0 <= j <= self.j_max and 0 <= k <= self.j_max):
            raise ValueError(f"blocks ({j}, {k}) outside 0..{self.j_max}")
        empty = (np.zeros(0, dtype=np.intp),) * 4, np.zeros(0, dtype=self.c_hat.dtype)
        return self._nonzeros.get((j, k), empty)

    @cached_property
    def entries(self) -> MappingProxyType:
        """Every nonzero coefficient keyed by (j, k, m, n, r, s), for the oracles and tests only."""
        entries = {}
        for (j, k), ((m, r, n, s), values) in self._nonzeros.items():
            keys = zip(repeat(j), repeat(k), (m - j).tolist(), (n - k).tolist(),
                       (r - j).tolist(), (s - k).tolist())
            entries.update(zip(keys, values.tolist()))
        return MappingProxyType(entries)

    def _check_length(self, vec: np.ndarray) -> None:
        """Raise ValueError unless vec is a flat vector of (j_max + 1)^2 amplitudes."""
        d = (self.j_max + 1) ** 2
        if np.shape(vec) != (d,):
            raise ValueError(f"expected a flat vector of {d} amplitudes for j_max={self.j_max}, "
                             f"got shape {np.shape(vec)}")

    def _pair_values(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat (row, col) indices and values of P, the half of M = P + P^H.

        Per coupled pair, S_nu = sum_r <j r; 1 nu|k r+nu> b_{jr} conj(b_{k,r+nu})
        is one scalar and P[(j,m),(k,m+mu)] = sqrt((2j+1)/(2k+1))
        <j m; 1 mu|k m+mu> sum_nu c_hat_{mu nu} S_nu, in O(d) work; the
        (row, col) pairs are distinct.
        """
        self._check_length(b)
        rows, cols, cg, segment, starts, weight = _contraction_plan(self.j_max)[:6]
        s = np.add.reduceat(cg * b[rows] * np.conj(b[cols]), starts).reshape(-1, 3)
        vals = cg * (weight[:, None] * (s @ self.c_hat.T)).ravel()[segment]
        return rows, cols, vals

    def operator(self, b: np.ndarray) -> ObjectiveOperator:
        """M[(j,m),(k,n)] = sum_rs f_{jkmnrs} b_{jr} conj(b_{ks}) for flat b, as its O(d) nonzeros.

        Each slot sums its term of P from `_pair_values` and of the mirror
        P^H, so M = P + P^H is exactly Hermitian.
        """
        plan = _contraction_plan(self.j_max)
        vals = self._pair_values(b)[2]
        values = np.zeros(plan.slot_rows.size, dtype=vals.dtype)
        values[plan.p_slot] = vals
        values[plan.ph_slot] += vals.conj()
        return ObjectiveOperator(values, plan)

    def sector(self, m: int, s: int) -> SectorOperator:
        """operator(b) at b_j = |j, m + s j>, for real diagonal c_hat.

        s = 0 gives magnetic number m in every block (zero where |m| > j), and
        (m, s) = (0, 1) the stretched state. There S_nu = <j r; 1 nu|k r + nu>
        at r = m + s j if nu = s (k - j), and 0 otherwise, and c_hat keeps
        mu = nu, so block j of M is diagonal with entries <j n; 1 0|j n>
        c_hat_00 <j r; 1 0|j r>, and (j, n) couples to (j + 1, n + s) by
        sqrt((2j+1)/(2j+3)) <j n; 1 s|j+1 n+s> c_hat_ss <j r; 1 s|j+1 r+s>:
        (j_max + 1)^2 numbers from `_cg`, with no contraction plan.
        """
        c_hat = self.c_hat
        if s not in (0, 1):
            raise ValueError(f"sector s must be 0 or 1, got {s}")
        if s == 1 and m != 0:
            raise ValueError(f"the stretched sector (s = 1) needs m = 0, got {m}")
        if np.iscomplexobj(c_hat) or np.count_nonzero(c_hat - np.diag(np.diagonal(c_hat))):
            raise ValueError("sectors need a real diagonal c_hat")
        size = self.j_max + 1
        j = np.repeat(np.arange(size), 2 * np.arange(size) + 1)  # the block of every site
        n = np.arange(size * size) - j * j - j
        r = m + s * j  # the fiducial's magnetic number in that block
        diagonal, upper = np.zeros(size * size), np.zeros(size * size)
        at = (j > 0) & (np.abs(r) <= j)
        diagonal[at] = _cg(j[at], n[at], 0, False) * (c_hat[1, 1] * _cg(j[at], r[at], 0, False))
        at = (j < size - 1) & (np.abs(r) <= j)
        weight = np.sqrt((2 * j[at] + 1) / (2 * j[at] + 3))
        upper[at] = _cg(j[at], n[at], s, True) * (
            weight * (c_hat[1 + s, 1 + s] * _cg(j[at], r[at], s, True)))
        return SectorOperator(s, diagonal, upper)

    def expectation(self, a: np.ndarray, b: np.ndarray) -> float:
        """<a|M|a> for M = operator(b) in O(d), with no d x d array.

        M = P + P^H makes it 2 Re sum conj(a_row) P[row, col] a_col.
        """
        self._check_length(a)
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


@lru_cache(maxsize=64)
def cached_tensor(objective: Objective, j_max: int) -> SparseCoefficientTensor:
    """The objective's `moment_tensor`, memoized; tensors are immutable so sharing is safe."""
    return moment_tensor(objective.c, j_max)
