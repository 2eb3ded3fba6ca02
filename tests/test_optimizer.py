"""Fixed-point optimization, direct-search cross-checks, sweeps, and fits."""

import dataclasses
import json
import logging
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import entry_expectation, entry_matrix, loop_best_of_restarts
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh as lapack_eigh
from scipy.special import jn_zeros

from framecast import (
    AliceState,
    FiducialState,
    Objective,
    SweepRow,
    b_from_a,
    best_of_restarts,
    block_slice,
    cached_tensor,
    coefficient_block,
    direct_search_optimize,
    fidelity_report,
    fit_asymptote,
    fixed_point_optimize,
    flat_index,
    make_grid,
    optimize_sector,
    rotation_matrix_components,
    sweep,
    total_dim,
)
from framecast import optimizer
from framecast.coefficients import SectorOperator, SparseCoefficientTensor

ROOT3 = 1.0 / math.sqrt(3)


def z_sector(n, m=0):
    """`optimize_sector` of the z objective at level n and magnetic number m."""
    return optimize_sector(cached_tensor(Objective.z_axis(), n - 1), n, m)


def fiducial_start(n, seed=None):
    """The uniform fiducial start, or a random one drawn from default_rng(seed)."""
    if seed is None:
        return FiducialState.uniform(n)
    return FiducialState.random(n, np.random.default_rng(seed))


class TestTopEigenpair:
    def test_one_by_one(self):
        lam, vec = optimizer._top_eigh(np.array([[0.25]]))
        assert lam == 0.25
        assert vec[0] == 1.0

    def test_level_two_z_matrix(self):
        vec = np.zeros(4, dtype=complex)
        vec[flat_index(0, 0)] = 1.0
        vec[flat_index(1, 0)] = 1.0
        mat = entry_matrix(cached_tensor(Objective.z_axis(), 1), FiducialState(2, vec).b)
        lam, top = optimizer._top_eigh(mat)
        assert lam == pytest.approx(ROOT3, abs=1e-14)
        assert abs(top[flat_index(0, 0)]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert abs(top[flat_index(1, 0)]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_residual_and_gauge(self, rng):
        raw = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        herm = (raw + raw.conj().T) / 2
        lam, vec = optimizer._top_eigh(herm)
        assert np.linalg.norm(herm @ vec - lam * vec) < 1e-10
        pivot = vec[np.argmax(np.abs(vec))]
        assert pivot.imag == pytest.approx(0.0, abs=1e-14)
        assert pivot.real > 0

    @staticmethod
    def _degenerate_matrix(rng, n, fold):
        # random unitary eigenbasis; the top eigenvalue 1.0 repeats `fold` times,
        # the rest lie in [-1, 0.5]
        d = total_dim(n)
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        w = np.concatenate([rng.uniform(-1.0, 0.5, d - fold), np.ones(fold)])
        mat = basis @ np.diag(w) @ basis.conj().T
        return (mat + mat.conj().T) / 2, basis[:, d - fold:]

    @pytest.mark.parametrize("fold", [2, 3])
    def test_degenerate_top_without_previous(self, rng, fold):
        m, _ = self._degenerate_matrix(rng, 3, fold)
        lam, vec = optimizer._top_eigh(m)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(m @ vec - lam * vec) < 1e-10

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([1, 2, 3, 4, 7]), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_full_eigh(self, n, real, seed):
        # d = 1 is the edge of the two-eigenpair subset; real matrices are
        # passed as complex ones with an exactly zero imaginary part
        rng = np.random.default_rng(seed)
        d = total_dim(n)
        raw = rng.standard_normal((d, d))
        if not real:
            raw = raw + 1j * rng.standard_normal((d, d))
        herm = (raw + raw.conj().T).astype(complex) / 2
        w, v = np.linalg.eigh(herm)
        assume(d == 1 or w[-1] - w[-2] > 1e-6)
        lam, vec = optimizer._top_eigh(herm)
        assert abs(lam - w[-1]) < 1e-12
        assert abs(abs(np.vdot(v[:, -1], vec)) - 1.0) < 1e-10
        pivot = vec[np.argmax(np.abs(vec))]
        assert abs(pivot.imag) < 1e-14
        assert pivot.real > 0


def _spectrum_matrix(rng, d, gap, kind):
    """Hermitian matrix with a random eigenbasis, top eigenvalue 1, the next 1 - gap, the rest below.

    kind "real" is a float matrix, "real-valued" the same as a complex one
    with an exactly zero imaginary part, "complex" a complex eigenbasis.
    """
    raw = rng.standard_normal((d, d))
    if kind == "complex":
        raw = raw + 1j * rng.standard_normal((d, d))
    elif kind == "real-valued":
        raw = raw.astype(complex)
    basis, _ = np.linalg.qr(raw)
    w = np.concatenate([rng.uniform(-1.0, 1.0 - 2 * gap, d - 2), [1.0 - gap, 1.0]])
    mat = (basis * w) @ basis.conj().T
    return (mat + mat.conj().T) / 2


class TestTopEigenpairOracle:
    """`_top_eigh` against LAPACK's MRRR solver (?heevr), which shares no code with it."""

    @staticmethod
    def _check(mat, lam, vec):
        d = mat.shape[0]
        w_ref, v_ref = lapack_eigh(mat, subset_by_index=[d - 2, d - 1], driver="evr")
        assert abs(lam - w_ref[-1]) < 1e-12
        assert abs(abs(np.vdot(v_ref[:, -1], vec)) - 1.0) < 1e-10
        # the residual of a backward-stable solver: evr's own stays below
        # 8 eps ||M|| on these matrices
        scale = np.max(np.abs(np.linalg.eigvalsh(mat)))
        assert np.linalg.norm(mat @ vec - lam * vec) <= 16 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("kind", ["real", "real-valued", "complex"])
    @pytest.mark.parametrize("gap", [0.3, 1e-5, 1e-9])
    @pytest.mark.parametrize("d", [2, 9, 49, 196])
    def test_matches_lapack_evr(self, rng, d, gap, kind):
        mat = _spectrum_matrix(rng, d, gap, kind)
        before = mat.copy()
        lam, vec = optimizer._top_eigh(mat)
        # the solve leaves its input as it was
        assert np.array_equal(mat, before)
        self._check(mat, lam, vec)

    def test_read_only_matrix(self, rng):
        mat = _spectrum_matrix(rng, 16, 0.1, "complex")
        mat.flags.writeable = False
        lam, vec = optimizer._top_eigh(mat)
        self._check(mat, lam, vec)


class _DenseOperator:
    """A dense Hermitian M, block tridiagonal in j, behind the interface of `operator(b)`."""

    def __init__(self, mat):
        self.mat = mat
        self.n = math.isqrt(len(mat))
        for j in range(self.n):
            assert not mat[block_slice(j), (j + 2) ** 2:].any(), "not block tridiagonal"

    def __matmul__(self, x):
        return self.mat @ x

    @property
    def norm_inf(self):
        return float(np.abs(self.mat).sum(axis=1).max())

    def blocks(self):
        for j in range(self.n):
            rows = block_slice(j)
            yield self.mat[rows, rows], self.mat[rows, (j + 1) ** 2:(j + 2) ** 2]


def _block_tridiagonal(rng, n, gap, kind, coupling):
    """Hermitian M, block tridiagonal in j, with top eigenvalues near 1 and 1 - gap.

    The diagonal blocks have random eigenbases; two random eigenvalues of
    theirs are 1 and 1 - gap, the rest lie in [-1, 1 - 2 gap]. Adjacent blocks
    couple through `coupling` times a random matrix, so at coupling 0 these
    are M's eigenvalues. kind is "real", "real-valued" (complex dtype, zero
    imaginary part) or "complex".
    """
    d = total_dim(n)
    w = rng.uniform(-1.0, 1.0 - 2 * gap, d)
    w[rng.choice(d, size=2, replace=False)] = [1.0, 1.0 - gap]

    def random(rows, cols):
        raw = rng.standard_normal((rows, cols))
        return raw + 1j * rng.standard_normal((rows, cols)) if kind == "complex" else raw

    mat = np.zeros((d, d), dtype=float if kind == "real" else complex)
    for j in range(n):
        rows = block_slice(j)
        basis, _ = np.linalg.qr(random(2 * j + 1, 2 * j + 1))
        mat[rows, rows] = (basis * w[rows]) @ basis.conj().T
        if j + 1 < n:
            right = block_slice(j + 1)
            mat[rows, right] = coupling * random(2 * j + 1, 2 * j + 3)
            mat[right, rows] = mat[rows, right].conj().T
    return (mat + mat.conj().T) / 2


class TestCertificate:
    """`_certified` and its inertia count against numpy's full eigh, which shares no code."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.floats(-8.0, 0.0), st.sampled_from([0.0, 1e-4, 1e-2, 0.3]),
           st.sampled_from(["at", "near", "away", "random", "tilted", "second"]),
           st.sampled_from(["real", "real-valued", "complex"]), st.sampled_from([1e-12, 1e-8]),
           st.integers(0, 2**32 - 1))
    def test_accepts_only_proven_top_pairs(self, n, log_gap, coupling, start, kind, tol, seed):
        rng = np.random.default_rng(seed)
        mat = _block_tridiagonal(rng, n, 10.0 ** log_gap, kind, coupling)
        op = _DenseOperator(mat)
        d = total_dim(n)
        w, v = np.linalg.eigh(mat)
        top = v[:, -1]
        noise = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        if start in ("tilted", "second"):
            # a pair handed over as is, with no second Ritz value to skip on:
            # the inertia count alone must refuse it
            vec = top + 1e-5 * v[:, -2] if start == "tilted" else v[:, -2]
            vec = vec / np.linalg.norm(vec)
            lam, second = np.vdot(vec, mat @ vec).real, -math.inf
        else:
            scale = {"at": 0.0, "near": 1e-7, "away": 0.3, "random": 1e3}[start]
            lam, vec, second, _ = optimizer._ritz_step(op, top + scale * noise)
        residual = np.linalg.norm(mat @ vec - lam * vec)
        g = 2 * residual / math.sqrt(tol)
        result = optimizer._certified(op, lam, vec, second, tol, 1.0)
        if start == "second":
            assert result is None
        elif start == "tilted" and w[-1] - w[-2] <= g and residual**2 < tol * g:
            # the proof needs lambda_2 < rho - g; r^2 < tol g keeps the pair
            # itself under test, with no longer Lanczos pass
            assert result is None
        if result is None:
            return
        lam, vec = result
        residual = np.linalg.norm(mat @ vec - lam * vec)
        assert abs(w[-1] - lam) < tol
        assert abs(np.vdot(top, vec)) >= 1 - tol / 8
        assert w[-1] - w[-2] > 2 * residual / math.sqrt(tol)

    def test_a_failed_count_is_retried_only_at_a_higher_shift(self, rng, monkeypatch):
        # a count that fails at sigma is not run again for a pair whose sigma
        # is no higher; the exact top pair's higher sigma is counted and passes
        count = optimizer._eigenvalues_above
        shifts = []

        def counted(op, sigma, floor):
            shifts.append(sigma)
            return count(op, sigma, floor)

        monkeypatch.setattr(optimizer, "_eigenvalues_above", counted)
        op = _DenseOperator(_block_tridiagonal(rng, 4, 1e-3, "complex", 0.0))
        w, v = np.linalg.eigh(op.mat)
        # residual ~1e-7: its gap 2 r / sqrt(tol) ~ 0.2 reaches below lambda_2
        tilted = v[:, -1] + 1e-7 * v[:, 0]
        tilted /= np.linalg.norm(tilted)
        pair = (np.vdot(tilted, op.mat @ tilted).real, tilted, -math.inf, 1e-12, 1.0)
        tally = optimizer._Tally()
        assert optimizer._certified(op, *pair, tally) is None
        assert optimizer._certified(op, *pair, tally) is None
        assert len(shifts) == 1 and tally.failed_sigma == shifts[0]
        lam, vec = optimizer._certified(op, w[-1], v[:, -1], -math.inf, 1e-12, 1.0, tally)
        assert len(shifts) == 2 and shifts[1] > shifts[0]
        assert (tally.counts, tally.passed) == (2, 1)
        assert lam == w[-1]

    def test_kato_temple_bound_is_in_units_of_the_weight(self):
        # M = diag(100, 0, 0, 0), ||M||_inf = 100, and a pair tilted by
        # sin theta = 1e-7: r = 1e-5, g = 2 r / sqrt(tol) = 20, r^2 / g = 5e-12,
        # between tol and tol ||M||_inf. At weight 1 the pair as given fails
        # the bound and a Lanczos pass replaces it; at weight 100 it passes
        mat = np.diag([100.0, 0.0, 0.0, 0.0]).astype(complex)
        op = _DenseOperator(mat)
        vec = np.array([math.sqrt(1 - 1e-14), 1e-7, 0.0, 0.0], dtype=complex)
        lam = np.vdot(vec, mat @ vec).real
        residual = np.linalg.norm(mat @ vec - lam * vec)
        assert 1e-12 < residual * math.sqrt(1e-12) / 2 < 1e-12 * op.norm_inf
        tally = optimizer._Tally()
        result = optimizer._certified(op, lam, vec, -math.inf, 1e-12, 1.0, tally)
        assert tally.vectors > 0 and result[1] is not vec
        tally = optimizer._Tally()
        result = optimizer._certified(op, lam, vec, -math.inf, 1e-12, 100.0, tally)
        assert tally.vectors == 0 and result[1] is vec

    def test_rejects_a_degenerate_top(self, rng):
        mat = _block_tridiagonal(rng, 4, 0.0, "complex", 0.0)
        op = _DenseOperator(mat)
        lam, vec, second, _ = optimizer._ritz_step(op, rng.standard_normal(16) + 0j)
        assert optimizer._certified(op, lam, vec, second, 1e-12, 1.0) is None

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 8), st.sampled_from(["z", "xy", "xyz", "block-tridiagonal"]),
           st.integers(0, 63), st.sampled_from([-1e-3, -1e-5, 1e-5, 1e-3]),
           st.integers(0, 2**32 - 1))
    def test_inertia_count_matches_eigvalsh(self, n, kind, index, offset, seed):
        rng = np.random.default_rng(seed)
        if kind == "block-tridiagonal":
            op = _DenseOperator(_block_tridiagonal(rng, n, 1e-3, "complex", 0.3))
            w = np.linalg.eigvalsh(op.mat)
        else:
            tensor = cached_tensor(Objective.from_kind(kind), n - 1)
            b = FiducialState.random(n, rng).b
            op = tensor.operator(b)
            w = np.linalg.eigvalsh(entry_matrix(tensor, b))
        # sigma lies |offset| from an eigenvalue; a floor of a tenth of that
        # keeps the elimination's rounding below the distance that decides the
        # count. A pivot below the floor (sigma near an eigenvalue of a leading
        # block) refuses instead
        sigma = w[index % len(w)] + offset
        count = optimizer._eigenvalues_above(op, sigma, abs(offset) / 10)
        assert count is None or count == np.count_nonzero(w > sigma)

    def test_inertia_count_rarely_refuses(self, rng):
        # sigma 1e-5 and 1e-3 off every eigenvalue of objective matrices: about
        # 0.6% of such counts meet a pivot below a tenth of the offset
        answered, refused = 0, 0
        for n in range(2, 9):
            for kind in ("z", "xy", "xyz"):
                tensor = cached_tensor(Objective.from_kind(kind), n - 1)
                b = FiducialState.random(n, rng).b
                op, w = tensor.operator(b), np.linalg.eigvalsh(entry_matrix(tensor, b))
                for sigma in np.add.outer(w, [-1e-3, -1e-5, 1e-5, 1e-3]).ravel():
                    offset = np.min(np.abs(w - sigma))
                    count = optimizer._eigenvalues_above(op, sigma, offset / 10)
                    if count is None:
                        refused += 1
                    else:
                        answered += 1
                        assert count == np.count_nonzero(w > sigma)
        assert refused <= 0.02 * answered


class TestLabelCount:
    """`_label_eigenvalues_above` against eigvalsh and exact rational inertia."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.sampled_from([0, 1]), st.sampled_from([0.0, 0.3]),
           st.sampled_from(["at", "near", "between"]), st.integers(0, 2**32 - 1))
    def test_count_is_exact_or_refused(self, n, s, cut, where, seed):
        # random symmetric tridiagonal labels; `cut` zeroes that share of the
        # couplings. sigma lies at an eigenvalue, F/2 or 2F from one (F the
        # certificate's floor) or halfway to the next. eigvalsh cannot place
        # sigma = w_i on either side of the eigenvalue it rounds, so every
        # count is held to exact rational inertia, which agrees with
        # eigvalsh wherever sigma is clear of the spectrum
        rng = np.random.default_rng(seed)
        d = total_dim(n)
        upper = rng.standard_normal(d) * (rng.random(d) >= cut)
        upper[(n - 1) ** 2:] = 0.0
        sector = SectorOperator(s, rng.standard_normal(d), upper)
        mat = sector_dense(sector)
        w = np.linalg.eigvalsh(mat)
        floor = optimizer.CERT_ULPS * d * np.finfo(float).eps * sector.level_norms()[-1]
        assert sector.level_norms()[-1] == pytest.approx(np.abs(mat).sum(axis=1).max(), rel=1e-15)
        i = int(rng.integers(d))
        sigma = {"at": w[i], "near": w[i] + rng.choice([-2.0, -0.5, 0.5, 2.0]) * floor,
                 "between": (w[i] + w[i + 1]) / 2 if i + 1 < d else w[i] + 1.0}[where]
        exact = exact_count_above(mat, sigma)
        assume(exact is not None)
        if np.min(np.abs(w - sigma)) > 1e-12:
            assert exact == np.count_nonzero(w > sigma)
        count = optimizer._label_eigenvalues_above(sector, sigma, floor)
        assert count is None or count == exact

    def test_an_eigenvalue_at_sigma_is_not_above_it(self):
        # level 1's M = 0 has floor 0: at sigma = 0 its pivot is an exact
        # zero that no floor refuses, and it is not counted
        sector = SectorOperator(1, np.zeros(1), np.zeros(1))
        assert optimizer._label_eigenvalues_above(sector, 0.0, 0.0) == 0
        assert optimizer._label_eigenvalues_above(sector, -1e-11, 0.0) == 1
        assert optimizer._label_eigenvalues_above(sector, 0.0, 1e-12) is None

    def test_a_pivot_below_the_floor_refuses(self):
        # [[0, b], [b, 0]] has eigenvalues +-b exactly; at sigma = b = 0.1 the
        # second pivot rounds to -1.4e-17, which alone would count b as above
        sector = SectorOperator(0, np.array([0.0, -1.0, 0.0, -1.0]), np.array([0.1, 0, 0, 0]))
        floor = optimizer.CERT_ULPS * 4 * np.finfo(float).eps * sector.level_norms()[-1]
        assert optimizer._label_eigenvalues_above(sector, 0.1, floor) is None
        assert optimizer._label_eigenvalues_above(sector, 0.1 - 2 * floor, floor) == 1

    @pytest.mark.parametrize("s", [0, 1])
    @pytest.mark.parametrize("seed", range(6))
    def test_one_batched_count_is_every_level_counted_alone(self, s, seed):
        # level n of a batched call counts the sector of blocks j < n, which
        # `leading_sector` builds by hand; shifts lie at, near and between
        # eigenvalues, and three more entries are refused on purpose: a floor
        # above every first pivot, floor 0 (a level past one block fails the
        # eps rule at j = 1) and, for s = 0, the shift b on level 2's label
        # block [[0, b], [b, 0]], whose second pivot rounds to -1.4e-17
        rng = np.random.default_rng(seed)
        n_max = 9
        d = total_dim(n_max)
        upper = rng.standard_normal(d) * (rng.random(d) >= 0.2)
        upper[(n_max - 1) ** 2:] = 0.0
        diagonal = rng.standard_normal(d)
        diagonal[:4], upper[0] = [0.0, -1.0, 0.0, -1.0], 0.1
        sector = SectorOperator(s, diagonal, upper)
        entries = []  # (n, sigma, floor, refused on purpose)
        for n in range(1, n_max + 1):
            part = leading_sector(sector, n)
            w = np.linalg.eigvalsh(sector_dense(part))
            floor = optimizer.CERT_ULPS * n * n * np.finfo(float).eps * part.level_norms()[-1]
            sigma = w[rng.integers(len(w))] + rng.choice([0.0, 1e-9, 0.5])
            entries.append((n, sigma, floor, False))
        entries += [(4, 0.3, 10.0 * np.abs(diagonal).max() + 10.0, True), (7, 0.3, 0.0, True),
                    (2, 0.1, entries[1][2], s == 0)]
        entries.sort(key=lambda entry: entry[0])
        levels, sigmas, floors, refused = (np.array(column) for column in zip(*entries))
        batched = optimizer._label_eigenvalues_above(sector, sigmas, floors, levels)
        alone = [optimizer._label_eigenvalues_above(leading_sector(sector, n), sigma, floor)
                 for n, sigma, floor in zip(levels.tolist(), sigmas, floors)]
        assert batched == alone
        assert all(count is None for count in np.array(batched, dtype=object)[refused])
        assert any(count is not None for count in batched)


class TestBFromA:
    def test_concentrated_state_flags_empty_blocks(self):
        vec = np.zeros(4, dtype=complex)
        vec[flat_index(1, 1)] = 1.0
        b = b_from_a(AliceState(2, vec))
        assert b.b[flat_index(1, 1)] == 1.0
        assert b.b[flat_index(0, 0)] == 1.0  # uniform fill of the empty block

    def test_equal_block_mass_scales_by_sqrt_blocks(self, rng):
        n = 3
        raw = rng.standard_normal(total_dim(n)) + 1j * rng.standard_normal(total_dim(n))
        for j in range(n):
            sl = block_slice(j)
            raw[sl] *= 1.0 / (math.sqrt(n) * np.linalg.norm(raw[sl]))
        alice = AliceState(n, raw)
        b = b_from_a(alice)
        assert np.allclose(b.b, alice.a * math.sqrt(n), atol=1e-13)

    def test_blocks_unit_normalized(self, rng):
        raw = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        b = b_from_a(AliceState(4, raw / np.linalg.norm(raw)))
        for j in range(4):
            assert np.linalg.norm(b.block(j)) == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_blocks_unit_filled_and_aligned(self, n, data):
        d = total_dim(n)
        parts = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d, max_size=2 * d))
        empty = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        raw = np.array(parts[:d]) + 1j * np.array(parts[d:])
        for j in range(n):
            if empty[j]:
                raw[block_slice(j)] = 0.0
        assume(np.linalg.norm(raw) > 1e-6)
        alice = AliceState(n, raw / np.linalg.norm(raw))
        b = b_from_a(alice)
        filled = tuple(j for j in range(n) if np.linalg.norm(alice.block(j)) < 1e-14)
        for j in range(n):
            assert np.linalg.norm(b.block(j)) == pytest.approx(1.0, abs=1e-14)
            if j in filled:
                assert np.allclose(b.block(j), 1.0 / math.sqrt(2 * j + 1), atol=1e-15)
            else:
                # unit b_j with <b_j, a_j> = |a_j| is a_j's own direction and phase
                overlap = np.vdot(b.block(j), alice.block(j))
                assert overlap == pytest.approx(np.linalg.norm(alice.block(j)), rel=1e-12)


class TestFixedPoint:
    def test_single_level_trivial(self):
        for objective in (Objective.z_axis(), Objective.xyz_axes()):
            result = fixed_point_optimize(cached_tensor(objective, 0), 1)
            assert result.lam == 0.0
            assert result.converged
            assert result.iterations <= 2
            assert fidelity_report(result.a, result.b, objective).mse_per_axis == 0.5

    def test_level_two_z_analytic(self):
        result = fixed_point_optimize(cached_tensor(Objective.z_axis(), 1), 2)
        assert result.converged
        assert result.lam == pytest.approx(ROOT3, abs=1e-12)
        assert fidelity_report(result.a, result.b, Objective.z_axis()).mse_per_axis == (
            pytest.approx(0.2113248654, abs=1e-9)
        )

    def test_trajectory_never_decreases_materially(self):
        for n, objective in [(4, Objective.xyz_axes()), (5, Objective.z_axis())]:
            result = fixed_point_optimize(cached_tensor(objective, n - 1), n)
            diffs = np.diff(result.lambda_trajectory)
            assert diffs.min() > -1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["z", "xy", "xyz"]), st.integers(1, 8),
           st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    def test_trajectory_never_decreases(self, kind, n, seed):
        # the lambda floor: no round stops its pass below the previous round's
        # value; one whose space closes first can sit below it by rounding only
        result = fixed_point_optimize(cached_tensor(Objective.from_kind(kind), n - 1), n,
                                      fiducial_start(n, seed))
        assert np.diff(result.lambda_trajectory).min(initial=0.0) >= -1e-14

    def test_floor_holds_the_z_start_that_once_decreased(self):
        # from this start (the third restart of sweep --objective z --seed 0
        # at n = 39), a loop whose rounds, round 1 included, stopped on the
        # forcing target alone fell from 0.99651795 to 0.99651602 at round 22
        # and aborted; the floor holds every round at the previous value
        n = 39
        stream = np.random.SeedSequence((0, n)).spawn(3)[2]
        start = FiducialState.random(n, np.random.default_rng(stream))
        result = fixed_point_optimize(cached_tensor(Objective.z_axis(), n - 1), n, start)
        assert result.converged
        assert np.diff(result.lambda_trajectory).min() >= -1e-14
        assert result.lam == pytest.approx(z_sector(n).lam, abs=1e-12)

    def test_one_more_round_is_stationary(self):
        n = 4
        tensor = cached_tensor(Objective.xyz_axes(), n - 1)
        result = fixed_point_optimize(tensor, n, tol=1e-12)
        assert result.converged
        again = fixed_point_optimize(tensor, n, init=result.b, max_iter=1)
        assert abs(again.lam - result.lam) < 1e-11

    def test_final_lambda_consistent_with_states(self):
        n = 3
        tensor = cached_tensor(Objective.xyz_axes(), n - 1)
        result = fixed_point_optimize(tensor, n)
        direct = entry_expectation(tensor, result.a.a, result.b.b)
        assert result.lam == pytest.approx(direct, abs=1e-10)

    def test_random_inits_reach_uniform_init_value(self):
        n = 3
        tensor = cached_tensor(Objective.xyz_axes(), n - 1)
        baseline = fixed_point_optimize(tensor, n)
        for seed in range(3):
            result = fixed_point_optimize(tensor, n, fiducial_start(n, seed), max_iter=500)
            assert result.lam <= baseline.lam + 1e-9
            assert result.lam == pytest.approx(baseline.lam, abs=1e-6)

    def test_validation(self):
        tensor = cached_tensor(Objective.z_axis(), 1)
        with pytest.raises(ValueError):
            fixed_point_optimize(tensor, 2, tol=0.0)
        with pytest.raises(ValueError):
            fixed_point_optimize(tensor, 2, tol=math.nan)
        with pytest.raises(ValueError):
            fixed_point_optimize(tensor, 2, max_iter=0)
        with pytest.raises(ValueError, match="wrong n"):
            fixed_point_optimize(tensor, 2, FiducialState.uniform(3))
        with pytest.raises(ValueError, match="j_max=1 does not match state n=3"):
            fixed_point_optimize(tensor, 3)


def _all_dense_fixed_point(tensor, n, b, tol=1e-12, max_iter=2000):
    """Reference loop from fiducial state b: a dense top eigenpair every round, plain stop rule."""
    lam_prev = a_prev = None
    for _ in range(max_iter):
        lam, vec = optimizer._top_eigh(entry_matrix(tensor, b.b))
        done = (lam_prev is not None and abs(lam - lam_prev) < tol
                and np.linalg.norm(vec - a_prev) < math.sqrt(tol))
        a_prev, lam_prev = vec, lam
        b = b_from_a(AliceState(n, vec))
        if done:
            return entry_expectation(tensor, a_prev, b.b)
    raise AssertionError("the all-dense reference loop did not converge")


def _optimize_without_dense_algebra(capsys, monkeypatch, n):
    """`optimize --n n --objective xy --restarts 0`'s JSON and tracemalloc peak.

    xy has no closed sector, so the loop runs. Cholesky and any eigh or
    eigvalsh of more than 2n - 1 rows, the largest Schur block, raise meanwhile.
    """
    from framecast.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("dense objective matrix or factorization")

    def bounded(solve):
        def checked(mat, *args, **kwargs):
            if mat.shape[-1] > 2 * n - 1:
                raise AssertionError(f"{solve.__name__} of a {mat.shape} matrix")
            return solve(mat, *args, **kwargs)
        return checked

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "eigh", bounded(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", bounded(np.linalg.eigvalsh))
    tracemalloc.start()
    try:
        assert main(["optimize", "--n", str(n), "--objective", "xy", "--restarts", "0"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return json.loads(capsys.readouterr().out), peak


class _FixedMatrixTensor:
    """Stand-in tensor whose objective matrix ignores the fiducial state."""

    def __init__(self, n, mat):
        self.j_max = n - 1
        self.mat = mat
        self.weight = 1.0  # the unit of the loop's tolerances

    def operator(self, b):
        return _DenseOperator(self.mat)

    def expectation(self, a, b):
        return float(np.vdot(a, self.mat @ a).real)


class TestWarmRounds:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.floats(0.0, 0.5), st.booleans(), st.integers(0, 2**32 - 1))
    def test_ritz_value_between_start_and_top(self, d, spread, real, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((d, d))
        if not real:
            raw = raw + 1j * rng.standard_normal((d, d))
        herm = (raw + raw.conj().T) / 2
        spectrum = np.linalg.eigvalsh(herm)
        top = spectrum[-1]
        start = np.linalg.eigh(herm)[1][:, -1] + spread * (
            rng.standard_normal(d) + 1j * rng.standard_normal(d))
        start /= np.linalg.norm(start)
        lam, vec, second, _ = optimizer._ritz_step(herm, start)
        assert lam >= np.vdot(start, herm @ start).real - 1e-12
        assert lam <= top + 1e-12
        # Cauchy interlacing: the second Ritz value never exceeds lambda_2
        assert second <= (spectrum[-2] if d > 1 else -math.inf) + 1e-12
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert abs(np.vdot(vec, herm @ vec).real - lam) < 1e-10
        pivot = vec[np.argmax(np.abs(vec))]
        assert abs(pivot.imag) < 1e-14 and pivot.real > 0

    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 40), st.floats(-8.0, 0.0), st.floats(0.0, 0.999), st.floats(0.0, 0.5),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_pass_stops_at_its_residual_target(self, d, log_target, lift, spread, real, seed):
        # the residual read off the Lanczos relation is the true one: a pass
        # that stops before the cap meets its target and its floor, and a
        # pass with target 0 runs to the cap (or until the space closes)
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((d, d))
        if not real:
            raw = raw + 1j * rng.standard_normal((d, d))
        herm = (raw + raw.conj().T) / 2
        w, v = np.linalg.eigh(herm)
        start = v[:, -1] + spread * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        start /= np.linalg.norm(start)
        rayleigh = np.vdot(start, herm @ start).real
        target, floor = 10.0 ** log_target, rayleigh + lift * (w[-1] - rayleigh)
        lam, vec, _, size = optimizer._ritz_step(herm, start, target, floor)
        cap = min(d, optimizer.WIDE_KRYLOV_DIM)
        residual = np.linalg.norm(herm @ vec - lam * vec)
        assert size <= cap
        if size < cap and residual > 1e-10:  # stopped on its target, not on a closed space
            assert size >= 2  # the target is tested from the second vector on
            assert residual <= target * (1 + 1e-6) + 1e-12
            assert lam >= floor
        # target 0: the cap, unless the space closed on an exact eigenpair
        lam, vec, _, full = optimizer._ritz_step(herm, start)
        assert full == cap or np.linalg.norm(herm @ vec - lam * vec) < 1e-8

    def test_certificate_refuses_a_non_top_eigenvector(self, rng, monkeypatch):
        # M is exactly block diagonal, so a Krylov space started at the top
        # eigenvector of the low block never leaves that block
        n = 3
        low = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        high = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        mat = np.zeros((9, 9), dtype=complex)
        mat[:3, :3] = (low + low.conj().T) / 2
        mat[3:, 3:] = (high + high.conj().T) / 2 + 10.0 * np.eye(6)
        trap = np.zeros(9, dtype=complex)
        w_low, v_low = np.linalg.eigh(mat[:3, :3])
        trap[:3] = v_low[:, -1]
        op = _DenseOperator(mat)
        assert optimizer._ritz_step(op, trap)[0] == pytest.approx(w_low[-1], abs=1e-12)
        assert optimizer._certified(op, w_low[-1], trap, -math.inf, 1e-12, 1.0) is None

        ritz_step = optimizer._ritz_step
        targets = []

        def trapped_first_round(m, start, target=0.0, lam_floor=-math.inf):
            targets.append(target)
            if len(targets) == 1:
                return float(w_low[-1]), trap, -math.inf, 1
            return ritz_step(m, start, target, lam_floor)

        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve")

        monkeypatch.setattr(optimizer, "_ritz_step", trapped_first_round)
        monkeypatch.setattr(optimizer, "_top_eigh", refuse)
        # every later round stays in the low block and looks converged; no
        # certificate passes, so the loop runs out without claiming convergence
        result = fixed_point_optimize(_FixedMatrixTensor(n, mat), n, max_iter=20)
        assert not result.converged
        assert result.iterations == 20
        assert result.lam == pytest.approx(w_low[-1], abs=1e-12)
        # round 1 has no state change to force on: target 0, a pass to the cap
        assert targets[0] == 0.0

    @pytest.mark.parametrize("kind", ["z", "xy", "xyz"])
    def test_converged_values_match_the_all_dense_loop(self, kind):
        for n in range(1, 9):
            tensor = cached_tensor(Objective.from_kind(kind), n - 1)
            for seed in (None, 0, 1):
                result = fixed_point_optimize(tensor, n, fiducial_start(n, seed), max_iter=2000)
                assert result.converged
                reference = _all_dense_fixed_point(tensor, n, fiducial_start(n, seed))
                assert result.lam == pytest.approx(reference, abs=1e-12)

    def test_a_refused_certificate_continues_the_loop(self, monkeypatch):
        # no round takes a dense solve; a refused certificate leaves its round
        # unconverged, so the loop stops at its first accepted certificate
        certify = optimizer._certified
        accepted = []

        def counted_certify(*args):
            result = certify(*args)
            accepted.append(result is not None)
            return result

        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve")

        monkeypatch.setattr(optimizer, "_top_eigh", refuse)
        monkeypatch.setattr(optimizer, "_certified", counted_certify)
        refused = 0
        for kind in ("z", "xy", "xyz"):
            for n in range(2, 9):
                tensor = cached_tensor(Objective.from_kind(kind), n - 1)
                # the sweep's restart streams; z at n = 8 refuses two of them once
                streams = np.random.SeedSequence((0, n)).spawn(3)
                for seed in (None, *streams):
                    accepted.clear()
                    result = fixed_point_optimize(tensor, n, fiducial_start(n, seed),
                                                  max_iter=2000)
                    assert result.converged
                    assert accepted[-1] and not any(accepted[:-1])
                    refused += len(accepted) - 1
        assert refused > 0  # the refused path ran

    def test_large_level_takes_no_dense_solve(self, capsys, monkeypatch):
        # optimize --n 60: no round or certificate forms the d = 3600 matrix
        # (one complex d x d array is 207 MB); eigh sees Lanczos projections
        # and Schur blocks only
        doc, peak = _optimize_without_dense_algebra(capsys, monkeypatch, 60)
        assert doc["converged"]
        top = np.linalg.eigvalsh(stretched_jacobi(60, 0.0, 1.0))[-1]
        assert doc["lambda"] == pytest.approx(top, abs=1e-11)
        assert peak < 32e6

    @pytest.mark.slow
    def test_level_one_hundred(self, capsys, monkeypatch):
        doc, peak = _optimize_without_dense_algebra(capsys, monkeypatch, 100)
        assert doc["converged"]
        top = np.linalg.eigvalsh(stretched_jacobi(100, 0.0, 1.0))[-1]
        assert doc["lambda"] == pytest.approx(top, abs=1e-11)
        assert peak < 64e6

    @pytest.mark.slow
    def test_level_two_hundred_converges_at_the_default_cap(self, capsys):
        # optimize prints the certified sector pair; the loop from the
        # stretched start reaches it within the default cap
        from framecast.cli import main

        assert main(["optimize", "--n", "200", "--objective", "xyz", "--restarts", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] and doc["iterations"] == 1
        assert doc["lambda"] == pytest.approx(2.98629163942, abs=1e-11)
        loop = loop_best_of_restarts(cached_tensor(Objective.xyz_axes(), 199), 200, 0, 0)
        assert loop.converged and loop.iterations <= optimizer.DEFAULT_MAX_ITER
        assert loop.lam == pytest.approx(2.98629163942, abs=1e-11)

    def test_z_sweep_past_level_forty_converges(self, capsys):
        # forcing-stopped rounds need 31 rounds at n = 43, where the fixed
        # 6-vector rounds ran past the default cap of 200; every sweep row is
        # a sector row, so the loop's starts and restarts run here directly
        from framecast.cli import main

        assert main(["sweep", "--objective", "z", "--n", "40..45"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(40, 46))
        for row in rows:
            n, _, lam, _, converged = row.split(",")
            assert converged == "true"
            assert float(lam) == pytest.approx(z_sector(int(n)).lam, abs=1e-12)
        for n in range(40, 46):
            best = loop_best_of_restarts(cached_tensor(Objective.z_axis(), n - 1), n,
                                         optimizer.DEFAULT_RESTARTS, 0)
            assert best.converged, n
            assert best.lam == pytest.approx(z_sector(n).lam, abs=1e-12), n

    @pytest.mark.parametrize("kind", ["z", "xy", "xyz"])
    def test_round_one_reaches_the_dense_top_eigenvalue(self, monkeypatch, kind):
        # the wide Lanczos pass from the fiducial amplitudes: the top
        # eigenvalue itself up to n = 6, never above it, and no dense solve
        def refuse(*args, **kwargs):
            raise AssertionError("dense solve in round 1")

        monkeypatch.setattr(optimizer, "_top_eigh", refuse)
        for n in range(1, 15):
            tensor = cached_tensor(Objective.from_kind(kind), n - 1)
            for seed in (None, 0, 1):
                b = fiducial_start(n, seed)
                top = np.linalg.eigvalsh(entry_matrix(tensor, b.b))[-1]
                first = fixed_point_optimize(tensor, n, init=b, max_iter=1).lambda_trajectory[0]
                assert first <= top + 1e-12, (n, seed)
                if n <= 6:
                    assert first == pytest.approx(top, abs=1e-12), (n, seed)

    def test_sweep_matches_the_benchmark_reference(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "sweep_xyz.json"
        reference = json.loads(path.read_text())["lambda"]
        rows = sweep(Objective.xyz_axes(), 2, 20, restarts=3, seed=0)
        assert sorted(row.n for row in rows) == sorted(int(n) for n in reference)
        for row in rows:
            assert row.converged
            assert row.lam == pytest.approx(reference[str(row.n)], abs=1e-9)


class TestObservability:
    def test_one_debug_record_per_fixed_point(self, caplog):
        tensor = cached_tensor(Objective.xyz_axes(), 5)
        with caplog.at_level(logging.DEBUG, logger="framecast.optimizer"):
            result = fixed_point_optimize(tensor, 6)
        [record] = [r for r in caplog.records if r.name == "framecast.optimizer"]
        n, rounds, vectors, tried, passed, seconds = record.args
        assert (n, rounds) == (6, result.iterations)
        # round 1 runs to the cap; every later round adds at least one vector
        assert optimizer.WIDE_KRYLOV_DIM + rounds - 1 <= vectors
        assert tried == passed == 1 and result.converged
        assert seconds > 0
        assert record.getMessage().startswith(f"fixed point n=6: {rounds} rounds, {vectors} ")

    def test_sweep_counts_inertia_once_per_fixed_point(self, caplog):
        # xyz at seed 1 over n = 2..10: each level takes the sector pair and
        # runs its 3 random restarts, 27 fixed points, each certified by the
        # first inertia count it tries
        objective = Objective.xyz_axes()
        with caplog.at_level(logging.DEBUG, logger="framecast.optimizer"):
            results = [best_of_restarts(cached_tensor(objective, n - 1), n, 3, seed=1)
                       for n in range(2, 11)]
        assert all(result.converged for result in results)
        records = [r.args for r in caplog.records if r.name == "framecast.optimizer"]
        assert len(records) == 27
        assert sum(args[3] for args in records) == sum(args[4] for args in records) == 27
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        # the benchmark's sweep at seed 1 reads every level from the sector
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="framecast.optimizer"):
            rows = sweep(objective, 2, 14, seed=1)
        assert all(row.converged for row in rows)
        assert not [r for r in caplog.records if r.name == "framecast.optimizer"]


class TestSingleM:
    def test_level_two(self):
        assert z_sector(2).lam == pytest.approx(ROOT3, abs=1e-14)

    def test_level_three_matches_dense_sector(self):
        sector = cached_tensor(Objective.z_axis(), 2).sector(0, 0).block(0)
        expected = np.array([
            [0.0, ROOT3, 0.0],
            [ROOT3, 0.0, 2.0 / math.sqrt(15)],
            [0.0, 2.0 / math.sqrt(15), 0.0],
        ])
        assert np.allclose(sector, expected, atol=1e-15)
        assert z_sector(3).lam == pytest.approx(
            np.linalg.eigvalsh(expected)[-1], abs=1e-14
        )

    def test_m_zero_dominates_and_matches_full_optimum(self):
        for n in range(2, 7):
            sector_values = {m: z_sector(n, m).lam for m in range(-(n - 1), n)}
            best_m = max(sector_values, key=sector_values.get)
            assert best_m == 0
            full = fixed_point_optimize(cached_tensor(Objective.z_axis(), n - 1), n)
            assert sector_values[0] == pytest.approx(full.lam, abs=1e-9)

    def test_embedded_states_consistent(self):
        result = z_sector(4, 1)
        tensor = cached_tensor(Objective.z_axis(), 3)
        assert entry_expectation(tensor, result.a.a, result.b.b) == pytest.approx(
            result.lam, abs=1e-12
        )

    def test_z_loop_is_the_sector_optimum(self):
        # the loop's evidence for the z rows of sweep, optimize and simulate,
        # every one of them z_sector(n)
        for n in range(2, 11):
            loop = loop_best_of_restarts(cached_tensor(Objective.z_axis(), n - 1), n,
                                         optimizer.DEFAULT_RESTARTS, 0)
            assert loop.converged
            assert loop.lam == pytest.approx(z_sector(n).lam, abs=1e-12), n

    def test_m_range_validated(self):
        with pytest.raises(ValueError):
            z_sector(2, 2)

    def test_scaled_error_approaches_bessel_zero_from_below(self):
        # independent oracle: the m = 0 sector is a discretized Bessel problem,
        # so d * mse_z rises toward j_{0,1}^2 / 4 with a gap that shrinks like 1/n
        limit = jn_zeros(0, 1)[0] ** 2 / 4
        scaled = []
        for n in (2, 3, 5, 10, 20, 30, 60, 100):
            result = z_sector(n)
            mse = fidelity_report(result.a, result.b, Objective.z_axis()).mse_per_axis
            scaled.append(n * n * mse)
            assert 0 < limit - scaled[-1] < 1.5 / n, n
        assert all(lo < hi for lo, hi in zip(scaled, scaled[1:]))

    def test_level_sixty_reads_the_sector_alone(self):
        # the sector has n - |m| rows; a complex d x d matrix at n = 60 is 207 MB
        tracemalloc.start()
        try:
            result = z_sector(60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert result.lam == pytest.approx(0.999210123227436, abs=1e-12)


def stretched_jacobi(n, w_z, w_xy):
    """M(b) for b_j = |j, j> on the stretched sector {|j, j>}, in closed form from j alone."""
    j = np.arange(n)
    off = w_xy * np.sqrt((2 * j[:-1] + 1) / (2 * j[:-1] + 3))
    return np.diag(w_z * j / (j + 1)) + np.diag(off, 1) + np.diag(off, -1)


def stretched_sector_slots(objective, n):
    """operator(FiducialState.stretched(n).b) on the stretched sector, and its largest coupling out.

    Gathered from the operator's slots: the sector block, and the largest
    magnitude of a slot whose row lies in the sector and whose column does not.
    """
    op = cached_tensor(objective, n - 1).operator(FiducialState.stretched(n).b)
    position = np.full(total_dim(n), -1)
    position[flat_index(np.arange(n), np.arange(n))] = np.arange(n)
    rows, cols = position[op.plan.slot_rows], position[op.plan.slot_cols]
    inside = (rows >= 0) & (cols >= 0)
    mat = np.zeros((n, n), dtype=complex)
    mat[rows[inside], cols[inside]] = op.values[inside]
    return mat, np.abs(op.values[(rows >= 0) & (cols < 0)]).max(initial=0.0)


class TestStretchedSector:
    @pytest.mark.parametrize("objective, w_z, w_xy", [
        (Objective.z_axis(), 1.0, 0.0), (Objective.xy_axes(), 0.0, 1.0),
        (Objective.xyz_axes(), 1.0, 1.0), (Objective.weighted(2.0, 0.5), 2.0, 0.5)])
    def test_closed_form_matches_the_operator_slots(self, objective, w_z, w_xy):
        # M(b) maps the sector into itself, and there it is the Jacobi matrix
        for n in (1, 2, 3, 8, 30):
            mat, leak = stretched_sector_slots(objective, n)
            assert leak == 0.0
            assert np.max(np.abs(mat - stretched_jacobi(n, w_z, w_xy))) <= 1e-15

    def test_closed_form_matches_quadrature(self):
        # f[2j, 2j, 2k, 2k] is the entry m = r = j, n = s = k of the brute-force oracle
        grid = make_grid(5)
        for f, w_z, w_xy in [(lambda a, b, g: np.cos(b), 1.0, 0.0),
                             (lambda a, b, g: (1.0 + np.cos(b)) * np.cos(a + g), 0.0, 1.0)]:
            mat = np.array([[coefficient_block(f, j, k, grid)[2 * j, 2 * j, 2 * k, 2 * k]
                             for k in range(6)] for j in range(6)])
            assert np.max(np.abs(mat - stretched_jacobi(6, w_z, w_xy))) < 1e-10

    def test_xyz_sweep_is_the_sector_optimum(self):
        # every row comes from the sector, as does best_of_restarts' pair, so
        # the loop's evidence is fixed_point_optimize run against them
        rows = sweep(Objective.xyz_axes(), 2, 40)
        for row in rows:
            assert row.converged
            top = np.linalg.eigvalsh(stretched_jacobi(row.n, 1.0, 1.0))[-1]
            assert row.lam == pytest.approx(top, abs=1e-12), row.n
        for n in range(2, 41):
            loop = loop_best_of_restarts(cached_tensor(Objective.xyz_axes(), n - 1), n,
                                         optimizer.DEFAULT_RESTARTS, 0)
            assert loop.converged
            assert loop.lam == pytest.approx(rows[n - 2].lam, abs=1e-12), n

    def test_xyz_start_closes_in_two_rounds(self):
        # round 1's pass closes inside the n-dimensional sector up to the Lanczos cap
        for n in (2, 9, optimizer.WIDE_KRYLOV_DIM):
            result = fixed_point_optimize(cached_tensor(Objective.xyz_axes(), n - 1), n,
                                          FiducialState.stretched(n))
            assert result.converged and result.iterations == 2

    def test_xy_level_ten_from_the_default_flags(self):
        # the uniform start stops at a saddle (1.72824); the stretched start reaches the optimum
        result = best_of_restarts(cached_tensor(Objective.xy_axes(), 9), 10,
                                  optimizer.DEFAULT_RESTARTS, 0)
        assert result.converged
        assert result.lam == pytest.approx(1.7310068043145, abs=1e-12)

    def test_xy_rows_from_level_ten_converge_to_the_sector_optimum(self):
        self._check_xy_rows(10, 16)

    @pytest.mark.slow
    def test_xy_rows_to_level_thirty(self):
        self._check_xy_rows(17, 30)

    @staticmethod
    def _check_xy_rows(n_from, n_to):
        for row in sweep(Objective.xy_axes(), n_from, n_to):
            assert row.converged
            top = np.linalg.eigvalsh(stretched_jacobi(row.n, 0.0, 1.0))[-1]
            assert row.lam == pytest.approx(top, abs=1e-12), row.n

    @pytest.mark.parametrize("objective, first", [
        (Objective.xyz_axes(), []), (Objective.weighted(3.0, 3.0), []),
        (Objective.xy_axes(), ["uniform", "stretched"]),
        (Objective.weighted(2.0, 0.5), ["uniform", "stretched"]),
        (Objective.z_axis(), []), (Objective.weighted(1.0, 0.0), [])])
    def test_deterministic_starts_follow_the_symmetry_of_c(self, monkeypatch, objective, first):
        # a certified sector pair is the deterministic candidate of z-only and
        # isotropic c, so the loop runs only its random restarts
        n, starts = 3, []
        plain = optimizer.fixed_point_optimize

        def recorded(tensor, n, init=None, **kwargs):
            starts.append(init)
            return plain(tensor, n, init, **kwargs)

        monkeypatch.setattr(optimizer, "fixed_point_optimize", recorded)
        best_of_restarts(cached_tensor(objective, n - 1), n, 2, 5)
        assert len(starts) == len(first) + 2
        for start, name in zip(starts, first):
            if name == "uniform":
                assert start is None
            else:
                assert np.array_equal(start.b, FiducialState.stretched(n).b)
        # the random restarts keep their seed streams
        for start, stream in zip(starts[len(first):], np.random.SeedSequence((5, n)).spawn(2)):
            expected = FiducialState.random(n, np.random.default_rng(stream))
            assert np.array_equal(start.b, expected.b)


def label_of_sites(n, s):
    """m - s j of every flat site (j, m) of level n."""
    j = np.repeat(np.arange(n), 2 * np.arange(n) + 1)
    return np.arange(n * n) - j * j - j - s * j


def sector_fiducial(n, s):
    """b_j = |j, s j> as flat amplitudes."""
    b = np.zeros(total_dim(n))
    b[flat_index(np.arange(n), s * np.arange(n))] = 1.0
    return b


def sector_dense(sector):
    """The d x d matrix of a SectorOperator, entry by entry from (j, m) loops."""
    n, s = sector.n, sector.s
    mat = np.diag(sector.diagonal)
    for j in range(n - 1):
        for m in range(-j, j + 1):
            row, col = flat_index(j, m), flat_index(j + 1, m + s)
            mat[row, col] = mat[col, row] = sector.upper[row]
    return mat


def exact_count_above(mat, sigma):
    """Eigenvalues of a symmetric tridiagonal-by-label mat above sigma, in exact rationals.

    Sign changes of the leading principal minors of sigma - T per connected
    chain of mat's graph (Sturm, in Fractions); None when a minor is zero.
    """
    d, seen, count = len(mat), set(), 0
    for start in range(d):
        if start in seen:
            continue
        chain = [start]
        while True:  # each site couples to at most one later site
            later = [k for k in np.flatnonzero(mat[chain[-1]]) if k > chain[-1]]
            if not later:
                break
            chain.append(int(later[0]))
        seen.update(chain)
        prev, minor, sig = Fraction(1), Fraction(1), Fraction(sigma)
        for i, site in enumerate(chain):
            coupling = Fraction(mat[chain[i - 1], site]) if i else Fraction(0)
            prev, minor = minor, (sig - Fraction(mat[site, site])) * minor - coupling**2 * prev
            if minor == 0:
                return None
            count += (minor > 0) != (prev > 0)
    return count


class TestSectorRows:
    """Sweep rows from a closed sector, against oracles that share no code with `coefficients`."""

    @pytest.mark.parametrize("objective", [Objective.z_axis(), Objective.xy_axes(),
                                           Objective.xyz_axes(), Objective.weighted(2.0, 0.5)])
    @pytest.mark.parametrize("s", [0, 1])
    def test_label_blocks_are_the_operator_slots(self, objective, s):
        # at b_j = |j, s j> no slot couples two labels, and every label's
        # slots form its tridiagonal block
        for n in (1, 2, 3, 8, 30):
            tensor = cached_tensor(objective, n - 1)
            op, sector = tensor.operator(sector_fiducial(n, s)), tensor.sector(0, s)
            label = label_of_sites(n, s)
            rows, cols = op.plan.slot_rows, op.plan.slot_cols
            assert not op.values[label[rows] != label[cols]].any()
            for value in np.unique(label):
                sites = np.flatnonzero(label == value)
                position = np.full(total_dim(n), -1)
                position[sites] = np.arange(sites.size)
                inside = (position[rows] >= 0) & (position[cols] >= 0)
                mat = np.zeros((sites.size, sites.size), dtype=complex)
                mat[position[rows[inside]], position[cols[inside]]] = op.values[inside]
                assert np.array_equal(sector.sites(value), sites)
                assert np.max(np.abs(sector.block(value) - mat)) <= 1e-15, (n, value)
            assert sector.level_norms()[-1] == pytest.approx(op.norm_inf, abs=1e-15)

    @pytest.mark.parametrize("objective", [Objective.z_axis(), Objective.xyz_axes(),
                                           Objective.weighted(2.0, 0.5)])
    @pytest.mark.parametrize("s", [0, 1])
    def test_level_norms_are_each_levels_operator_norm(self, objective, s):
        norms = cached_tensor(objective, 29).sector(0, s).level_norms()
        for n in range(1, 31):
            op = cached_tensor(objective, n - 1).operator(sector_fiducial(n, s))
            assert norms[n - 1] == pytest.approx(op.norm_inf, abs=1e-15), n

    def test_stretched_sector_against_gauss_legendre_at_large_j(self):
        # an oracle with no Clebsch-Gordan code: the stretched coefficients are
        # 1-D integrals over t = (1 + x) / 2, exact on j + 2 Gauss-Legendre
        # nodes; their rounding reached 8.4e-13 at n = 100 (4.2e-13 on the diagonal)
        n, w_z, w_xy = 100, 0.5, 1.0
        sector = cached_tensor(Objective.weighted(w_z, w_xy), n - 1).sector(0, 1)
        for j in range(n):
            x, weights = np.polynomial.legendre.leggauss(j + 2)
            t = (1 + x) / 2
            diagonal = (2 * j + 1) * w_z * weights @ (t ** (2 * j) * x) / 2
            assert sector.diagonal[flat_index(j, j)] == pytest.approx(diagonal, abs=4e-12), j
            if j < n - 1:
                upper = math.sqrt((2 * j + 1) * (2 * j + 3)) * (w_xy / 2) * (
                    weights @ (t ** (2 * j + 1) * (1 + x)) / 2)
                assert sector.upper[flat_index(j, j)] == pytest.approx(upper, abs=4e-12), j

    @pytest.mark.parametrize("objective, n_max, every_m", [
        (Objective.z_axis(), 8, True), (Objective.xyz_axes(), 12, False),
        (Objective.weighted(3.0, 3.0), 12, False)])
    def test_the_sector_pair_is_a_joint_fixed_point(self, objective, n_max, every_m):
        # against the dense M of the embedded fiducial; for z at m != 0 the
        # blocks j < |m| hold no site and carry the uniform fiducial
        for n in range(1, n_max + 1):
            tensor = cached_tensor(objective, n - 1)
            for m in range(-(n - 1), n) if every_m else [0]:
                result = optimize_sector(tensor, n, m)
                mat = entry_matrix(tensor, result.b.b)
                assert result.converged, (n, m)
                assert np.linalg.eigvalsh(mat)[-1] == pytest.approx(result.lam, abs=1e-12), (n, m)
                assert np.linalg.norm(mat @ result.a.a - result.lam * result.a.a) <= 1e-12, (n, m)
                assert b_from_a(result.a).b == pytest.approx(result.b.b, abs=1e-15), (n, m)

    def test_optimize_sector_refuses_what_has_no_sector(self):
        for objective in (Objective.xy_axes(), Objective(np.diag([0.2, 0.5, 1.0]))):
            with pytest.raises(ValueError, match="no closed sector"):
                optimize_sector(cached_tensor(objective, 2), 3)
        with pytest.raises(ValueError, match="m=3"):
            optimize_sector(cached_tensor(Objective.z_axis(), 2), 3, 3)
        with pytest.raises(ValueError, match="needs m = 0"):
            optimize_sector(cached_tensor(Objective.xyz_axes(), 2), 3, 1)
        with pytest.raises(ValueError, match="does not match"):
            optimize_sector(cached_tensor(Objective.z_axis(), 2), 4)

    def test_sector_takes_only_its_two_fiducials(self):
        tensor = cached_tensor(Objective.xyz_axes(), 3)
        assert np.array_equal(tensor.sector(2, 0).sites(2), [flat_index(j, 2) for j in (2, 3)])
        for m, s in [(1, 1), (-1, 1), (0, 2)]:
            with pytest.raises(ValueError):
                tensor.sector(m, s)
        with pytest.raises(ValueError, match="diagonal"):
            cached_tensor(Objective(np.diag([-1e-13, 1e-13, 1.0])), 3).sector(0, 0)

    def test_z_rows_are_the_largest_legendre_zeros(self):
        for row in sweep(Objective.z_axis(), 2, 100):
            assert row.converged
            top = np.polynomial.legendre.leggauss(row.n)[0].max()
            assert row.lam == pytest.approx(top, abs=1e-14), row.n

    def test_xyz_rows_are_the_stretched_closed_form(self):
        for row in sweep(Objective.xyz_axes(), 2, 100):
            assert row.converged
            top = np.linalg.eigvalsh(stretched_jacobi(row.n, 1.0, 1.0))[-1]
            assert row.lam == pytest.approx(top, abs=1e-14), row.n

    @pytest.mark.parametrize("objective, s", [
        (Objective.z_axis(), 0), (Objective.weighted(2.0, 0.0), 0),
        (Objective.xyz_axes(), 1), (Objective.weighted(3.0, 3.0), 1)])
    def test_row_error_is_the_report_of_the_embedded_pair(self, objective, s):
        # every level of the sweep is a sector row
        rows = {row.n: row for row in sweep(objective, 10, 30)}
        for n in range(1, 31):
            result = optimize_sector(cached_tensor(objective, n - 1), n)
            assert result.converged
            assert result.b.b == pytest.approx(sector_fiducial(n, s), abs=1e-15)
            assert b_from_a(result.a).b == pytest.approx(result.b.b, abs=1e-15)
            report = fidelity_report(result.a, result.b, objective)
            assert result.lam == pytest.approx(report.lam, abs=1e-14 * objective.axes[1][0]), n
            if n in rows:
                row = rows[n]
                assert row.mse_per_axis == pytest.approx(report.mse_per_axis, abs=1e-14), n
                assert row.lam == pytest.approx(report.lam, abs=1e-14 * objective.axes[1][0]), n

    def test_a_c_that_is_z_only_up_to_rounding_has_no_sector(self):
        # c_xx = -c_yy = 1e-13 is a valid c whose c_hat is not diagonal: no
        # sector, so every row runs the loop
        objective = Objective(np.diag([-1e-13, 1e-13, 1.0]))
        assert optimizer._sector(cached_tensor(objective, 2).c_hat) is None
        assert optimizer._sector(cached_tensor(Objective.weighted(2.0, 0.0), 2).c_hat) == 0
        row = sweep(objective, 12, 12)[0]
        assert row.converged
        assert row.lam == pytest.approx(z_sector(12).lam, abs=1e-11)

    @pytest.mark.parametrize("objective", [Objective.z_axis(), Objective.xyz_axes(),
                                           Objective.weighted(3.0, 3.0),
                                           Objective.weighted(2.0, 0.0)])
    def test_sweep_rows_are_the_sector_solve_of_each_level(self, objective):
        # one sector at n_to and one batched count give every level the
        # lambda and certificate of its own `optimize_sector`, bit for bit
        for n_from, n_to in [(1, 60), (10, 30), (17, 17)]:
            rows = sweep(objective, n_from, n_to)
            assert [row.n for row in rows] == list(range(n_from, n_to + 1))
            for row in rows:
                alone = optimize_sector(cached_tensor(objective, row.n - 1), row.n)
                assert alone.converged and row.converged, row.n
                assert row.lam == alone.lam, row.n

    def test_a_sweep_builds_one_tensor_and_one_sector(self, monkeypatch):
        calls = {"tensor": 0, "sector": 0}
        tensor_of, sector_of = optimizer.cached_tensor, SparseCoefficientTensor.sector

        def counted_tensor(*args):
            calls["tensor"] += 1
            return tensor_of(*args)

        def counted_sector(*args):
            calls["sector"] += 1
            return sector_of(*args)

        monkeypatch.setattr(optimizer, "cached_tensor", counted_tensor)
        monkeypatch.setattr(SparseCoefficientTensor, "sector", counted_sector)
        rows = sweep(Objective.xyz_axes(), 2, 30)
        assert all(row.converged for row in rows)
        assert calls == {"tensor": 1, "sector": 1}

    def test_a_refused_count_sends_only_its_level_to_the_loop(self, monkeypatch, caplog):
        count = optimizer._label_eigenvalues_above
        loop_levels = []

        def refused_at_twelve(sector, sigma, floor, levels=None):
            counts = count(sector, sigma, floor, levels)
            if levels is None:
                return counts
            return [None if n == 12 else c for n, c in zip(levels, counts)]

        monkeypatch.setattr(optimizer, "_label_eigenvalues_above", refused_at_twelve)
        monkeypatch.setattr(optimizer, "best_of_restarts", _recording(loop_levels))
        with caplog.at_level(logging.WARNING, logger="framecast.optimizer"):
            rows = sweep(Objective.z_axis(), 2, 14)
        assert loop_levels == [12]
        [warning] = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert "n=12" in warning.getMessage()
        assert all(row.converged for row in rows)
        assert rows[10].lam == pytest.approx(z_sector(12).lam, abs=1e-12)

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["z", "xyz"])
    def test_cli_sweep_to_level_one_hundred(self, capsys, kind):
        # the CSV prints lambda to 11 significant digits; the rows themselves
        # meet the oracles within 1e-14 (z reached 4.4e-16, xyz 4.0e-15 at n = 292)
        from framecast.cli import main

        objective = Objective.from_kind(kind)
        for n_to in (100, 300):
            assert main(["sweep", "--objective", kind, "--n", f"2..{n_to}"]) == 0
            printed = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
            rows = sweep(objective, 2, n_to)
            assert [int(row[0]) for row in printed] == [row.n for row in rows] == list(
                range(2, n_to + 1))
            for (_, _, lam, _, converged), row in zip(printed, rows):
                if kind == "z":
                    top = np.polynomial.legendre.leggauss(row.n)[0].max()
                else:
                    top = np.linalg.eigvalsh(stretched_jacobi(row.n, 1.0, 1.0))[-1]
                assert converged == "true" and row.converged
                assert float(lam) == pytest.approx(top, rel=1e-11), row.n
                assert row.lam == pytest.approx(top, abs=1e-14), row.n


def leading_sector(sector, n):
    """The sector of level n: sector's blocks j < n, block n - 1 coupled to nothing above."""
    upper = sector.upper[: n * n].copy()
    upper[(n - 1) ** 2:] = 0.0
    return SectorOperator(sector.s, sector.diagonal[: n * n], upper)


def _recording(levels):
    """best_of_restarts that appends each level it runs to levels."""
    plain = optimizer.best_of_restarts

    def recorded(tensor, n, *args, **kwargs):
        levels.append(n)
        return plain(tensor, n, *args, **kwargs)

    return recorded


class TestSolveRule:
    """One rule at one n: the certified sector pair where c has a closed sector, else the loop."""

    @pytest.mark.parametrize("objective", [Objective.z_axis(), Objective.xyz_axes(),
                                           Objective.weighted(3.0, 3.0),
                                           Objective.weighted(1.0, 0.0)])
    def test_the_pair_is_the_sweep_row(self, monkeypatch, objective):
        rows = sweep(objective, 1, 40)

        def refuse(*args, **kwargs):
            raise AssertionError("the loop ran")

        monkeypatch.setattr(optimizer, "fixed_point_optimize", refuse)
        for row in rows:
            result = best_of_restarts(cached_tensor(objective, row.n - 1), row.n, 0, 0)
            assert result.converged and row.converged, row.n
            assert result.iterations == 1 and result.lambda_trajectory == (result.lam,), row.n
            assert result.lam == row.lam, row.n

    @pytest.mark.parametrize("objective, stretched", [(Objective.z_axis(), False),
                                                      (Objective.xyz_axes(), True)])
    def test_a_refused_count_runs_the_loop_once_warned(self, monkeypatch, caplog, objective,
                                                       stretched):
        n, tensor = 6, cached_tensor(objective, 5)
        monkeypatch.setattr(optimizer, "_sector_certified",
                            lambda sector, levels, lams: [False] * len(levels))
        with caplog.at_level(logging.WARNING, logger="framecast.optimizer"):
            result = best_of_restarts(tensor, n, 0, 0)
        [warning] = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert warning.getMessage().startswith("n=6: no certificate")
        # the loop's starts: uniform, then stretched when c weights the xy plane
        loops = [fixed_point_optimize(tensor, n, start)
                 for start in [None] + [FiducialState.stretched(n)] * stretched]
        expected = loops[0]
        if stretched and loops[1].lam > expected.lam + 1e-12 * tensor.weight:
            expected = loops[1]
        assert result.converged and result.iterations > 1
        assert result.lam == expected.lam
        assert np.array_equal(result.a.a, expected.a.a)

    def test_a_restart_that_beats_the_sector_pair_replaces_it(self, monkeypatch, caplog):
        # a sector pair 0.1 below the optimum: restart 0 reaches the optimum,
        # restarts 1 and 2 only tie with it
        n, tensor = 4, cached_tensor(Objective.xyz_axes(), 3)
        exact = optimizer.optimize_sector

        def lowered(tensor, n):
            pair = exact(tensor, n)
            return dataclasses.replace(pair, lam=pair.lam - 0.1)

        monkeypatch.setattr(optimizer, "optimize_sector", lowered)
        with caplog.at_level(logging.WARNING, logger="framecast.optimizer"):
            result = best_of_restarts(tensor, n, 3, 0)
        [warning] = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert warning.getMessage() == "n=4: restart 0 beats the sector pair"
        stream = np.random.SeedSequence((0, n)).spawn(3)[0]
        first = fixed_point_optimize(tensor, n,
                                     FiducialState.random(n, np.random.default_rng(stream)))
        assert result.lam == first.lam and result.lam > exact(tensor, n).lam - 1e-12
        assert np.array_equal(result.a.a, first.a.a)


class TestScaleInvariance:
    @pytest.mark.parametrize("ratio", [(1.0, 1.0), (2.0, 0.5), (1.0, 0.0)])
    def test_scaled_weights_take_the_same_path(self, monkeypatch, ratio):
        # tolerances in units of c's largest weight: 1e8 once aborted on a
        # rounding-level decrease, and the round counts moved with the scale.
        # Equal and z-only weights have a closed sector: its certified pair
        # wins at every scale, the same state up to a global phase
        plain = optimizer.fixed_point_optimize
        paths = []

        def recorded(*args, **kwargs):
            paths[-1].append(plain(*args, **kwargs))
            return paths[-1][-1]

        monkeypatch.setattr(optimizer, "fixed_point_optimize", recorded)
        n, winners, values, pairs = 4, [], [], []
        sector = ratio[1] in (0.0, ratio[0])
        for scale in (1e-138, 1e-3, 1.0, 1e3, 1e5, 1e8):
            paths.append([])
            tensor = cached_tensor(Objective.weighted(ratio[0] * scale, ratio[1] * scale), n - 1)
            best = best_of_restarts(tensor, n, 3, 0)
            assert best.converged
            winners.append([result is best for result in paths[-1]])
            values.append(best.lam / scale)
            pairs.append((best.a.a, best.b.b))
            if sector:
                assert not any(winners[-1])
                assert np.array_equal(best.a.a, optimize_sector(tensor, n).a.a)
        assert all(winner == winners[0] for winner in winners)
        assert all([r.iterations for r in path] == [r.iterations for r in paths[0]]
                   for path in paths)
        assert values == pytest.approx([values[0]] * len(values), rel=1e-12)
        if sector:
            for pair in pairs:
                for got, want in zip(pair, pairs[2]):
                    overlap = np.vdot(got, want)
                    assert np.max(np.abs(got * overlap / abs(overlap) - want)) < 1e-12


class TestDirectSearch:
    def test_single_level(self):
        result = direct_search_optimize(cached_tensor(Objective.z_axis(), 0), 1, restarts=1)
        assert result.lam == pytest.approx(0.0, abs=1e-12)

    def test_level_two_z_matches_fixed_point(self):
        result = direct_search_optimize(cached_tensor(Objective.z_axis(), 1), 2, restarts=3, seed=1)
        assert result.lam == pytest.approx(ROOT3, abs=1e-6)

    def test_level_two_xyz_satisfies_fixed_point_relation(self):
        result = direct_search_optimize(
            cached_tensor(Objective.xyz_axes(), 1), 2, restarts=3, seed=1
        )
        reference = b_from_a(result.a)
        for j in range(2):
            got = result.b.block(j)
            want = reference.block(j)
            overlap = np.vdot(got, want)
            aligned = got * np.exp(1j * np.angle(overlap))
            assert np.max(np.abs(aligned - want)) < 1e-4

    def test_scale_guard(self):
        with pytest.raises(ValueError):
            direct_search_optimize(cached_tensor(Objective.z_axis(), 4), 5)

    def test_real_coefficients_suffice(self):
        # the uniform-init fixed point stays real; an unrestricted complex
        # search must not beat it by more than numerical slack
        for n in (2, 3):
            tensor = cached_tensor(Objective.xyz_axes(), n - 1)
            real_path = fixed_point_optimize(tensor, n)
            assert np.max(np.abs(real_path.a.a.imag)) < 1e-12
            free = direct_search_optimize(tensor, n, restarts=3, seed=2)
            assert free.lam <= real_path.lam + 1e-6

    def test_matches_fixed_point_through_level_four(self):
        for n, restarts in [(2, 3), (3, 3), (4, 2)]:
            tensor = cached_tensor(Objective.xyz_axes(), n - 1)
            fp = fixed_point_optimize(tensor, n)
            ds = direct_search_optimize(tensor, n, restarts=restarts, seed=5)
            assert ds.lam == pytest.approx(fp.lam, abs=1e-6)


class TestGeneralMomentMatrix:
    """Objectives without rotation symmetry about an axis, end to end."""

    C = np.diag([1.0, 0.3, 0.6])

    def test_matches_direct_search_at_level_two(self):
        for c in (self.C, np.diag([1.0, 0.5, 0.0])):
            tensor = cached_tensor(Objective(c), 1)
            fp = best_of_restarts(tensor, 2, restarts=3, seed=0)
            ds = direct_search_optimize(tensor, 2)
            assert fp.converged
            assert fp.lam == pytest.approx(ds.lam, abs=1e-9)

    def test_lambda_is_invariant_under_rotating_c(self, rng):
        # lambda(c) = lambda(R c R^T): rotating both parties' states absorbs R
        rotations = rotation_matrix_components(*rng.uniform(0.0, 2.0 * math.pi, size=(3, 3)).T)
        for n in (2, 3):
            reference = best_of_restarts(cached_tensor(Objective(self.C), n - 1), n,
                                         restarts=8, seed=0, max_iter=5000)
            for rot in rotations:
                rotated = best_of_restarts(cached_tensor(Objective(rot @ self.C @ rot.T), n - 1),
                                           n, restarts=8, seed=0, max_iter=5000)
                assert rotated.converged
                assert rotated.lam == pytest.approx(reference.lam, abs=1e-9)


class TestSweepAndFit:
    def test_single_row_floor(self):
        rows = sweep(Objective.z_axis(), 1, 1)
        assert len(rows) == 1
        assert rows[0].mse_per_axis == 0.5
        assert rows[0].d == 1

    def test_z_rows_shrink_like_one_over_d(self):
        rows = sweep(Objective.z_axis(), 2, 8)
        scaled = [row.d * row.mse_per_axis for row in rows]
        assert all(b > a for a, b in zip(scaled, scaled[1:]))  # climbing toward the limit
        assert scaled[-1] < 1.446

    def test_fit_recovers_exact_power_law(self):
        rows = [
            SweepRow(n=n, d=n * n, lam=0.0, mse_per_axis=2.0 * (n * n) ** -1.0, converged=True)
            for n in range(2, 9)
        ]
        prefactor, exponent = fit_asymptote(rows, 2)
        assert prefactor == pytest.approx(2.0, abs=1e-12)
        assert exponent == pytest.approx(-1.0, abs=1e-12)

    def test_fit_needs_three_rows(self):
        rows = [
            SweepRow(n=n, d=n * n, lam=0.5, mse_per_axis=0.1, converged=True) for n in (2, 3)
        ]
        with pytest.raises(ValueError):
            fit_asymptote(rows, 2)

    def test_row_dimension_validated(self):
        with pytest.raises(ValueError):
            SweepRow(n=2, d=5, lam=0.0, mse_per_axis=0.1, converged=True)

    def test_sweep_range_validated(self):
        with pytest.raises(ValueError):
            sweep(Objective.z_axis(), 3, 2)
        with pytest.raises(ValueError):
            sweep(Objective.z_axis(), 0, 2)

    def test_unit_weighted_sweep_matches_xyz(self):
        plain = sweep(Objective.xyz_axes(), 2, 4)
        weighted = sweep(Objective.weighted(1.0, 1.0), 2, 4)
        for a, b in zip(plain, weighted):
            assert b.lam == pytest.approx(a.lam, abs=1e-10)
            assert b.mse_per_axis == pytest.approx(a.mse_per_axis, abs=1e-10)
