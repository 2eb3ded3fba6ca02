"""Fixed-point optimization, direct-search cross-checks, sweeps, and fits."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import entry_expectation, entry_matrix
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh as lapack_eigh
from scipy.special import jn_zeros

from framecast import (
    AliceState,
    FiducialState,
    Objective,
    SweepRow,
    assemble_tensor,
    b_from_a,
    block_slice,
    cached_tensor,
    direct_search_optimize,
    fidelity_report,
    fit_asymptote,
    fixed_point_optimize,
    flat_index,
    optimize_z_single_m,
    sweep,
    total_dim,
    z_sector_matrix,
)
from framecast import optimizer

ROOT3 = 1.0 / math.sqrt(3)


class TestTopEigenpair:
    def test_one_by_one(self):
        lam, vec = optimizer._top_eigh(np.array([[0.25]]))
        assert lam == 0.25
        assert vec[0] == 1.0

    def test_level_two_z_matrix(self):
        vec = np.zeros(4, dtype=complex)
        vec[flat_index(0, 0)] = 1.0
        vec[flat_index(1, 0)] = 1.0
        mat = entry_matrix(assemble_tensor(Objective.z_axis(), 1), FiducialState(2, vec).b)
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
            lam, vec, second = optimizer._ritz_step(op, top + scale * noise)
        residual = np.linalg.norm(mat @ vec - lam * vec)
        g = 2 * residual / math.sqrt(tol)
        result = optimizer._certified(op, lam, vec, second, tol)
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

    def test_rejects_a_degenerate_top(self, rng):
        mat = _block_tridiagonal(rng, 4, 0.0, "complex", 0.0)
        op = _DenseOperator(mat)
        lam, vec, second = optimizer._ritz_step(op, rng.standard_normal(16) + 0j)
        assert optimizer._certified(op, lam, vec, second, 1e-12) is None

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


class TestBFromA:
    def test_concentrated_state_flags_empty_blocks(self):
        vec = np.zeros(4, dtype=complex)
        vec[flat_index(1, 1)] = 1.0
        b = b_from_a(AliceState(2, vec))
        assert b.b[flat_index(1, 1)] == 1.0
        assert b.uniform_filled_blocks == (0,)
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
        assert b.uniform_filled_blocks == filled
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
            result = fixed_point_optimize(tensor, n, init="random", seed=seed, max_iter=500)
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
        with pytest.raises(ValueError):
            fixed_point_optimize(tensor, 2, init="banana")
        with pytest.raises(ValueError, match="j_max=1 does not match state n=3"):
            fixed_point_optimize(tensor, 3)


def _all_dense_fixed_point(tensor, n, init, seed, tol=1e-12, max_iter=2000):
    """Reference loop: a dense top eigenpair every round, stopped by the plain rule."""
    b = FiducialState.uniform(n) if init == "uniform" else FiducialState.random(
        n, np.random.default_rng(seed))
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
    """`optimize --n n --restarts 0`'s JSON and tracemalloc peak.

    Cholesky and any eigh or eigvalsh of more than 2n - 1 rows, the largest
    Schur block, raise meanwhile.
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
        assert main(["optimize", "--n", str(n), "--restarts", "0"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return json.loads(capsys.readouterr().out), peak


class _FixedMatrixTensor:
    """Stand-in tensor whose objective matrix ignores the fiducial state."""

    def __init__(self, n, mat):
        self.j_max = n - 1
        self.mat = mat

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
        lam, vec, second = optimizer._ritz_step(herm, start)
        assert lam >= np.vdot(start, herm @ start).real - 1e-12
        assert lam <= top + 1e-12
        # Cauchy interlacing: the second Ritz value never exceeds lambda_2
        assert second <= (spectrum[-2] if d > 1 else -math.inf) + 1e-12
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert abs(np.vdot(vec, herm @ vec).real - lam) < 1e-10
        pivot = vec[np.argmax(np.abs(vec))]
        assert abs(pivot.imag) < 1e-14 and pivot.real > 0

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
        assert optimizer._certified(op, w_low[-1], trap, -math.inf, 1e-12) is None

        ritz_step = optimizer._ritz_step
        steps = []

        def trapped_first_round(m, start, krylov_dim=optimizer.KRYLOV_DIM):
            steps.append(krylov_dim)
            if len(steps) == 1:
                return float(w_low[-1]), trap, -math.inf
            return ritz_step(m, start, krylov_dim)

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
        assert steps[0] == optimizer.WIDE_KRYLOV_DIM

    @pytest.mark.parametrize("kind", ["z", "xy", "xyz"])
    def test_converged_values_match_the_all_dense_loop(self, kind):
        for n in range(1, 9):
            tensor = cached_tensor(Objective.from_kind(kind), n - 1)
            for init, seed in [("uniform", None), ("random", 0), ("random", 1)]:
                result = fixed_point_optimize(tensor, n, init=init, seed=seed, max_iter=2000)
                assert result.converged
                reference = _all_dense_fixed_point(tensor, n, init, seed)
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
                for init, seed in [("uniform", None), *(("random", s) for s in streams)]:
                    accepted.clear()
                    result = fixed_point_optimize(tensor, n, init=init, seed=seed, max_iter=2000)
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
        assert doc["lambda"] == pytest.approx(2.94706102195, abs=1e-11)
        assert peak < 32e6

    @pytest.mark.slow
    def test_level_one_hundred(self, capsys, monkeypatch):
        doc, peak = _optimize_without_dense_algebra(capsys, monkeypatch, 100)
        assert doc["converged"]
        assert doc["lambda"] == pytest.approx(2.97033681481, abs=1e-11)
        assert peak < 64e6

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
                b = FiducialState.uniform(n) if seed is None else FiducialState.random(
                    n, np.random.default_rng(seed))
                top = np.linalg.eigvalsh(entry_matrix(tensor, b.b))[-1]
                first = fixed_point_optimize(tensor, n, init=b, max_iter=1).lambda_trajectory[0]
                assert first <= top + 1e-12, (n, seed)
                if n <= 6:
                    assert first == pytest.approx(top, abs=1e-12), (n, seed)

    @pytest.mark.slow
    def test_sweep_matches_the_benchmark_reference(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "sweep_xyz.json"
        reference = json.loads(path.read_text())["lambda"]
        for row in sweep(Objective.xyz_axes(), 15, 20, restarts=3, seed=0):
            assert row.converged
            assert row.lam == pytest.approx(reference[str(row.n)], abs=1e-9)


class TestSingleM:
    def test_level_two(self):
        assert optimize_z_single_m(2, 0).lam == pytest.approx(ROOT3, abs=1e-14)

    def test_level_three_matches_dense_sector(self):
        sector = z_sector_matrix(3, 0)
        expected = np.array([
            [0.0, ROOT3, 0.0],
            [ROOT3, 0.0, 2.0 / math.sqrt(15)],
            [0.0, 2.0 / math.sqrt(15), 0.0],
        ])
        assert np.allclose(sector, expected, atol=1e-15)
        assert optimize_z_single_m(3, 0).lam == pytest.approx(
            np.linalg.eigvalsh(expected)[-1], abs=1e-14
        )

    def test_m_zero_dominates_and_matches_full_optimum(self):
        for n in range(2, 7):
            sector_values = {m: optimize_z_single_m(n, m).lam for m in range(-(n - 1), n)}
            best_m = max(sector_values, key=sector_values.get)
            assert best_m == 0
            full = fixed_point_optimize(cached_tensor(Objective.z_axis(), n - 1), n)
            assert sector_values[0] == pytest.approx(full.lam, abs=1e-9)

    def test_embedded_states_consistent(self):
        result = optimize_z_single_m(4, 1)
        tensor = cached_tensor(Objective.z_axis(), 3)
        assert entry_expectation(tensor, result.a.a, result.b.b) == pytest.approx(
            result.lam, abs=1e-12
        )

    def test_m_range_validated(self):
        with pytest.raises(ValueError):
            optimize_z_single_m(2, 2)

    def test_scaled_error_approaches_bessel_zero_from_below(self):
        # independent oracle: the m = 0 sector is a discretized Bessel problem,
        # so d * mse_z rises toward j_{0,1}^2 / 4 with a gap that shrinks like 1/n
        limit = jn_zeros(0, 1)[0] ** 2 / 4
        scaled = []
        for n in (2, 3, 5, 10, 20, 30, 60, 100):
            result = optimize_z_single_m(n, 0)
            mse = fidelity_report(result.a, result.b, Objective.z_axis()).mse_per_axis
            scaled.append(n * n * mse)
            assert 0 < limit - scaled[-1] < 1.5 / n, n
        assert all(lo < hi for lo, hi in zip(scaled, scaled[1:]))

    def test_level_sixty_reads_the_sector_alone(self):
        # the sector has n - |m| rows; a complex d x d matrix at n = 60 is 207 MB
        tracemalloc.start()
        try:
            result = optimize_z_single_m(60, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert result.lam == pytest.approx(0.999210123227436, abs=1e-12)


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
