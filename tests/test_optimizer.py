"""Fixed-point optimization, direct-search cross-checks, sweeps, and fits."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros

from framecast import (
    AliceState,
    FiducialState,
    Objective,
    SweepRow,
    assemble_tensor,
    b_from_a,
    block_slice,
    build_m,
    cached_tensor,
    direct_search_optimize,
    expected_value,
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
        mat = build_m(assemble_tensor(Objective.z_axis(), 1), FiducialState(2, vec))
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
    def test_degenerate_top_follows_previous(self, rng, fold):
        m, top = self._degenerate_matrix(rng, 3, fold)
        raw = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        previous = raw / np.linalg.norm(raw)
        lam, vec = optimizer._top_eigh(m, previous=previous)
        proj = top @ (top.conj().T @ previous)
        expected = proj / np.linalg.norm(proj)
        pivot = expected[np.argmax(np.abs(expected))]
        expected = expected * np.conj(pivot) / abs(pivot)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(vec - expected)) < 1e-12

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
        # outside a degenerate top eigenspace a previous state changes nothing
        other = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        lam_prev, vec_prev = optimizer._top_eigh(herm, previous=other / np.linalg.norm(other))
        assert lam_prev == lam
        assert np.array_equal(vec_prev, vec)


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
        direct = expected_value(build_m(tensor, result.b), result.a)
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


def _all_dense_fixed_point(tensor, n, init, seed, tol=1e-12, max_iter=2000):
    """Reference loop: a dense top eigenpair every round, stopped by the plain rule."""
    b = FiducialState.uniform(n) if init == "uniform" else FiducialState.random(
        n, np.random.default_rng(seed))
    lam_prev = a_prev = None
    for _ in range(max_iter):
        lam, vec = optimizer._top_eigh(build_m(tensor, b), previous=a_prev)
        done = (lam_prev is not None and abs(lam - lam_prev) < tol
                and np.linalg.norm(vec - a_prev) < math.sqrt(tol))
        a_prev, lam_prev = vec, lam
        b = b_from_a(AliceState(n, vec))
        if done:
            return expected_value(build_m(tensor, b), AliceState(n, a_prev))
    raise AssertionError("the all-dense reference loop did not converge")


class _FixedMatrixTensor:
    """Stand-in tensor whose objective matrix ignores the fiducial state."""

    def __init__(self, n, mat):
        self.j_max = n - 1
        self.mat = mat

    def contract(self, b):
        return self.mat


class TestWarmRounds:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.floats(0.0, 0.5), st.booleans(), st.integers(0, 2**32 - 1))
    def test_ritz_value_between_start_and_top(self, d, spread, real, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((d, d))
        if not real:
            raw = raw + 1j * rng.standard_normal((d, d))
        herm = (raw + raw.conj().T) / 2
        top = np.linalg.eigvalsh(herm)[-1]
        start = np.linalg.eigh(herm)[1][:, -1] + spread * (
            rng.standard_normal(d) + 1j * rng.standard_normal(d))
        start /= np.linalg.norm(start)
        lam, vec = optimizer._ritz_step(herm, start)
        assert lam >= np.vdot(start, herm @ start).real - 1e-12
        assert lam <= top + 1e-12
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert abs(np.vdot(vec, herm @ vec).real - lam) < 1e-10
        pivot = vec[np.argmax(np.abs(vec))]
        assert abs(pivot.imag) < 1e-14 and pivot.real > 0

    def test_certificate_escapes_a_non_top_eigenvector(self, rng, monkeypatch):
        # M is exactly block diagonal, so a Krylov space started at the top
        # eigenvector of the low block never leaves that block
        n = 3
        low = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        high = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        mat = np.zeros((9, 9), dtype=complex)
        mat[:3, :3] = (low + low.conj().T) / 2
        mat[3:, 3:] = (high + high.conj().T) / 2 + 10.0 * np.eye(6)
        w, v = np.linalg.eigh(mat)
        trap = np.zeros(9, dtype=complex)
        w_low, v_low = np.linalg.eigh(mat[:3, :3])
        trap[:3] = v_low[:, -1]
        assert optimizer._ritz_step(mat, trap)[0] == pytest.approx(w_low[-1], abs=1e-12)

        dense = optimizer._top_eigh
        calls = []

        def trapped_first_round(m, previous=None):
            calls.append(previous is None)
            if len(calls) == 1:
                return float(w_low[-1]), trap
            return dense(m, previous)

        monkeypatch.setattr(optimizer, "_top_eigh", trapped_first_round)
        result = fixed_point_optimize(_FixedMatrixTensor(n, mat), n)
        assert result.converged
        assert result.lam == pytest.approx(w[-1], abs=1e-12)
        assert abs(abs(np.vdot(v[:, -1], result.a.a)) - 1.0) < 1e-12
        assert result.lambda_trajectory[0] == pytest.approx(w_low[-1], abs=1e-12)
        # round 1, one rejected certificate, one accepted
        assert calls == [True, False, False]

    @pytest.mark.parametrize("kind", ["z", "xy", "xyz"])
    def test_converged_values_match_the_all_dense_loop(self, kind):
        for n in range(1, 9):
            tensor = cached_tensor(Objective.from_kind(kind), n - 1)
            for init, seed in [("uniform", None), ("random", 0), ("random", 1)]:
                result = fixed_point_optimize(tensor, n, init=init, seed=seed, max_iter=2000)
                assert result.converged
                reference = _all_dense_fixed_point(tensor, n, init, seed)
                assert result.lam == pytest.approx(reference, abs=1e-12)

    def test_two_dense_solves_per_fixed_point(self, monkeypatch):
        dense = optimizer._top_eigh
        log = []

        def counted(m, previous=None):
            lam, vec = dense(m, previous)
            # a certificate is rejected when the dense pair leaves the Ritz pair
            rejected = previous is not None and not optimizer._close(
                lam, vec, *optimizer._ritz_step(m, previous), optimizer.DEFAULT_TOL)
            log.append(rejected)
            return lam, vec

        monkeypatch.setattr(optimizer, "_top_eigh", counted)
        for kind in ("z", "xy", "xyz"):
            for n in range(2, 7):
                tensor = cached_tensor(Objective.from_kind(kind), n - 1)
                for init, seed in [("uniform", None), ("random", 0), ("random", 1)]:
                    log.clear()
                    result = fixed_point_optimize(tensor, n, init=init, seed=seed, max_iter=2000)
                    assert result.converged
                    assert len(log) <= 2 + sum(log)

    def test_single_round_is_one_dense_solve(self, monkeypatch):
        dense = optimizer._top_eigh
        calls = []
        monkeypatch.setattr(optimizer, "_top_eigh",
                            lambda m, previous=None: calls.append(1) or dense(m, previous))
        fixed_point_optimize(cached_tensor(Objective.xyz_axes(), 3), 4, max_iter=1)
        assert len(calls) == 1

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
        assert expected_value(build_m(tensor, result.b), result.a) == pytest.approx(
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
        for n in (2, 3, 5, 10, 20, 30):
            result = optimize_z_single_m(n, 0)
            mse = fidelity_report(result.a, result.b, Objective.z_axis()).mse_per_axis
            scaled.append(n * n * mse)
            assert 0 < limit - scaled[-1] < 1.5 / n, n
        assert all(lo < hi for lo, hi in zip(scaled, scaled[1:]))


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
