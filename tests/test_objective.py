"""States, the induced Hermitian form, and fidelity reports."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import entry_expectation, entry_matrix

from framecast import (
    AliceState,
    FiducialState,
    Objective,
    assemble_tensor,
    big_d_matrix,
    block_slice,
    fidelity_report,
    fixed_point_optimize,
    flat_index,
    make_grid,
    rotation_entry_tensor,
    total_dim,
)


def random_alice(n, rng):
    raw = rng.standard_normal(total_dim(n)) + 1j * rng.standard_normal(total_dim(n))
    return AliceState(n, raw / np.linalg.norm(raw))


class TestStates:
    def test_alice_normalization_enforced(self):
        with pytest.raises(ValueError):
            AliceState(2, np.ones(4))
        with pytest.raises(ValueError):
            AliceState(2, np.zeros(3))
        with pytest.raises(ValueError):
            AliceState(0, np.ones(0))
        with pytest.raises(ValueError, match="unit total norm"):
            AliceState(2, [math.nan, 0.0, 0.0, 0.0])

    def test_fiducial_per_block_normalization_enforced(self):
        vec = np.zeros(4, dtype=complex)
        vec[0] = 1.0
        vec[flat_index(1, 0)] = 0.5  # block 1 norm 0.5, invalid
        with pytest.raises(ValueError):
            FiducialState(2, vec)
        vec[flat_index(1, 0)] = math.nan
        with pytest.raises(ValueError, match="j=1 is not unit-normalized"):
            FiducialState(2, vec)

    def test_uniform_fiducial(self):
        b = FiducialState.uniform(3)
        for j in range(3):
            block = b.block(j)
            assert np.allclose(block, 1.0 / math.sqrt(2 * j + 1))

    def test_json_round_trip(self, rng):
        alice = random_alice(3, rng)
        clone = AliceState.from_json(alice.to_json())
        assert np.allclose(clone.a, alice.a, atol=0)
        fiducial = FiducialState.random(3, rng)
        clone_b = FiducialState.from_json(fiducial.to_json())
        assert np.allclose(clone_b.b, fiducial.b, atol=0)


def operator_matrix(tensor, b):
    """M = tensor.operator(b) as a dense array: each slot's value at its (row, col)."""
    op = tensor.operator(b)
    mat = np.zeros((b.size, b.size), dtype=complex)
    mat[op.plan.slot_rows, op.plan.slot_cols] = op.values
    return mat


FACTORED_CASES = {
    "z": lambda j_max: assemble_tensor(Objective.z_axis(), j_max),
    "xy": lambda j_max: assemble_tensor(Objective.xy_axes(), j_max),
    "xyz": lambda j_max: assemble_tensor(Objective.xyz_axes(), j_max),
    "weighted": lambda j_max: assemble_tensor(Objective.weighted(0.3, 1.7), j_max),
    **{f"R{row}{col}": (lambda j_max, row=row, col=col: rotation_entry_tensor(row, col, j_max))
       for row in range(3) for col in range(3)},
}


class TestBuildM:
    """The objective matrix M = operator(b) against the entries oracle and group quadrature."""

    @pytest.mark.parametrize("name", list(FACTORED_CASES))
    def test_factored_form_matches_expanded_entries(self, name, rng):
        for n in (1, 2, 3, 7, 12):
            tensor = FACTORED_CASES[name](n - 1)
            b = FiducialState.random(n, rng).b
            mat = operator_matrix(tensor, b)
            assert np.array_equal(mat, mat.conj().T)
            assert np.max(np.abs(mat - entry_matrix(tensor, b))) < 1e-14, n

    @pytest.mark.parametrize("name", list(FACTORED_CASES))
    def test_expectation_matches_the_dense_form(self, name, rng):
        for n in (1, 2, 3, 7, 12):
            tensor = FACTORED_CASES[name](n - 1)
            a, b = random_alice(n, rng).a, FiducialState.random(n, rng).b
            assert abs(tensor.expectation(a, b) - entry_expectation(tensor, a, b)) < 1e-14, n

    def test_large_level_never_expands_entries(self):
        tensor = assemble_tensor(Objective.xyz_axes(), 49)
        op = tensor.operator(FiducialState.uniform(50).b)
        assert op.values.shape == op.plan.slot_rows.shape and op.values.size < 9 * 2500
        assert "entries" not in tensor.__dict__

    def test_hand_assembled_z_block(self):
        # fiducial concentrated at b_00 = 1 and b_10 = 1: the only couplings
        # left are the adjacent-block ones in the m = 0 sector
        vec = np.zeros(4, dtype=complex)
        vec[flat_index(0, 0)] = 1.0
        vec[flat_index(1, 0)] = 1.0
        mat = operator_matrix(assemble_tensor(Objective.z_axis(), 1), FiducialState(2, vec).b)
        expected = np.zeros((4, 4))
        expected[flat_index(0, 0), flat_index(1, 0)] = 1.0 / math.sqrt(3)
        expected[flat_index(1, 0), flat_index(0, 0)] = 1.0 / math.sqrt(3)
        assert np.allclose(mat, expected, atol=1e-15)

    def test_hermitian_for_random_complex_fiducial(self, rng):
        for objective in (Objective.z_axis(), Objective.xy_axes(), Objective.xyz_axes()):
            tensor = assemble_tensor(objective, 3)
            mat = operator_matrix(tensor, FiducialState.random(4, rng).b)
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12

    def test_z_block_diagonality(self, rng):
        n = 4
        tensor = assemble_tensor(Objective.z_axis(), n - 1)
        mat = operator_matrix(tensor, FiducialState.random(n, rng).b)
        for j in range(n):
            for m in range(-j, j + 1):
                for k in range(n):
                    for nn in range(-k, k + 1):
                        if m != nn:
                            assert abs(mat[flat_index(j, m), flat_index(k, nn)]) < 1e-15

    def test_matches_quadrature_built_matrix(self, rng):
        n = 2
        b = FiducialState.uniform(n)
        tensor = assemble_tensor(Objective.xyz_axes(), n - 1)
        mat = operator_matrix(tensor, b.b)
        grid = make_grid(n - 1)
        fvals = np.cos(grid.betas) + (1.0 + np.cos(grid.betas)) * np.cos(grid.alphas + grid.gammas)
        rotated = {}
        for j in range(n):
            dmat = big_d_matrix(j, grid.alphas, grid.betas, grid.gammas)
            rotated[j] = np.einsum("tmr,r->tm", dmat, b.block(j))
        ref = np.zeros_like(mat)
        for j in range(n):
            for k in range(n):
                scale = math.sqrt((2 * j + 1) * (2 * k + 1))
                blk = scale * np.einsum(
                    "t,tm,tn->mn", grid.weights * fvals, rotated[j], rotated[k].conj()
                )
                ref[block_slice(j), block_slice(k)] = blk
        assert np.max(np.abs(mat - ref)) < 1e-10


class TestExpectedValue:
    """<a|M|a> from `expectation`, against the entries oracle and group quadrature."""

    def test_single_level_is_zero(self, rng):
        for objective in (Objective.z_axis(), Objective.xy_axes(), Objective.xyz_axes()):
            assert assemble_tensor(objective, 0).expectation(np.ones(1), np.ones(1)) == 0.0

    def test_rayleigh_quotient_at_top_eigenvector(self, rng):
        n = 3
        tensor = assemble_tensor(Objective.xyz_axes(), n - 1)
        b = FiducialState.random(n, rng).b
        evals, evecs = np.linalg.eigh(entry_matrix(tensor, b))
        assert tensor.expectation(evecs[:, -1], b) == pytest.approx(evals[-1], abs=1e-12)

    def test_against_end_to_end_quadrature(self, rng):
        n = 2
        alice = random_alice(n, rng)
        b = FiducialState.random(n, rng)
        tensor = assemble_tensor(Objective.xyz_axes(), n - 1)
        analytic = tensor.expectation(alice.a, b.b)
        grid = make_grid(n - 1)
        amp = np.zeros(grid.node_count, dtype=complex)
        for j in range(n):
            dmat = big_d_matrix(j, grid.alphas, grid.betas, grid.gammas)
            amp += math.sqrt(2 * j + 1) * np.einsum(
                "m,tmr,r->t", alice.block(j).conj(), dmat, b.block(j)
            )
        fvals = np.cos(grid.betas) + (1.0 + np.cos(grid.betas)) * np.cos(grid.alphas + grid.gammas)
        numeric = np.sum(grid.weights * np.abs(amp) ** 2 * fvals)
        assert analytic == pytest.approx(numeric, abs=1e-10)


class TestFidelityReport:
    def test_single_level_floor(self):
        alice = AliceState(1, [1.0])
        b = FiducialState(1, [1.0])
        for objective in (
            Objective.z_axis(),
            Objective.xy_axes(),
            Objective.xyz_axes(),
            Objective.weighted(0.5, 2.0),
        ):
            report = fidelity_report(alice, b, objective)
            assert report.mse_per_axis == 0.5
            assert report.lam == 0.0

    def test_optimal_z_level_two(self):
        result = fixed_point_optimize(assemble_tensor(Objective.z_axis(), 1), 2)
        report = fidelity_report(result.a, result.b, Objective.z_axis())
        assert report.mse_per_axis == pytest.approx((1 - 1 / math.sqrt(3)) / 2, abs=1e-9)
        assert report.lam == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    def test_sum_decomposition(self, rng):
        n = 3
        alice = random_alice(n, rng)
        b = FiducialState.random(n, rng)
        report = fidelity_report(alice, b, Objective.xyz_axes())
        assert report.expect_cos_sum == pytest.approx(
            report.expect_cos_z + report.expect_cos_xy, abs=1e-12
        )
        assert report.lam == pytest.approx(report.expect_cos_sum, abs=1e-12)
        z_only = fidelity_report(alice, b, Objective.z_axis())
        assert z_only.lam == pytest.approx(report.expect_cos_z, abs=1e-12)
        assert z_only.mse_per_axis == pytest.approx((1 - report.expect_cos_z) / 2, abs=1e-12)

    def test_large_level_builds_no_matrix(self, rng):
        # at n = 50 a complex d x d matrix is 100 MB; the report needs none
        alice, b = random_alice(50, rng), FiducialState.random(50, rng)
        tracemalloc.start()
        try:
            report = fidelity_report(alice, b, Objective.xyz_axes())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert abs(report.expect_cos_z) <= 1.0 and abs(report.expect_cos_xy) <= 2.0
        assert report.lam == pytest.approx(report.expect_cos_sum, abs=1e-12)

    def test_report_json_fields(self, rng):
        report = fidelity_report(random_alice(2, rng), FiducialState.uniform(2))
        doc = report.to_json()
        assert set(doc) == {
            "expect_cos_z", "expect_cos_xy", "expect_cos_sum", "mse_per_axis", "lambda",
        }

    def test_expectations_bounded_by_axis_count(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            alice = random_alice(n, rng)
            b = FiducialState.random(n, rng)
            for objective in (Objective.z_axis(), Objective.xy_axes(), Objective.xyz_axes()):
                report = fidelity_report(alice, b, objective)
                assert abs(report.expect_cos_z) <= 1.0 + 1e-12
                assert abs(report.expect_cos_xy) <= 2.0 + 1e-12
                assert abs(report.expect_cos_sum) <= 3.0 + 1e-12
                assert -1e-12 <= report.mse_per_axis <= 1.0 + 1e-12
