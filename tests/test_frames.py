"""Weighted direction sets, moment-matrix reduction, weighted expectations."""

import math

import numpy as np
import pytest
from conftest import entry_expectation

from framecast import (
    FiducialState,
    GramLikeMatrix,
    Objective,
    WeightedVectorSet,
    big_d_matrix,
    build_c,
    cached_tensor,
    coefficient_deviation,
    fixed_point_optimize,
    make_grid,
    reduce_to_axes,
    rotation_entry_tensor,
    rotation_matrix_components,
    total_dim,
    weighted_objective_expectation,
)


def optimal_pair(n, objective=Objective.xyz_axes()):
    result = fixed_point_optimize(cached_tensor(objective, n - 1), n)
    return result.a, result.b


class TestWeightedVectorSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedVectorSet(np.array([[0.0, 0.0, 2.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            WeightedVectorSet(np.array([[0.0, 0.0, 1.0]]), np.array([-1.0]))
        with pytest.raises(ValueError):
            WeightedVectorSet(np.empty((0, 3)), np.empty(0))

    def test_json_round_trip(self):
        ws = WeightedVectorSet(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), np.array([1.0, 2.0]))
        clone = WeightedVectorSet.from_json(ws.to_json())
        assert np.allclose(clone.vectors, ws.vectors)
        assert np.allclose(clone.weights, ws.weights)


class TestBuildC:
    def test_single_z_vector(self):
        gram = build_c(WeightedVectorSet(np.array([[0.0, 0.0, 1.0]]), np.array([1.0])))
        assert np.allclose(gram.c, np.diag([0.0, 0.0, 1.0]), atol=1e-15)

    def test_three_unit_axes_give_identity(self):
        gram = build_c(WeightedVectorSet(np.eye(3), np.ones(3)))
        assert np.allclose(gram.c, np.eye(3), atol=1e-15)

    def test_two_tilted_vectors(self):
        r = 1.0 / math.sqrt(2)
        ws = WeightedVectorSet(
            np.array([[r, 0.0, r], [-r, 0.0, r]]), np.array([1.0, 2.0])
        )
        gram = build_c(ws)
        hand = 1.0 * np.outer(ws.vectors[0], ws.vectors[0]) + 2.0 * np.outer(
            ws.vectors[1], ws.vectors[1]
        )
        assert np.allclose(gram.c, hand, atol=1e-15)
        assert np.trace(gram.c) == pytest.approx(3.0, abs=1e-14)


class TestReduceToAxes:
    def test_identity_canonicalizes_to_standard_basis(self):
        axes, weights = reduce_to_axes(GramLikeMatrix(np.eye(3)))
        assert np.allclose(axes, np.eye(3), atol=1e-14)
        assert np.allclose(weights, np.ones(3), atol=1e-14)

    def test_diagonal_descending(self):
        axes, weights = reduce_to_axes(GramLikeMatrix(np.diag([3.0, 2.0, 1.0])))
        assert np.allclose(weights, [3.0, 2.0, 1.0])
        assert np.allclose(axes, np.eye(3), atol=1e-14)

    def test_reconstruction_of_random_psd(self, rng):
        for _ in range(20):
            raw = rng.standard_normal((3, 3))
            gram = GramLikeMatrix(raw @ raw.T)
            axes, weights = reduce_to_axes(gram)
            rebuilt = sum(w * np.outer(ax, ax) for w, ax in zip(weights, axes))
            assert np.max(np.abs(rebuilt - gram.c)) < 1e-12
            assert weights.sum() == pytest.approx(np.trace(gram.c), abs=1e-12)

    def test_gram_validation(self):
        with pytest.raises(ValueError):
            GramLikeMatrix(np.array([[1.0, 0.5, 0], [0.4, 1.0, 0], [0, 0, 1.0]]))
        with pytest.raises(ValueError):
            GramLikeMatrix(-np.eye(3))


class TestWeightedExpectation:
    def test_z_selector_matches_z_objective(self):
        alice, b = optimal_pair(2, Objective.z_axis())
        z_val = entry_expectation(cached_tensor(Objective.z_axis(), 1), alice.a, b.b)
        got = weighted_objective_expectation(alice, b, GramLikeMatrix(np.diag([0, 0, 1.0])))
        assert got == pytest.approx(z_val, abs=1e-12)

    def test_identity_matches_sum(self):
        alice, b = optimal_pair(3)
        z_val = entry_expectation(cached_tensor(Objective.z_axis(), 2), alice.a, b.b)
        xy_val = entry_expectation(cached_tensor(Objective.xy_axes(), 2), alice.a, b.b)
        got = weighted_objective_expectation(alice, b, GramLikeMatrix(np.eye(3)))
        assert got == pytest.approx(z_val + xy_val, abs=1e-12)

    def test_rank_one_scaling(self):
        alice, b = optimal_pair(2, Objective.z_axis())
        z_val = entry_expectation(cached_tensor(Objective.z_axis(), 1), alice.a, b.b)
        got = weighted_objective_expectation(alice, b, GramLikeMatrix(np.diag([0, 0, 2.5])))
        assert got == pytest.approx(2.5 * z_val, abs=1e-12)

    def test_off_diagonal_against_end_to_end_quadrature(self, rng):
        n = 2
        raw = rng.standard_normal(total_dim(n)) + 1j * rng.standard_normal(total_dim(n))
        alice_vec = raw / np.linalg.norm(raw)
        from framecast import AliceState

        alice = AliceState(n, alice_vec)
        b = FiducialState.random(n, rng)
        c = np.array([[0.6, 0.3, -0.1], [0.3, 0.9, 0.2], [-0.1, 0.2, 1.4]])
        gram = GramLikeMatrix(c)
        got = weighted_objective_expectation(alice, b, gram)

        grid = make_grid(n - 1)
        amp = np.zeros(grid.node_count, dtype=complex)
        for j in range(n):
            dmat = big_d_matrix(j, grid.alphas, grid.betas, grid.gammas)
            amp += math.sqrt(2 * j + 1) * np.einsum(
                "m,tmr,r->t", alice.block(j).conj(), dmat, b.block(j)
            )
        rmats = rotation_matrix_components(grid.alphas, grid.betas, grid.gammas)
        fvals = np.einsum("tmn,mn->t", rmats, c)
        reference = np.sum(grid.weights * np.abs(amp) ** 2 * fvals)
        assert got == pytest.approx(float(reference), abs=1e-10)


class TestRotationEntryTensor:
    def test_every_entry_matches_quadrature_oracle(self):
        j_max = 5
        grid = make_grid(j_max)
        for row in range(3):
            for col in range(3):

                def entry_fn(alphas, betas, gammas, row=row, col=col):
                    return rotation_matrix_components(alphas, betas, gammas)[..., row, col]

                tensor = rotation_entry_tensor(row, col, j_max)
                assert coefficient_deviation(tensor, entry_fn, grid) < 1e-10, (row, col)

    def test_zz_entry_matches_closed_form_family(self):
        numeric = rotation_entry_tensor(2, 2, 2)
        closed = cached_tensor(Objective.z_axis(), 2)
        keys = set(numeric.entries) | set(closed.entries)
        for key in keys:
            assert numeric.entries.get(key, 0.0) == pytest.approx(
                closed.entries.get(key, 0.0), abs=1e-12
            )

    def test_hermitian_index_symmetry(self):
        tensor = rotation_entry_tensor(0, 1, 2)
        for (j, k, m, n, r, s), val in tensor.entries.items():
            partner = tensor.entries[(k, j, n, m, s, r)]
            assert partner == pytest.approx(np.conj(val), abs=1e-13)

    def test_entry_bounds_validated(self):
        with pytest.raises(ValueError):
            rotation_entry_tensor(3, 0, 1)
