"""Closed-form Clebsch-Gordan coefficient tensors and their assembly."""

import math

import numpy as np
import pytest
from conftest import entry_expectation, entry_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from framecast import (
    AliceState,
    FiducialState,
    Objective,
    block_slice,
    cached_tensor,
    coefficient_deviation,
    make_grid,
    rotation_entry_tensor,
)
from framecast.coefficients import moment_tensor


def unit_vector(rng, d):
    raw = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return raw / np.linalg.norm(raw)


class TestObjective:
    def test_factories(self):
        assert Objective.z_axis().axis_count == 1
        assert Objective.xy_axes().axis_count == 2
        assert Objective.xyz_axes().axis_count == 3
        assert Objective.weighted(2.0, 0.0).axis_count == 1
        assert Objective.weighted(0.5, 1.5).axis_count == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown objective kind"):
            Objective.from_kind("diag")
        with pytest.raises(ValueError, match="3x3"):
            Objective(np.eye(2))
        with pytest.raises(ValueError, match="symmetric"):
            Objective(np.array([[1.0, 0.5, 0], [0.4, 1.0, 0], [0, 0, 1.0]]))
        with pytest.raises(ValueError, match="non-negative"):
            Objective.weighted(-1.0, 1.0)
        with pytest.raises(ValueError, match="not all zero"):
            Objective.weighted(0.0, 0.0)
        with pytest.raises(ValueError, match="not all zero"):
            Objective(np.zeros((3, 3)))
        for w_z, w_xy in [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)]:
            with pytest.raises(ValueError, match="finite"):
                Objective(np.diag([w_xy, w_xy, w_z]))
            with pytest.raises(ValueError, match="finite"):
                Objective.weighted(w_z, w_xy)

    def test_c_is_a_read_only_copy(self):
        c = np.diag([1.0, 0.3, 0.6])
        objective = Objective(c)
        c[0, 0] = 5.0
        assert objective.c[0, 0] == 1.0
        with pytest.raises(ValueError):
            objective.c[0, 0] = 2.0

    def test_presets_are_moment_matrices(self):
        assert np.array_equal(Objective.z_axis().c, np.diag([0.0, 0.0, 1.0]))
        assert np.array_equal(Objective.xy_axes().c, np.diag([1.0, 1.0, 0.0]))
        assert np.array_equal(Objective.xyz_axes().c, np.eye(3))
        assert np.array_equal(Objective.weighted(2.0, 0.5).c, np.diag([0.5, 0.5, 2.0]))
        assert Objective.from_kind("weighted") == Objective.weighted(1.0, 1.0)
        assert Objective.from_kind("xyz") is Objective.xyz_axes()

    def test_equality_is_on_name_and_c(self):
        assert Objective.weighted(0.3, 1.7) == Objective.weighted(0.3, 1.7)
        assert hash(Objective.weighted(0.3, 1.7)) == hash(Objective.weighted(0.3, 1.7))
        assert Objective.weighted(-0.0, 1.0) == Objective.weighted(0.0, 1.0)
        assert hash(Objective.weighted(-0.0, 1.0)) == hash(Objective.weighted(0.0, 1.0))
        assert Objective.weighted(1.0, 1.0) != Objective.xyz_axes()
        assert Objective(np.eye(3), "xyz") == Objective.xyz_axes()

    def test_support_is_the_projector_onto_the_sent_axes(self):
        assert Objective.xyz_axes().support == Objective.xyz_axes()
        assert Objective.weighted(2.0, 0.0).support == Objective(np.diag([0, 0, 1.0]), "weighted")
        assert Objective.weighted(0.0, 1.5).support == Objective(np.diag([1.0, 1, 0]), "weighted")
        tilted = Objective(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
        assert tilted.axis_count == 1
        assert np.allclose(tilted.support.c, tilted.c / 2, atol=1e-15)

    def test_to_json_refuses_a_lossy_record(self):
        assert Objective.weighted(2.0, 0.5).to_json() == {"kind": "weighted", "w_z": 2.0,
                                                          "w_xy": 0.5}
        assert Objective.z_axis().to_json() == {"kind": "z", "w_z": 1.0, "w_xy": 0.0}
        for c in (np.diag([1.0, 0.3, 0.6]), np.diag([1.0, 0.5, 0.0]),
                  np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 1.0]])):
            with pytest.raises(ValueError, match="cannot record"):
                Objective(c).to_json()

    def test_equal_objectives_share_one_tensor(self):
        cached_tensor.cache_clear()
        first = cached_tensor(Objective.weighted(0.3, 1.7), 7)
        second = cached_tensor(Objective.weighted(0.3, 1.7), 7)
        assert second is first
        assert cached_tensor.cache_info()[:2] == (1, 1)  # one hit, one miss


Z3 = cached_tensor(Objective.z_axis(), 3).entries
XY3 = cached_tensor(Objective.xy_axes(), 3).entries


class TestGElement:
    """Equal-m couplings g_jk(m, r): the z tensor entries (j, k, m, m, r, r)."""

    def test_zero_magnetic_number_kills_diagonal(self):
        z5 = cached_tensor(Objective.z_axis(), 5).entries
        for j in (1, 2, 5):
            for s in range(-j, j + 1):
                assert (j, j, 0, 0, s, s) not in z5
                assert (j, j, s, s, 0, 0) not in z5

    def test_adjacent_block_value(self):
        assert Z3[(1, 0, 0, 0, 0, 0)] == pytest.approx(1.0 / math.sqrt(3), abs=1e-15)
        assert Z3[(0, 1, 0, 0, 0, 0)] == Z3[(1, 0, 0, 0, 0, 0)]

    def test_diagonal_value(self):
        assert Z3[(2, 2, 1, 1, 2, 2)] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_banded(self):
        assert (3, 1, 0, 0, 0, 0) not in Z3
        assert all(abs(j - k) <= 1 for j, k, *_ in Z3)

    def test_vanishing_radicand_edge(self):
        # s = 2 does not fit block 1
        assert (2, 1, 1, 1, 2, 2) not in Z3

    def test_index_validation(self):
        for j, k, m, n, r, s in Z3:
            assert m == n and r == s
            assert max(abs(m), abs(r)) <= min(j, k)
        # within the larger block but outside the smaller: no entry
        assert (2, 1, 2, 2, 0, 0) not in Z3


class TestHElement:
    """Raising couplings h_jk(n, s): the xy tensor entries (j, k, n-1, n, s-1, s)."""

    def test_diagonal_value(self):
        assert XY3[(1, 1, 0, 1, 0, 1)] == pytest.approx(0.5, abs=1e-15)

    def test_zero_factor(self):
        # n = 1 does not fit block 0
        assert (1, 0, 0, 1, 0, 1) not in XY3

    def test_adjacent_value_at_top_magnetic_number(self):
        assert XY3[(1, 2, 1, 2, 1, 2)] == pytest.approx(3.0 / math.sqrt(15), abs=1e-14)

    def test_banded(self):
        assert (3, 1, 0, 1, 0, 1) not in XY3
        assert all(abs(j - k) <= 1 for j, k, *_ in XY3)

    def test_index_validation(self):
        for j, k, m, n, r, s in XY3:
            assert abs(n - m) == 1 and s - r == n - m
            assert max(abs(m), abs(r)) <= j and max(abs(n), abs(s)) <= k


class TestAssembleTensor:
    def test_z_tensor_at_jmax_one_is_exact(self):
        tensor = cached_tensor(Objective.z_axis(), 1)
        root3 = 1.0 / math.sqrt(3)
        expected = {
            (1, 0, 0, 0, 0, 0): root3,
            (0, 1, 0, 0, 0, 0): root3,
            (1, 1, 1, 1, 1, 1): 0.5,
            (1, 1, 1, 1, -1, -1): -0.5,
            (1, 1, -1, -1, 1, 1): -0.5,
            (1, 1, -1, -1, -1, -1): 0.5,
        }
        assert set(tensor.entries) == set(expected)
        for key, val in expected.items():
            assert tensor.entries[key] == pytest.approx(val, abs=1e-15)

    def test_xyz_is_disjoint_union(self):
        z = cached_tensor(Objective.z_axis(), 3)
        xy = cached_tensor(Objective.xy_axes(), 3)
        xyz = cached_tensor(Objective.xyz_axes(), 3)
        assert set(z.entries).isdisjoint(set(xy.entries))
        assert set(xyz.entries) == set(z.entries) | set(xy.entries)
        for key, val in xyz.entries.items():
            assert val == z.entries.get(key, 0.0) + xy.entries.get(key, 0.0)

    def test_symmetry_and_bandedness(self):
        tensor = cached_tensor(Objective.xyz_axes(), 4)
        for (j, k, m, n, r, s), val in tensor.entries.items():
            assert abs(j - k) <= 1
            assert tensor.entries[(k, j, n, m, s, r)] == pytest.approx(val, abs=1e-15)

    def test_weighted_combination(self):
        z = cached_tensor(Objective.z_axis(), 2)
        xy = cached_tensor(Objective.xy_axes(), 2)
        mixed = cached_tensor(Objective.weighted(0.3, 1.7), 2)
        for key, val in mixed.entries.items():
            ref = 0.3 * z.entries.get(key, 0.0) + 1.7 * xy.entries.get(key, 0.0)
            assert val == pytest.approx(ref, abs=1e-15)

    @pytest.mark.parametrize(
        "objective,fn",
        [
            (Objective.z_axis(), lambda a, b, g: np.cos(b)),
            (Objective.xy_axes(), lambda a, b, g: (1.0 + np.cos(b)) * np.cos(a + g)),
            (Objective.xyz_axes(), lambda a, b, g: np.cos(b) + (1.0 + np.cos(b)) * np.cos(a + g)),
            (
                Objective.weighted(0.3, 1.7),
                lambda a, b, g: 0.3 * np.cos(b) + 1.7 * (1.0 + np.cos(b)) * np.cos(a + g),
            ),
        ],
        ids=["z", "xy", "xyz", "weighted"],
    )
    def test_matches_quadrature_oracle_entrywise(self, objective, fn):
        for j_max in (4, 8):
            tensor = cached_tensor(objective, j_max)
            assert coefficient_deviation(tensor, fn, make_grid(j_max)) < 1e-10, j_max

    def test_quadratic_form_bounds(self, rng):
        n = 3
        cases = [(Objective.z_axis(), 1.0), (Objective.xy_axes(), 2.0), (Objective.xyz_axes(), 3.0)]
        for objective, bound in cases:
            tensor = cached_tensor(objective, n - 1)
            for _ in range(20):
                raw = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
                alice = AliceState(n, raw / np.linalg.norm(raw))
                fiducial = FiducialState.random(n, rng)
                val = entry_expectation(tensor, alice.a, fiducial.b)
                assert abs(val) <= bound + 1e-12



class TestOperator:
    """`operator(b)`, the sparse M, against the dense reference summed from `entries`."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10),
           st.sampled_from(["z", "xy", "xyz", "weighted", "rotation-entry"]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_the_dense_contraction(self, n, kind, uniform, seed):
        rng = np.random.default_rng(seed)
        if kind == "rotation-entry":
            # an off-diagonal entry: complex coefficients
            tensor = rotation_entry_tensor(*rng.choice(3, size=2, replace=False), n - 1)
        elif kind == "weighted":
            tensor = cached_tensor(Objective.weighted(*rng.uniform(0.1, 2.0, size=2)), n - 1)
        else:
            tensor = cached_tensor(Objective.from_kind(kind), n - 1)
        b = (FiducialState.uniform(n) if uniform else FiducialState.random(n, rng)).b
        op, dense = tensor.operator(b), entry_matrix(tensor, b)
        x = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
        assert np.max(np.abs(op @ x - dense @ x)) < 1e-14
        assert op.norm_inf == pytest.approx(np.abs(dense).sum(axis=1).max(), rel=1e-14)
        blocks = list(op.blocks())
        assert len(blocks) == n
        # M is block tridiagonal in j: the blocks and their mirrors are all of it
        rebuilt = np.zeros_like(dense)
        for j, (diagonal, upper) in enumerate(blocks):
            right = slice((j + 1) ** 2, min(j + 2, n) ** 2)
            rebuilt[block_slice(j), block_slice(j)] = diagonal
            rebuilt[block_slice(j), right] = upper
            rebuilt[right, block_slice(j)] = upper.conj().T
        assert np.array_equal(rebuilt, rebuilt.conj().T)
        assert np.max(np.abs(rebuilt - dense)) < 1e-14

    @pytest.mark.parametrize("length", [3, 9])
    def test_wrong_vector_length_is_refused(self, length):
        # j_max = 1 needs 4 amplitudes; a longer b once gave a 13-slot operator
        tensor = cached_tensor(Objective.z_axis(), 1)
        good, wrong = FiducialState.uniform(2).b, np.full(length, 1 / 3, dtype=complex)
        with pytest.raises(ValueError, match="4 amplitudes"):
            tensor.operator(wrong)
        with pytest.raises(ValueError, match="4 amplitudes"):
            tensor.expectation(good, wrong)
        with pytest.raises(ValueError, match="4 amplitudes"):
            tensor.expectation(wrong, good)


class TestExchangeSymmetry:
    """<a|M(b)|a> = <b|M(a)|b> for a symmetric moment c.

    Exchanging the sender and fiducial states maps the outcome amplitude at R
    to the conjugate amplitude at R^-1, and R_ab(R^-1) = R_ba(R), so the
    exchange transposes c.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.sampled_from(["z", "xy", "xyz", "weighted", "moment"]),
           st.integers(0, 2**32 - 1))
    def test_sender_and_fiducial_exchange(self, n, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "moment":
            raw = rng.standard_normal((3, 3))
            tensor = moment_tensor(raw + raw.T, n - 1)
        elif kind == "weighted":
            tensor = cached_tensor(Objective.weighted(*rng.uniform(0.1, 2.0, size=2)), n - 1)
        else:
            tensor = cached_tensor(Objective.from_kind(kind), n - 1)
        a, b = unit_vector(rng, n * n), unit_vector(rng, n * n)
        assert abs(tensor.expectation(a, b) - tensor.expectation(b, a)) < 1e-14

    def test_antisymmetric_moment_breaks_the_exchange(self, rng):
        # c = R_xy - R_yx is odd under the exchange, so it flips the sign
        c = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        largest = 0.0
        for n in (2, 3, 4):
            tensor = moment_tensor(c, n - 1)
            for _ in range(20):
                a, b = unit_vector(rng, n * n), unit_vector(rng, n * n)
                forward, exchanged = tensor.expectation(a, b), tensor.expectation(b, a)
                assert abs(forward + exchanged) < 1e-14
                largest = max(largest, abs(forward - exchanged))
        assert largest > 0.1
