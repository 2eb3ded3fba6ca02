"""Rotation representations: polynomials, Wigner elements, angle geometry."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framecast import (
    AngularIndex,
    EulerAngles,
    RotationMatrix,
    angles_from_matrices,
    angles_from_matrix,
    axis_cosines,
    big_d,
    big_d_matrix,
    compose,
    error_angles,
    jacobi_polynomial,
    rotation_matrix,
    rotation_matrix_components,
    small_d,
    small_d_fourier,
    small_d_matrix,
)
from conftest import generator_small_d_matrix


def scalar_angles_reference(r) -> tuple[float, float, float]:
    """Row-at-a-time zyz extraction in plain math, the loop angles_from_matrices replaces."""

    def wrap(x):
        x %= 2.0 * math.pi
        return x if x < 2.0 * math.pi else 0.0

    sb = math.hypot(r[0, 2], r[1, 2])
    if sb < 1e-10:
        if r[2, 2] > 0.0:
            return wrap(math.atan2(r[1, 0], r[0, 0])), 0.0, 0.0
        return wrap(math.atan2(-r[0, 1], -r[0, 0])), math.pi, 0.0
    return (wrap(math.atan2(r[1, 2], r[0, 2])), math.atan2(sb, r[2, 2]),
            wrap(math.atan2(r[2, 1], -r[2, 0])))


def random_angles(rng) -> EulerAngles:
    return EulerAngles(
        rng.uniform(0.0, 2.0 * math.pi),
        math.acos(rng.uniform(-1.0, 1.0)),
        rng.uniform(0.0, 2.0 * math.pi),
    )


class TestJacobiPolynomial:
    def test_degree_zero_is_one(self):
        assert jacobi_polynomial(0, 3, 1, -0.7) == 1.0
        assert np.all(jacobi_polynomial(0, 0, 0, np.linspace(-1, 1, 5)) == 1.0)

    def test_degree_one_legendre_is_x(self):
        for x in [-1.0, -0.25, 0.0, 0.5, 1.0]:
            assert jacobi_polynomial(1, 0, 0, x) == pytest.approx(x, abs=1e-15)

    @pytest.mark.parametrize("k,a,b", [(2, 1, 1), (3, 0, 2), (5, 2, 0), (8, 1, 3)])
    def test_right_endpoint_is_binomial(self, k, a, b):
        assert jacobi_polynomial(k, a, b, 1.0) == pytest.approx(math.comb(k + a, k), rel=1e-14)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            jacobi_polynomial(-1, 0, 0, 0.0)


class TestSmallD:
    def test_trivial_representation(self):
        for beta in np.linspace(0.0, math.pi, 7):
            assert small_d(0, 0, 0, beta) == 1.0

    def test_spin_one_middle_is_cosine(self):
        betas = np.linspace(0.0, math.pi, 9)
        assert small_d(1, 0, 0, betas) == pytest.approx(np.cos(betas), abs=1e-15)

    def test_spin_one_raising_sign(self):
        assert small_d(1, 1, 0, math.pi / 2) == pytest.approx(-1.0 / math.sqrt(2), abs=1e-15)

    def test_identity_at_zero_is_exact(self):
        for j in range(6):
            mat = small_d_matrix(j, 0.0)
            assert np.array_equal(mat, np.eye(2 * j + 1))

    def test_matches_generator_diagonalization(self, rng):
        worst = 0.0
        for j in range(7):
            for beta in rng.uniform(0.0, math.pi, 6):
                ref = generator_small_d_matrix(j, beta)
                worst = max(worst, np.max(np.abs(small_d_matrix(j, beta) - ref)))
        assert worst < 1e-12

    def test_stable_at_large_j(self, rng):
        # factorial-ratio evaluations overflow around j = 15; the recurrence
        # route must stay clean through the working range
        for j in (15, 20, 30, 40):
            beta = rng.uniform(0.0, math.pi)
            mat = small_d_matrix(j, beta)
            assert np.max(np.abs(mat @ mat.T - np.eye(2 * j + 1))) < 1e-12
            assert np.max(np.abs(mat - generator_small_d_matrix(j, beta))) < 1e-12

    def test_fourier_coefficients_rebuild_beyond_pi(self, rng):
        # the error rotation's beta stays in [0, pi], but the coefficients
        # sample small_d on all of [0, 2pi): check the rebuilt polynomial past
        # pi against the J_y oracle, which shares no code with small_d
        for j in range(21):
            coeffs = small_d_fourier(j)
            for beta in rng.uniform(math.pi, 2.0 * math.pi, 3):
                rebuilt = np.einsum("umr,u->mr", coeffs, np.exp(-1j * np.arange(-j, j + 1) * beta))
                assert np.max(np.abs(rebuilt - generator_small_d_matrix(j, beta))) < 1e-12

    def test_index_range_enforced(self):
        with pytest.raises(ValueError):
            small_d(1, 2, 0, 0.3)
        with pytest.raises(ValueError):
            small_d(2, 0, -3, 0.3)

    def test_orthogonality_over_beta(self):
        # integral of d^j_mr d^j'_mr sin(beta) d(beta) = 2 delta_jj' / (2j+1)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        betas = np.arccos(nodes)
        worst = 0.0
        for j in range(6):
            for jp in range(6):
                for m in range(-min(j, jp), min(j, jp) + 1):
                    for r in range(-min(j, jp), min(j, jp) + 1):
                        val = np.sum(weights * small_d(j, m, r, betas) * small_d(jp, m, r, betas))
                        ref = 2.0 / (2 * j + 1) if j == jp else 0.0
                        worst = max(worst, abs(val - ref))
        assert worst < 1e-10


class TestBigD:
    def test_identity_rotation(self):
        ident = EulerAngles(0.0, 0.0, 0.0)
        for j in range(4):
            for m in range(-j, j + 1):
                for r in range(-j, j + 1):
                    assert big_d(j, m, r, ident) == (1.0 if m == r else 0.0)

    def test_pure_z_phase(self):
        assert big_d(1, 1, 1, EulerAngles(math.pi, 0.0, 0.0)) == pytest.approx(-1.0, abs=1e-15)

    def test_phases_cancel_at_zero_magnetic_numbers(self, rng):
        for _ in range(10):
            ang = random_angles(rng)
            assert big_d(1, 0, 0, ang) == pytest.approx(math.cos(ang.beta), abs=1e-14)

    def test_unitarity(self, rng):
        worst = 0.0
        for j in range(7):
            angles = rng.uniform(0.0, 2.0 * math.pi, size=(100, 3))
            mats = big_d_matrix(j, angles[:, 0], angles[:, 1], angles[:, 2])
            prod = np.einsum("tmr,tsr->tms", mats, mats.conj())
            worst = max(worst, float(np.max(np.abs(prod - np.eye(2 * j + 1)))))
        assert worst < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 8), *(st.floats(-20.0, 20.0),) * 3)
    def test_unitarity_at_any_angles(self, j, alpha, beta, gamma):
        mat = big_d_matrix(j, alpha, beta, gamma)
        assert np.max(np.abs(mat @ mat.conj().T - np.eye(2 * j + 1))) < 1e-12

    def test_representation_property(self, rng):
        worst = 0.0
        for _ in range(20):
            x, y = random_angles(rng), random_angles(rng)
            xy = compose(x, y)
            for j in range(5):
                lhs = big_d_matrix(j, xy.alpha, xy.beta, xy.gamma)
                rhs = big_d_matrix(j, x.alpha, x.beta, x.gamma) @ big_d_matrix(
                    j, y.alpha, y.beta, y.gamma
                )
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst < 1e-10


class TestRotationGeometry:
    def test_identity_matrix(self):
        assert np.allclose(rotation_matrix(EulerAngles(0, 0, 0)).r, np.eye(3), atol=1e-15)

    def test_diagonal_identities(self, rng):
        triples = rng.uniform(0.0, 2.0 * math.pi, size=(10_000, 3))
        triples[:, 1] = np.arccos(rng.uniform(-1.0, 1.0, 10_000))
        mats = rotation_matrix_components(triples[:, 0], triples[:, 1], triples[:, 2])
        assert np.max(np.abs(mats[:, 2, 2] - np.cos(triples[:, 1]))) < 1e-12
        predicted = (1.0 + np.cos(triples[:, 1])) * np.cos(triples[:, 0] + triples[:, 2])
        assert np.max(np.abs(mats[:, 0, 0] + mats[:, 1, 1] - predicted)) < 1e-12

    def test_orthogonality_validated(self):
        with pytest.raises(ValueError):
            RotationMatrix(np.eye(3) * 1.1)
        with pytest.raises(ValueError):
            RotationMatrix(np.diag([1.0, 1.0, -1.0]))  # improper

    def test_error_angles_identity_cases(self, rng):
        x = random_angles(rng)
        self_err = error_angles(x, x)
        assert np.allclose(rotation_matrix(self_err).r, np.eye(3), atol=1e-12)
        y = random_angles(rng)
        from_identity = error_angles(EulerAngles(0, 0, 0), y)
        assert from_identity.as_tuple() == pytest.approx(y.as_tuple(), abs=1e-12)

    def test_error_angles_matrix_oracle(self, rng):
        worst = 0.0
        for _ in range(100):
            x, y = random_angles(rng), random_angles(rng)
            relative = rotation_matrix(x).r.T @ rotation_matrix(y).r
            rebuilt = rotation_matrix(error_angles(x, y)).r
            worst = max(worst, float(np.max(np.abs(rebuilt - relative))))
        assert worst < 1e-12

    def test_batched_extraction_matches_scalar_reference(self, rng):
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(200, 3))
        angles[:, 1] = np.arccos(rng.uniform(-1.0, 1.0, 200))
        angles[0] = (0.3, 1e-13, 0.4)  # gimbal lock, beta near 0
        angles[1] = (0.3, math.pi, 0.4)  # gimbal lock, beta = pi
        angles[2] = (-1e-17, 1.0, -1e-17)  # alpha, gamma round up to 2pi
        mats = rotation_matrix_components(*angles.T)
        batched = angles_from_matrices(mats)
        reference = np.array([scalar_angles_reference(r) for r in mats])
        # numpy's arctan2 and hypot may differ from math's in the last bit
        assert np.max(np.abs(batched - reference)) < 4e-15
        assert batched[0, 2] == 0.0 and batched[1, 2] == 0.0
        assert batched[0, 1] == 0.0 and batched[1, 1] == math.pi
        assert batched[2, 0] == 0.0 and batched[2, 2] == 0.0
        for row, mat in zip(batched, mats):
            assert angles_from_matrix(mat).as_tuple() == tuple(row)

    def test_axis_cosines_trivial(self):
        assert axis_cosines(EulerAngles(0, 0, 0)) == (1.0, 1.0, 1.0)
        cx, cy, cz = axis_cosines(EulerAngles(0, math.pi, 0))
        assert cz == pytest.approx(-1.0, abs=1e-15)
        assert cx + cy + cz == pytest.approx(-1.0, abs=1e-12)  # Omega = pi

    def test_trace_identity_against_eigenvalues(self, rng):
        worst = 0.0
        for _ in range(200):
            err = random_angles(rng)
            cx, cy, cz = axis_cosines(err)
            eigvals = np.linalg.eigvals(rotation_matrix(err).r)
            omega = np.max(np.abs(np.angle(eigvals)))
            worst = max(worst, abs(cx + cy + cz - (1.0 + 2.0 * math.cos(omega))))
        assert worst < 1e-12


class TestEulerAngleNormalization:
    def test_negative_beta_identification(self):
        bent = EulerAngles(0.4, -0.9, 5.1)
        assert 0.0 <= bent.beta <= math.pi
        direct = rotation_matrix_components(0.4, -0.9, 5.1)
        assert np.allclose(rotation_matrix(bent).r, direct, atol=1e-12)

    def test_beta_beyond_pi_identification(self):
        bent = EulerAngles(1.0, 4.0, 2.0)
        assert 0.0 <= bent.beta <= math.pi
        direct = rotation_matrix_components(1.0, 4.0, 2.0)
        assert np.allclose(rotation_matrix(bent).r, direct, atol=1e-12)

    def test_alpha_gamma_wrapped(self):
        wrapped = EulerAngles(-0.5, 0.3, 7.0)
        assert 0.0 <= wrapped.alpha < 2.0 * math.pi
        assert 0.0 <= wrapped.gamma < 2.0 * math.pi

    def test_tiny_negative_angles_wrap_to_zero(self):
        # -1e-17 % 2pi rounds up to 2pi itself, outside [0, 2pi)
        wrapped = EulerAngles(-1e-17, 0.3, -1e-17)
        assert wrapped.alpha == 0.0
        assert wrapped.gamma == 0.0

    @settings(max_examples=300, deadline=None)
    @given(*(st.floats(-50.0, 50.0),) * 3)
    @example(-1e-17, 0.3, -1e-17)
    @example(-1e-300, -1e-17, 2.0 * math.pi)
    def test_normalized_ranges_keep_the_rotation(self, alpha, beta, gamma):
        angles = EulerAngles(alpha, beta, gamma)
        assert 0.0 <= angles.alpha < 2.0 * math.pi
        assert 0.0 <= angles.beta <= math.pi
        assert 0.0 <= angles.gamma < 2.0 * math.pi
        direct = rotation_matrix_components(alpha, beta, gamma)
        assert np.max(np.abs(rotation_matrix(angles).r - direct)) < 1e-12

    def test_gimbal_lock_convention(self):
        near_zero = angles_from_matrix(rotation_matrix_components(0.3, 1e-13, 0.4))
        assert near_zero.gamma == 0.0
        assert near_zero.alpha == pytest.approx(0.7, abs=1e-10)
        near_pi = angles_from_matrix(rotation_matrix_components(0.3, math.pi, 0.4))
        assert near_pi.gamma == 0.0
        assert near_pi.beta == pytest.approx(math.pi, abs=1e-12)

    def test_angular_index_validation(self):
        AngularIndex(2, -2)
        with pytest.raises(ValueError):
            AngularIndex(1, 2)
        with pytest.raises(ValueError):
            AngularIndex(-1, 0)
