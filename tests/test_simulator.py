"""POVM completeness and Monte Carlo outcome simulation."""

import json
import logging
import math
import time
import tracemalloc

import numpy as np
import pytest

from framecast import (
    AliceState,
    FiducialState,
    Objective,
    angles_from_matrices,
    b_from_a,
    best_of_restarts,
    big_d_matrix,
    block_slice,
    cached_tensor,
    error_angles,
    fidelity_report,
    fixed_point_optimize,
    flat_index,
    integrate,
    make_grid,
    monte_carlo_error,
    outcome_density,
    povm_defect,
    rotation_matrix_components,
    total_dim,
)
from framecast import quadrature, simulator
from framecast.optimizer import DEFAULT_RESTARTS
from framecast.quadrature import resolution_defect
from framecast.simulator import (
    _amplitude_polynomial,
    _autocorrelation,
    _beta_marginal,
    _cdf_terms,
    _invert_cdf,
    _outcome_amplitudes,
    _sample_chunk,
    _sample_errors,
    _support_layout,
    _trig_cdf,
)

ROOT3 = 1.0 / math.sqrt(3)


def optimal_pair(n, objective):
    result = fixed_point_optimize(cached_tensor(objective, n - 1), n)
    assert result.converged
    return result.a, result.b


class TestPovmDefect:
    def test_trivial_level(self):
        assert povm_defect(FiducialState(1, [1.0]), make_grid(0)) < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_valid_fiducials_resolve_identity(self, n, rng):
        grid = make_grid(n - 1)
        assert povm_defect(FiducialState.uniform(n), grid) < 1e-10
        for _ in range(3):
            assert povm_defect(FiducialState.random(n, rng), grid) < 1e-10

    def test_denormalized_block_shows_in_defect(self):
        # half-amplitude block: its diagonal of the resolution drops to 0.25
        n = 2
        vec = np.zeros(total_dim(n), dtype=complex)
        vec[0] = 1.0
        vec[block_slice(1)] = np.array([0.0, 0.5, 0.0])
        defect = resolution_defect(vec, n, make_grid(n - 1))
        assert defect == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_flat_node_sum(self, n, rng):
        # oracle: rotate the weighted fiducial by big_d_matrix at every grid
        # node and sum the projectors with the grid weights
        grid = make_grid(n - 1)
        raw = rng.standard_normal(total_dim(n)) + 1j * rng.standard_normal(total_dim(n))
        for vec in (FiducialState.random(n, rng).b, raw):
            rotated = np.empty((grid.node_count, total_dim(n)), dtype=complex)
            for j in range(n):
                dmats = big_d_matrix(j, grid.alphas, grid.betas, grid.gammas)
                rotated[:, block_slice(j)] = math.sqrt(2 * j + 1) * (dmats @ vec[block_slice(j)])
            identity_est = (rotated * grid.weights[:, None]).T @ rotated.conj()
            flat = np.max(np.abs(identity_est - np.eye(total_dim(n))))
            assert resolution_defect(vec, n, grid) == pytest.approx(flat, abs=1e-13)

    def test_dropped_lag_carries_its_bound(self, monkeypatch):
        # with every lag of f = 1 dropped the estimate is zero, and block (1, 1)
        # of the uniform n = 2 fiducial reads its missing identity 1 plus the
        # bound sqrt(3 * 3) * mass 1 times |b_1|_1^2 = 3
        monkeypatch.setattr(quadrature, "ROUNDING_ULPS", 1e20)
        assert povm_defect(FiducialState.uniform(2), make_grid(1)) == pytest.approx(10.0, abs=1e-12)

    def test_large_level_builds_no_block_sized_array(self, rng):
        # the coefficients of f = 1 for all 81 block pairs at once would hold
        # 81 x 17^4 complex values (108 MB)
        grid = make_grid(8)
        fiducial = FiducialState.random(9, rng)
        tracemalloc.start()
        try:
            defect = povm_defect(fiducial, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert defect < 1e-10
        assert peak < 20e6

    def test_grid_exactness_guard(self):
        with pytest.raises(ValueError):
            povm_defect(FiducialState.uniform(4), make_grid(1))


class TestOutcomeDensity:
    def test_uniform_for_single_level(self, rng):
        alice = AliceState(1, [1.0])
        b = FiducialState(1, [1.0])
        density = outcome_density(alice, b, np.zeros(3), rng.uniform(0, 2 * math.pi, (5, 3)))
        assert np.max(np.abs(density - 1.0)) < 1e-14

    def test_normalized_and_bounded(self, rng):
        for n in (2, 3):
            alice, b = optimal_pair(n, Objective.xyz_axes())
            true_rot = np.array([0.4, 1.1, 5.0])
            total = integrate(lambda *angles: outcome_density(alice, b, true_rot,
                                                              np.stack(angles, axis=-1)),
                              make_grid(n - 1))
            assert total.real == pytest.approx(1.0, abs=1e-10)
            vals = outcome_density(alice, b, true_rot, rng.uniform(0, 2 * math.pi, (20, 3)))
            assert np.all((0.0 <= vals) & (vals <= n * n + 1e-12))

    def test_broadcasts_angle_arrays(self, rng):
        # densities come back in the broadcast shape and match the per-block
        # big_d_matrix oracle at the error rotation
        alice, b = optimal_pair(3, Objective.xyz_axes())
        true_angles = rng.uniform(0, 2 * math.pi, (4, 1, 3))
        meas_angles = rng.uniform(0, 2 * math.pi, (5, 3))
        density = outcome_density(alice, b, true_angles, meas_angles)
        assert density.shape == (4, 5)
        err = error_angles(*np.broadcast_arrays(true_angles, meas_angles))
        oracle = amplitude_squared(alice.a, b.b, 3, *np.moveaxis(err, -1, 0))
        assert np.max(np.abs(density - oracle)) < 1e-12
        assert outcome_density(alice, b, true_angles[0, 0], meas_angles[0]).shape == ()


class TestSampling:
    def test_single_level_is_haar_uniform(self):
        alice = AliceState(1, [1.0])
        b = FiducialState(1, [1.0])
        report = monte_carlo_error(alice, b, samples=20_000, seed=11, rejection=True)
        assert report.acceptance_rate == 1.0
        assert abs(report.mean_cos_z) < 3 * report.stderr_cos_z
        assert abs(report.mean_cos_x_plus_y) < 3 * report.stderr_cos_x_plus_y
        assert abs(report.mean_cos_sum) < 3 * report.stderr_cos_sum

    def test_optimal_z_level_two_matches_analytic(self):
        alice, b = optimal_pair(2, Objective.z_axis())
        report = monte_carlo_error(alice, b, samples=60_000, seed=5, rejection=True)
        assert abs(report.mean_cos_z - ROOT3) < 3 * report.stderr_cos_z
        expected_rate = 1.0 / 4.0
        assert report.acceptance_rate == pytest.approx(expected_rate, abs=0.01)

    def test_true_rotation_invariance(self):
        # covariance: statistics with a fixed true rotation match the
        # Haar-averaged ones within joint statistical error
        alice, b = optimal_pair(2, Objective.xyz_axes())
        fixed = monte_carlo_error(
            alice, b, samples=40_000, seed=21, true_rotation=(0, 0, 0), rejection=True
        )
        haar = monte_carlo_error(alice, b, samples=40_000, seed=22, rejection=True)
        joint = math.hypot(fixed.stderr_cos_sum, haar.stderr_cos_sum)
        assert abs(fixed.mean_cos_sum - haar.mean_cos_sum) < 3 * joint

    def test_stderr_scales_like_inverse_root_samples(self):
        alice, b = optimal_pair(2, Objective.xyz_axes())
        small = monte_carlo_error(alice, b, samples=10_000, seed=3)
        large = monte_carlo_error(alice, b, samples=40_000, seed=3)
        ratio = large.stderr_cos_sum / small.stderr_cos_sum
        assert 0.3 < ratio < 0.7  # expect about 0.5

    def test_identical_reports_for_same_seed(self):
        alice, b = optimal_pair(2, Objective.xyz_axes())
        rep1 = monte_carlo_error(alice, b, samples=5_000, seed=9)
        rep2 = monte_carlo_error(alice, b, samples=5_000, seed=9)
        assert rep1 == rep2

    def test_chunking_does_not_change_the_draw(self):
        alice, b = optimal_pair(2, Objective.z_axis())
        one = monte_carlo_error(alice, b, samples=4_000, seed=13, chunk_size=4_000)
        many = monte_carlo_error(alice, b, samples=4_000, seed=13, chunk_size=1_000)
        # chunked streams differ, but statistics must stay compatible
        joint = math.hypot(one.stderr_cos_z, many.stderr_cos_z)
        assert abs(one.mean_cos_z - many.mean_cos_z) < 4 * joint

    @pytest.mark.parametrize("rejection", [False, True])
    def test_raw_samples_reproduce_report(self, rejection):
        alice, b = optimal_pair(2, Objective.z_axis())
        report, raw = monte_carlo_error(alice, b, samples=2_000, seed=17, keep_samples=True,
                                        rejection=rejection)
        assert raw.shape == (2_000, 6)
        assert np.mean(raw[:, 5]) == pytest.approx(report.mean_cos_z, abs=1e-12)
        assert np.mean(raw[:, 3] + raw[:, 4]) == pytest.approx(
            report.mean_cos_x_plus_y, abs=1e-12
        )
        # angle columns are genuine Euler angles of the error rotation
        assert np.all((raw[:, 1] >= 0) & (raw[:, 1] <= math.pi))
        rebuilt = rotation_matrix_components(raw[:, 0], raw[:, 1], raw[:, 2])
        assert np.max(np.abs(np.diagonal(rebuilt, axis1=1, axis2=2) - raw[:, 3:])) < 1e-12

    def test_stream_is_pinned(self):
        # recorded with the earlier sampler, which rotated every block by
        # big_d_matrix per proposal; scoring at the error rotation must keep
        # the proposals, the acceptances and so every statistic
        alice, b = optimal_pair(3, Objective.xyz_axes())
        haar = monte_carlo_error(alice, b, samples=1500, seed=2468, chunk_size=1000,
                                 rejection=True)
        assert haar.acceptance_rate == 1500 / 13210
        assert haar.mean_cos_z == pytest.approx(0.4452193950425932, abs=1e-12)
        assert haar.mean_cos_x_plus_y == pytest.approx(0.986677617106704, abs=1e-12)
        assert haar.mean_cos_sum == pytest.approx(1.4318970121492973, abs=1e-12)
        assert haar.stderr_cos_sum == pytest.approx(0.024482411896409435, abs=1e-12)
        fixed = monte_carlo_error(alice, b, samples=700, seed=1357,
                                  true_rotation=(0.4, 2.9, 5.1), rejection=True)
        assert fixed.acceptance_rate == 700 / 6784
        assert fixed.mean_cos_z == pytest.approx(0.4749969542853423, abs=1e-12)
        assert fixed.mean_cos_x_plus_y == pytest.approx(1.0352601168773128, abs=1e-12)
        assert fixed.mean_cos_sum == pytest.approx(1.5102570711626548, abs=1e-12)
        assert fixed.stderr_cos_sum == pytest.approx(0.036470320640269296, abs=1e-12)

    def test_density_above_envelope_is_rejected(self):
        # FiducialState refuses a denormalized block, so feed the sampler the
        # raw vector: block 1 at three times unit norm lifts the density to 25
        n = 2
        a = np.full(total_dim(n), 0.5, dtype=complex)
        b = np.full(total_dim(n), 3.0 / math.sqrt(3), dtype=complex)
        b[0] = 1.0
        with pytest.raises(ValueError, match=r"outcome density \d+\.\d+ exceeds"):
            _sample_chunk(_amplitude_polynomial(a, b, n), n, 64, np.random.default_rng(5),
                          (0.0, 0.0, 0.0))

    def test_input_validation(self):
        alice, b = optimal_pair(2, Objective.z_axis())
        with pytest.raises(ValueError):
            monte_carlo_error(alice, b, samples=0, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_error(alice, FiducialState.uniform(3), samples=10, seed=1)

    def test_random_complex_states_match_analytic(self):
        # optima are real, so this is the path that exercises the imaginary
        # parts of the amplitude chain end to end
        from framecast import fidelity_report

        rng = np.random.default_rng(77)
        n = 2
        raw = rng.standard_normal(total_dim(n)) + 1j * rng.standard_normal(total_dim(n))
        alice = AliceState(n, raw / np.linalg.norm(raw))
        b = FiducialState.random(n, rng)
        analytic = fidelity_report(alice, b, Objective.xyz_axes())
        report = monte_carlo_error(alice, b, samples=60_000, seed=78)
        assert abs(report.mean_cos_z - analytic.expect_cos_z) < 3 * report.stderr_cos_z
        assert (
            abs(report.mean_cos_x_plus_y - analytic.expect_cos_xy)
            < 3 * report.stderr_cos_x_plus_y
        )
        assert abs(report.mean_cos_sum - analytic.expect_cos_sum) < 3 * report.stderr_cos_sum

    def test_larger_level_smoke(self):
        # rejection cost grows like n^2 per sample; n=5 stays practical and
        # the empirical mean must still track the analytic value
        alice, b = optimal_pair(5, Objective.xyz_axes())
        from framecast import fidelity_report

        analytic = fidelity_report(alice, b, Objective.xyz_axes())
        report = monte_carlo_error(alice, b, samples=8_000, seed=55, rejection=True)
        assert abs(report.mean_cos_sum - analytic.expect_cos_sum) < 4 * report.stderr_cos_sum
        assert report.acceptance_rate == pytest.approx(1.0 / 25.0, rel=0.15)


def random_state_vectors(n, rng):
    """Unit-norm sender amplitudes and per-block unit-norm fiducial amplitudes."""
    a = rng.standard_normal(total_dim(n)) + 1j * rng.standard_normal(total_dim(n))
    b = rng.standard_normal(total_dim(n)) + 1j * rng.standard_normal(total_dim(n))
    for j in range(n):
        b[block_slice(j)] /= np.linalg.norm(b[block_slice(j)])
    return a / np.linalg.norm(a), b


def block_rotation_amplitude(a, b, n, true_angles, meas_angles):
    """Oracle: conj(U(T) A) . W U(M) B with every block rotated by big_d_matrix."""
    total = 0.0
    for j in range(n):
        sl = block_slice(j)
        rotated_a = big_d_matrix(j, *true_angles) @ a[sl]
        rotated_b = big_d_matrix(j, *meas_angles) @ b[sl]
        total += math.sqrt(2 * j + 1) * np.vdot(rotated_a, rotated_b)
    return total


class TestAmplitude:
    def test_identity_rotation_is_inner_product(self, rng):
        n = 3
        a = rng.standard_normal(total_dim(n)) + 1j * rng.standard_normal(total_dim(n))
        b = rng.standard_normal(total_dim(n)) + 1j * rng.standard_normal(total_dim(n))
        amp = _outcome_amplitudes(_amplitude_polynomial(a, b, n), np.zeros((1, 3)))
        expected = sum(math.sqrt(2 * j + 1) * np.vdot(a[block_slice(j)], b[block_slice(j)])
                       for j in range(n))
        assert amp[0] == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_block_rotation_oracle(self, n, rng):
        a, b = random_state_vectors(n, rng)
        true_angles = rng.uniform(0.0, 2.0 * math.pi, size=(12, 3))
        meas_angles = rng.uniform(0.0, 2.0 * math.pi, size=(12, 3))
        # gimbal-locked discrepancies: none, a pure z turn, a flip by pi
        meas_angles[0] = true_angles[0]
        meas_angles[1] = true_angles[1] + [0.0, 0.0, 0.7]
        meas_angles[2] = angles_from_matrices(rotation_matrix_components(*true_angles[2])
                                              @ rotation_matrix_components(0.7, math.pi, 0.2))
        amps = _outcome_amplitudes(_amplitude_polynomial(a, b, n),
                                   error_angles(true_angles, meas_angles))
        oracle = [block_rotation_amplitude(a, b, n, t, m)
                  for t, m in zip(true_angles, meas_angles)]
        assert np.max(np.abs(amps - oracle)) < 1e-12

    def test_sub_batches_match_whole_batch(self, rng, monkeypatch):
        # scoring SCORE_ROWS proposals at a time must not change any amplitude
        n = 4
        a, b = random_state_vectors(n, rng)
        poly = _amplitude_polynomial(a, b, n)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(1000, 3))
        monkeypatch.setattr(simulator, "SCORE_ROWS", 1000)
        whole = _outcome_amplitudes(poly, angles)
        monkeypatch.setattr(simulator, "SCORE_ROWS", 7)
        batched = _outcome_amplitudes(poly, angles)
        assert batched.shape == whole.shape
        assert np.max(np.abs(batched - whole)) < 1e-14


def stretched_pair(n):
    """Flat amplitudes of the xyz optimum reached from the stretched start b_j = |j, j>."""
    result = best_of_restarts(cached_tensor(Objective.xyz_axes(), n - 1), n, 0, 0)
    assert result.converged
    return result.a.a, result.b.b


def zeroed_pair(n, rng):
    """A random pair with entries zeroed so that the kept m-windows differ between r."""
    a, b = random_state_vectors(n, rng)
    # no m = -3 or 3 and no r = 3; m = -2 only from block 2, which has no r = -2
    a[[flat_index(3, -3), flat_index(3, -2), flat_index(3, 3), flat_index(1, 0)]] = 0.0
    b[[flat_index(3, 3), flat_index(2, -2)]] = 0.0
    for j in range(n):
        b[block_slice(j)] /= np.linalg.norm(b[block_slice(j)])
    return a / np.linalg.norm(a), b


class TestSupportLayout:
    def layout_slots(self, layout, n):
        """Cube indices (m + n - 1, r + n - 1) of every layout slot, shape (2, span, kept)."""
        span, kept = layout.coef.shape[1:]
        m = layout.m0 + np.arange(span)[:, None] + n - 1
        r = np.broadcast_to(layout.r0 + np.arange(kept) + n - 1, m.shape)
        return np.stack([m, r])

    def assert_is_the_cube_on_its_support(self, a, b, n):
        layout = _support_layout(a, b, n)
        cube = _amplitude_polynomial(a, b, n)
        m, r = self.layout_slots(layout, n)
        inside = (0 <= m) & (m < 2 * n - 1)
        # padding past the cube's edge holds exact zeros
        assert not np.any(layout.coef[:, ~inside])
        assert np.max(np.abs(layout.coef[:, inside] - cube[:, m[inside], r[inside]]),
                      initial=0.0) <= 1e-14
        outside = np.ones(cube.shape[1:], dtype=bool)
        outside[m[inside], r[inside]] = False
        assert not np.any(cube[:, outside])
        return layout

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_support_pair_is_the_cube(self, n, rng):
        a, b = random_state_vectors(n, rng)
        layout = self.assert_is_the_cube_on_its_support(a, b, n)
        assert layout.coef.shape == (2 * n - 1,) * 3
        assert np.all(layout.m0 == 1 - n) and layout.r0 == 1 - n

    @pytest.mark.parametrize("n", [5, 30])
    def test_stretched_optimum_keeps_one_slot_per_r(self, n):
        # its amplitudes sit at m = r = j only: n of the (2n - 1)^2 slots
        layout = self.assert_is_the_cube_on_its_support(*stretched_pair(n), n)
        assert layout.coef.shape == (2 * n - 1, 1, n)
        assert np.array_equal(layout.m0, np.arange(n)) and layout.r0 == 0

    def test_zeroed_entries_shear_the_windows(self, rng):
        n = 4
        a, b = zeroed_pair(n, rng)
        layout = self.assert_is_the_cube_on_its_support(a, b, n)
        assert np.array_equal(layout.m0, [-1, -1, -2, -2, -2, -2]) and layout.r0 == -3
        assert layout.coef.shape == (2 * n - 1, 5, 6)

    def test_sampler_on_sheared_windows_matches_rejection_oracle(self, rng):
        n = 4
        a, b = zeroed_pair(n, rng)
        alice, fiducial = AliceState(n, a), FiducialState(n, b)
        exact = monte_carlo_error(alice, fiducial, samples=20_000, seed=31)
        oracle = monte_carlo_error(alice, fiducial, samples=4_000, seed=32, rejection=True)
        assert_means_agree(exact, oracle)


def assert_means_agree(one, other):
    """The three error-cosine means of two reports agree within 3 joint standard errors."""
    for key in ("cos_z", "cos_x_plus_y", "cos_sum"):
        gap = getattr(one, f"mean_{key}") - getattr(other, f"mean_{key}")
        joint = math.hypot(getattr(one, f"stderr_{key}"), getattr(other, f"stderr_{key}"))
        assert abs(gap) < 3 * joint, key


def amplitude_squared(a, b, n, alphas, betas, gammas):
    """Oracle |<A|U(alpha, beta, gamma)|B>|^2 over broadcast angles, each block by big_d_matrix."""
    total = 0.0
    for j in range(n):
        sl = block_slice(j)
        dmats = big_d_matrix(j, alphas, betas, gammas)
        total = total + math.sqrt(2 * j + 1) * np.einsum("m,...mr,r->...", a[sl].conj(), dmats,
                                                         b[sl])
    return np.abs(total) ** 2


def gauss_integral(fn, upper, nodes=48):
    """Integral of fn over [0, upper] by Gauss-Legendre (fn takes an array of points)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * upper * float(np.sum(w * fn(0.5 * upper * (x + 1.0))))


def assert_angles_are_quantiles(a, b, n, rng):
    """Each sampled angle sits at its uniform's quantile of the marginal or conditional CDF.

    The CDFs are integrated by Gauss-Legendre over big_d_matrix amplitudes
    (no Fourier coefficients); gamma means use 2n+1 nodes.
    """
    layout = _support_layout(a, b, n)
    u = rng.random((6, 3))
    nodes = 2.0 * math.pi * np.arange(2 * n + 1) / (2 * n + 1)

    def beta_density(x):
        grid = amplitude_squared(a, b, n, nodes[:, None], x[:, None, None], nodes)
        return 0.5 * np.sin(x) * np.mean(grid, axis=(1, 2))

    def over_gamma(alphas, beta):
        return np.mean(amplitude_squared(a, b, n, np.asarray(alphas)[..., None], beta, nodes),
                       axis=-1)

    for (alpha, beta, gamma), (u_beta, u_alpha, u_gamma) in zip(
            _sample_errors(layout, _beta_marginal(layout.coef), u), u):
        beta_cdf = gauss_integral(beta_density, beta)
        assert beta_cdf == pytest.approx(u_beta, abs=1e-11)
        alpha_total = 2.0 * math.pi * float(np.mean(over_gamma(nodes, beta)))
        alpha_cdf = gauss_integral(lambda x: over_gamma(x, beta), alpha)
        assert alpha_cdf == pytest.approx(u_alpha * alpha_total, abs=1e-11 * alpha_total)
        gamma_total = 2.0 * math.pi * float(over_gamma(alpha, beta))
        gamma_cdf = gauss_integral(lambda x: amplitude_squared(a, b, n, alpha, beta, x), gamma)
        assert gamma_cdf == pytest.approx(u_gamma * gamma_total, abs=1e-11 * gamma_total)


def count_trig_cdf_calls(monkeypatch):
    """Count every _trig_cdf sweep from here on, in the returned dict's "calls"."""
    counter = {"calls": 0}
    sweep = simulator._trig_cdf

    def counted(*args):
        counter["calls"] += 1
        return sweep(*args)

    monkeypatch.setattr(simulator, "_trig_cdf", counted)
    return counter


class TestExactSampler:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_beta_marginal_integrates_to_one(self, n, rng):
        a, b = random_state_vectors(n, rng)
        coef = _beta_marginal(_support_layout(a, b, n).coef)
        total, _ = _trig_cdf(_cdf_terms(coef), np.array(math.pi))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_beta_marginal_matches_node_sum_of_outcome_density(self, n, rng):
        # the alpha x gamma mean of outcome_density over 2n+1 equispaced nodes
        # per axis is exact: the density has degree 2(n-1) in each angle
        a, b = random_state_vectors(n, rng)
        alice, fiducial = AliceState(n, a), FiducialState(n, b)
        terms = _cdf_terms(_beta_marginal(_support_layout(a, b, n).coef))
        nodes = 2.0 * math.pi * np.arange(2 * n + 1) / (2 * n + 1)
        betas = np.array([0.0, 0.3, 1.1, 2.0, math.pi])
        # meas[alpha node, beta, gamma node] = (alpha, beta, gamma)
        meas = np.stack(np.broadcast_arrays(nodes[:, None, None], betas[:, None], nodes), axis=-1)
        mean = outcome_density(alice, fiducial, np.zeros(3), meas).mean(axis=(0, 2))
        _, density = _trig_cdf(terms, betas)
        assert np.max(np.abs(density - 0.5 * np.sin(betas) * mean)) < 1e-12

    def test_non_normalized_states_are_refused(self):
        n = 2
        a = np.full(total_dim(n), 0.5, dtype=complex)
        b = np.full(total_dim(n), 3.0 / math.sqrt(3), dtype=complex)
        b[0] = 1.0
        with pytest.raises(ValueError, match="integrates to"):
            _beta_marginal(_support_layout(a, b, n).coef)

    @pytest.mark.parametrize("n", [2, 4])
    def test_angles_are_quantiles_of_brute_force_conditionals(self, n, rng):
        assert_angles_are_quantiles(*random_state_vectors(n, rng), n, rng)

    @pytest.mark.parametrize("pair", ["stretched", "zeroed"])
    def test_angles_of_sparse_pairs_are_quantiles(self, pair, rng):
        # the stretched pair's layout keeps one slot per r, so alpha | beta is
        # uniform and only the window shifts m0(r) carry alpha into gamma; the
        # zeroed pair's windows start at different m0(r)
        a, b = stretched_pair(4) if pair == "stretched" else zeroed_pair(4, rng)
        assert_angles_are_quantiles(a, b, 4, rng)

    @pytest.mark.parametrize("width", [*range(1, 13), 300])
    def test_autocorrelation_matches_diagonal_traces(self, width, rng):
        # lag k sums the k-th lower diagonal of the outer products over i
        shape = (5, 3, width)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        outer = np.einsum("tip,tiq->tpq", x, x.conj())
        traces = np.stack([np.trace(outer, offset=-k, axis1=1, axis2=2) for k in range(width)],
                          axis=1)
        lag_zero = traces[:, :1].real
        assert np.max(np.abs(_autocorrelation(x) - traces) / lag_zero) < 1e-13

    @pytest.mark.parametrize("shared", [True, False])
    def test_lag_zero_rows_invert_in_closed_form(self, shared, monkeypatch, rng):
        # F(x) = c_0 x, so x = u upper exactly, with no table and no Newton sweep
        calls = count_trig_cdf_calls(monkeypatch)
        u = rng.random(50)
        coef = np.array([0.7]) if shared else rng.uniform(0.1, 2.0, (50, 1)).astype(complex)
        sweeps = []
        assert np.array_equal(_invert_cdf(coef, math.pi, u, sweeps), u * math.pi)
        assert sweeps == [0]
        assert calls["calls"] == 0

    def test_inversion_meets_residual_guard(self, rng):
        # autocorrelation lags of random vectors are valid (non-negative) densities
        vecs = rng.standard_normal((200, 7)) + 1j * rng.standard_normal((200, 7))
        coef = np.stack([np.sum(vecs[:, k:] * vecs[:, :7 - k].conj(), axis=1)
                         for k in range(7)], axis=1)
        u = rng.random(200)
        x = _invert_cdf(coef, 2.0 * math.pi, u)
        terms = _cdf_terms(coef)
        cdf, _ = _trig_cdf(terms, x)
        total, _ = _trig_cdf(terms, np.full(200, 2.0 * math.pi))
        assert np.all((x >= 0.0) & (x <= 2.0 * math.pi))
        assert np.all(np.abs(cdf - u * total) <= 1e-12 * total)

    @pytest.mark.parametrize("upper", [math.pi, 2.0 * math.pi])
    def test_inversion_of_high_order_zeros_and_sharp_peaks(self, upper, rng):
        # |1 - exp(i x)|^6 has lags (-1)^k C(6, 3 + k) and a zero of order 6;
        # the Fejer kernel |sum_{k<40} exp(i k x)|^2 (lags 40 - k) peaks
        # within one table cell; each row shifts its density by some x0
        zero = np.array([20.0, -15.0, 6.0, -1.0])
        peak = 40.0 - np.arange(40)
        x0 = np.concatenate([[0.0, upper], rng.uniform(0.0, upper, 148)])
        for lags in (zero, peak):
            coef = lags * np.exp(-1j * np.arange(lags.size) * x0[:, None])
            u = rng.random(x0.size)
            x = _invert_cdf(coef, upper, u)
            terms = _cdf_terms(coef)
            cdf, _ = _trig_cdf(terms, x)
            total, _ = _trig_cdf(terms, np.full(x0.size, upper))
            assert np.all((x >= 0.0) & (x <= upper))
            assert np.all(np.abs(cdf - u * total) <= 1e-12 * total)

    @pytest.mark.parametrize("count", [1, 7, 500])
    def test_shared_row_matches_row_broadcast_to_every_u(self, count, rng):
        a, b = random_state_vectors(4, rng)
        coef = _beta_marginal(_support_layout(a, b, 4).coef)
        u = rng.random(count)
        shared = _invert_cdf(coef, math.pi, u)
        assert np.array_equal(shared, _invert_cdf(np.broadcast_to(coef, (count, coef.size)),
                                                  math.pi, u))
        assert np.array_equal(shared, _invert_cdf(np.tile(coef, (count, 1)), math.pi, u))

    def test_newton_sweeps_of_a_seeded_run_stay_under_ceiling(self, monkeypatch):
        # every inversion starts inside a tabulated cell, and beta is inverted
        # once per chunk: 109 sweeps here, in 12 blocks of 512 rows; 199 in 24
        # blocks of 256, and starts at u * upper with beta inverted per block
        # took 672
        sweeps = count_trig_cdf_calls(monkeypatch)
        alice, b = optimal_pair(5, Objective.xyz_axes())
        monte_carlo_error(alice, b, samples=6000, seed=2024)
        assert sweeps["calls"] <= 131

    def test_each_chunk_logs_its_sweeps(self, monkeypatch, caplog):
        sweeps = count_trig_cdf_calls(monkeypatch)
        alice, b = optimal_pair(3, Objective.xyz_axes())
        with caplog.at_level(logging.DEBUG, logger="framecast.simulator"):
            monte_carlo_error(alice, b, samples=1500, seed=2468, chunk_size=1000)
        records = [r for r in caplog.records if r.name == "framecast.simulator"]
        assert [(r.levelno, r.args[0]) for r in records] == [(logging.DEBUG, 1000),
                                                              (logging.DEBUG, 500)]
        # the block rows: BLOCK_ROWS, or fewer where span x kept x rows passes BLOCK_ELEMENTS
        layout = _support_layout(alice.a, b.b, 3)
        assert math.prod(layout.coef.shape[1:]) * simulator.BLOCK_ROWS <= simulator.BLOCK_ELEMENTS
        assert all(r.args[1] == simulator.BLOCK_ROWS for r in records)
        assert all(r.args[5] > 0.0 for r in records)
        # the layout's kept r's x span, out of the cube's (2n - 1)^2 slots
        assert all(r.args[6:] == (*layout.coef.shape[2:0:-1], 25) for r in records)
        # the beta marginal's normalization check is the one sweep not logged
        assert sum(sum(r.args[2:5]) for r in records) + 1 == sweeps["calls"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_inversion_guard_raises_on_corrupted_coefficients(self, bad):
        coef = np.array([[1.0, 0.2 + 0.1j, 0.1], [1.0, 0.3j, bad]])
        with pytest.raises(ValueError, match="unconverged"):
            _invert_cdf(coef, 2.0 * math.pi, np.array([0.3, 0.6]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exact_matches_rejection_oracle(self, n):
        alice, b = optimal_pair(n, Objective.xyz_axes())
        exact = monte_carlo_error(alice, b, samples=20_000, seed=610 + n)
        oracle = monte_carlo_error(alice, b, samples=20_000, seed=710 + n, rejection=True)
        assert exact.acceptance_rate == 1.0
        assert_means_agree(exact, oracle)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_exact_matches_rejection_oracle_on_the_stretched_optimum(self, n):
        # the layout keeps n of the (2n - 1)^2 slots; the oracle scores the
        # dense cube, and its acceptance is about 1 / n^2 here
        a, b = stretched_pair(n)
        alice, fiducial = AliceState(n, a), FiducialState(n, b)
        assert _support_layout(a, b, n).coef.shape == (2 * n - 1, 1, n)
        exact = monte_carlo_error(alice, fiducial, samples=30_000, seed=630 + n)
        oracle = monte_carlo_error(alice, fiducial, samples=3_000, seed=730 + n, rejection=True)
        assert_means_agree(exact, oracle)

    @pytest.mark.parametrize("n", [3, 4])
    def test_random_complex_states_match_analytic(self, n, rng):
        a, b = random_state_vectors(n, rng)
        alice, fiducial = AliceState(n, a), FiducialState(n, b)
        analytic = fidelity_report(alice, fiducial, Objective.xyz_axes())
        report = monte_carlo_error(alice, fiducial, samples=40_000, seed=820 + n)
        for key, expected in (("cos_z", analytic.expect_cos_z),
                              ("cos_x_plus_y", analytic.expect_cos_xy),
                              ("cos_sum", analytic.expect_cos_sum)):
            mean, stderr = getattr(report, f"mean_{key}"), getattr(report, f"stderr_{key}")
            assert abs(mean - expected) < 3 * stderr, key

    def test_stream_is_pinned(self):
        # the inversion stops at a residual of 1e-12 of each CDF's total, so
        # the angles, and with them the means, are pinned to about that. The
        # n = 3 xyz optimum is degenerate under rotations, so the pair is a
        # recorded point of it: where the optimizer stops cannot move the pins
        alice = AliceState(3, [0.27202985865973506, 0.3467221335175536, 0.4903391409076855,
                               0.3467221335175536, 0.1667960603046476, 0.33359211889279883,
                               0.40856523604985195, 0.33359211889279883, 0.16679606030464764])
        report = monte_carlo_error(alice, b_from_a(alice), samples=1500, seed=2468,
                                   chunk_size=1000)
        assert report.acceptance_rate == 1.0
        assert report.mean_cos_z == pytest.approx(0.47100260946118744, abs=1e-10)
        assert report.mean_cos_x_plus_y == pytest.approx(1.0140151417766377, abs=1e-10)
        assert report.mean_cos_sum == pytest.approx(1.485017751237825, abs=1e-10)
        assert report.stderr_cos_sum == pytest.approx(0.024791227697961167, abs=1e-10)

    def test_sub_blocks_match_whole_block(self, rng, monkeypatch, caplog):
        # the uniforms are drawn per chunk, so the row block size cannot move a sample
        n = 3
        a, b = random_state_vectors(n, rng)
        layout = _support_layout(a, b, n)
        u = rng.random((600, 3))
        monkeypatch.setattr(simulator, "BLOCK_ROWS", 600)
        whole = _sample_errors(layout, _beta_marginal(layout.coef), u)
        monkeypatch.setattr(simulator, "BLOCK_ELEMENTS", 7 * math.prod(layout.coef.shape[1:]))
        with caplog.at_level(logging.DEBUG, logger="framecast.simulator"):
            batched = _sample_errors(layout, _beta_marginal(layout.coef), u)
        assert [r.args[1] for r in caplog.records if r.name == "framecast.simulator"] == [7]
        assert np.max(np.abs(batched - whole)) < 1e-12


@pytest.mark.slow
@pytest.mark.parametrize("n, samples", [(20, 60_000), (30, 6000), (100, 2000)])
def test_large_level_exact_replay_matches_analytic(capsys, n, samples):
    from framecast.cli import main

    start = time.perf_counter()
    code = main(["simulate", "--n", str(n), "--samples", str(samples), "--seed", str(n)])
    elapsed = time.perf_counter() - start
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    # simulate --n replays optimize's default best of restarts, seeded by --seed
    tensor = cached_tensor(Objective.xyz_axes(), n - 1)
    result = best_of_restarts(tensor, n, DEFAULT_RESTARTS, n)
    analytic = fidelity_report(result.a, result.b, Objective.xyz_axes())
    with capsys.disabled():
        print(f"\nsimulate --n {n} --samples {samples}: {elapsed:.2f} s, "
              f"{samples / elapsed:.0f} samples/s (optimization included)")
    for key, expected in (("cos_z", analytic.expect_cos_z),
                          ("cos_x_plus_y", analytic.expect_cos_xy),
                          ("cos_sum", analytic.expect_cos_sum)):
        assert abs(doc[f"mean_{key}"] - expected) < 3 * doc[f"stderr_{key}"], key
