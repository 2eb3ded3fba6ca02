"""POVM completeness and Monte Carlo outcome simulation."""

import json
import math
import time

import numpy as np
import pytest

from framecast import (
    AliceState,
    EulerAngles,
    FiducialState,
    Objective,
    angles_from_matrices,
    big_d_matrix,
    block_slice,
    cached_tensor,
    fidelity_report,
    fixed_point_optimize,
    integrate,
    make_grid,
    monte_carlo_error,
    outcome_density,
    povm_defect,
    rotation_matrix_components,
    sample_outcome,
    total_dim,
)
from framecast import simulator
from framecast.simulator import (
    _amplitude_polynomial,
    _beta_marginal,
    _cdf_terms,
    _invert_cdf,
    _lag_sums,
    _outcome_amplitudes,
    _resolution_defect,
    _sample_chunk,
    _sample_errors,
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
        defect = _resolution_defect(vec, n, make_grid(n - 1))
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
            assert _resolution_defect(vec, n, grid) == pytest.approx(flat, abs=1e-13)

    def test_grid_exactness_guard(self):
        with pytest.raises(ValueError):
            povm_defect(FiducialState.uniform(4), make_grid(1))


class TestOutcomeDensity:
    def test_uniform_for_single_level(self, rng):
        alice = AliceState(1, [1.0])
        b = FiducialState(1, [1.0])
        for _ in range(5):
            meas = EulerAngles(*rng.uniform(0, 2 * math.pi, 3))
            assert outcome_density(alice, b, EulerAngles(0, 0, 0), meas) == pytest.approx(
                1.0, abs=1e-14
            )

    def test_normalized_and_bounded(self, rng):
        for n in (2, 3):
            alice, b = optimal_pair(n, Objective.xyz_axes())
            true_rot = EulerAngles(0.4, 1.1, 5.0)
            grid = make_grid(n - 1)

            def density(alphas, betas, gammas):
                out = np.empty_like(alphas)
                for i in range(alphas.size):
                    out[i] = outcome_density(
                        alice, b, true_rot, EulerAngles(alphas[i], betas[i], gammas[i])
                    )
                return out

            total = integrate(density, grid)
            assert total.real == pytest.approx(1.0, abs=1e-10)
            for _ in range(20):
                meas = EulerAngles(*rng.uniform(0, 2 * math.pi, 3))
                val = outcome_density(alice, b, true_rot, meas)
                assert 0.0 <= val <= n * n + 1e-12


class TestSampling:
    def test_fixed_seed_is_deterministic(self):
        alice, b = optimal_pair(2, Objective.z_axis())
        true_rot = EulerAngles(0.3, 0.9, 2.0)
        first = sample_outcome(alice, b, true_rot, rng_seed=42)
        second = sample_outcome(alice, b, true_rot, rng_seed=42)
        assert first == second
        third = sample_outcome(alice, b, true_rot, rng_seed=43)
        assert first != third

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
            alice, b, samples=40_000, seed=21, true_rotation=EulerAngles(0, 0, 0), rejection=True
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

    def test_raw_samples_reproduce_report(self):
        alice, b = optimal_pair(2, Objective.z_axis())
        report, raw = monte_carlo_error(alice, b, samples=2_000, seed=17, keep_samples=True)
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
                                  true_rotation=EulerAngles(0.4, 2.9, 5.1), rejection=True)
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
        r_true = np.repeat(np.eye(3)[None], 64, axis=0)
        with pytest.raises(ValueError, match=r"outcome density \d+\.\d+ exceeds"):
            _sample_chunk(_amplitude_polynomial(a, b, n), r_true, n, np.random.default_rng(5))

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
        eye = np.eye(3)[None]
        amp = _outcome_amplitudes(_amplitude_polynomial(a, b, n), eye, eye)
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
        amps = _outcome_amplitudes(
            _amplitude_polynomial(a, b, n),
            rotation_matrix_components(*true_angles.T),
            rotation_matrix_components(*meas_angles.T),
        )
        oracle = [block_rotation_amplitude(a, b, n, t, m)
                  for t, m in zip(true_angles, meas_angles)]
        assert np.max(np.abs(amps - oracle)) < 1e-12

    def test_sub_batches_match_whole_batch(self, rng, monkeypatch):
        # scoring SCORE_ROWS proposals at a time must not change any amplitude
        n = 4
        a, b = random_state_vectors(n, rng)
        poly = _amplitude_polynomial(a, b, n)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(2, 1000, 3))
        r_true = rotation_matrix_components(*angles[0].T)
        r_meas = rotation_matrix_components(*angles[1].T)
        monkeypatch.setattr(simulator, "SCORE_ROWS", 1000)
        whole = _outcome_amplitudes(poly, r_true, r_meas)
        monkeypatch.setattr(simulator, "SCORE_ROWS", 7)
        batched = _outcome_amplitudes(poly, r_true, r_meas)
        assert batched.shape == whole.shape
        assert np.max(np.abs(batched - whole)) < 1e-14


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


class TestExactSampler:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_beta_marginal_integrates_to_one(self, n, rng):
        a, b = random_state_vectors(n, rng)
        coef = _beta_marginal(_amplitude_polynomial(a, b, n))
        total, _ = _trig_cdf(_cdf_terms(coef), np.array(math.pi))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_beta_marginal_matches_node_sum_of_outcome_density(self, n, rng):
        # the alpha x gamma mean of outcome_density over 2n+1 equispaced nodes
        # per axis is exact: the density has degree 2(n-1) in each angle
        a, b = random_state_vectors(n, rng)
        alice, fiducial = AliceState(n, a), FiducialState(n, b)
        terms = _cdf_terms(_beta_marginal(_amplitude_polynomial(a, b, n)))
        nodes = 2.0 * math.pi * np.arange(2 * n + 1) / (2 * n + 1)
        for beta in (0.0, 0.3, 1.1, 2.0, math.pi):
            mean = np.mean([outcome_density(alice, fiducial, EulerAngles(0.0, 0.0, 0.0),
                                            EulerAngles(alpha, beta, gamma))
                            for alpha in nodes for gamma in nodes])
            _, density = _trig_cdf(terms, np.array(beta))
            assert density == pytest.approx(0.5 * math.sin(beta) * mean, abs=1e-12)

    def test_non_normalized_states_are_refused(self):
        n = 2
        a = np.full(total_dim(n), 0.5, dtype=complex)
        b = np.full(total_dim(n), 3.0 / math.sqrt(3), dtype=complex)
        b[0] = 1.0
        with pytest.raises(ValueError, match="integrates to"):
            _beta_marginal(_amplitude_polynomial(a, b, n))

    @pytest.mark.parametrize("n", [2, 4])
    def test_angles_are_quantiles_of_brute_force_conditionals(self, n, rng):
        # each angle must sit at its uniform's quantile of the marginal or
        # conditional CDF, here integrated by Gauss-Legendre over big_d_matrix
        # amplitudes (no Fourier coefficients); gamma means use 2n+1 nodes
        a, b = random_state_vectors(n, rng)
        poly = _amplitude_polynomial(a, b, n)
        u = rng.random((6, 3))
        nodes = 2.0 * math.pi * np.arange(2 * n + 1) / (2 * n + 1)

        def beta_density(x):
            grid = amplitude_squared(a, b, n, nodes[:, None], x[:, None, None], nodes)
            return 0.5 * np.sin(x) * np.mean(grid, axis=(1, 2))

        def over_gamma(alphas, beta):
            return np.mean(amplitude_squared(a, b, n, np.asarray(alphas)[..., None], beta, nodes),
                           axis=-1)

        for (alpha, beta, gamma), (u_beta, u_alpha, u_gamma) in zip(
                _sample_errors(poly, _beta_marginal(poly), u), u):
            beta_cdf = gauss_integral(beta_density, beta)
            assert beta_cdf == pytest.approx(u_beta, abs=1e-11)
            alpha_total = 2.0 * math.pi * float(np.mean(over_gamma(nodes, beta)))
            alpha_cdf = gauss_integral(lambda x: over_gamma(x, beta), alpha)
            assert alpha_cdf == pytest.approx(u_alpha * alpha_total, abs=1e-11 * alpha_total)
            gamma_total = 2.0 * math.pi * float(over_gamma(alpha, beta))
            gamma_cdf = gauss_integral(lambda x: amplitude_squared(a, b, n, alpha, beta, x), gamma)
            assert gamma_cdf == pytest.approx(u_gamma * gamma_total, abs=1e-11 * gamma_total)

    @pytest.mark.parametrize("width", [1, 2, 9])
    def test_lag_sums_match_diagonal_traces(self, width, rng):
        shape = (5, width, width)
        outer = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        traces = [np.trace(outer, offset=-k, axis1=1, axis2=2) for k in range(width)]
        assert np.max(np.abs(_lag_sums(outer) - np.stack(traces, axis=1))) < 1e-13

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
        for key in ("cos_z", "cos_x_plus_y", "cos_sum"):
            gap = getattr(exact, f"mean_{key}") - getattr(oracle, f"mean_{key}")
            joint = math.hypot(getattr(exact, f"stderr_{key}"), getattr(oracle, f"stderr_{key}"))
            assert abs(gap) < 3 * joint, key

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
        # the angles, and with them the means, are pinned to about that
        alice, b = optimal_pair(3, Objective.xyz_axes())
        report = monte_carlo_error(alice, b, samples=1500, seed=2468, chunk_size=1000)
        assert report.acceptance_rate == 1.0
        assert report.mean_cos_z == pytest.approx(0.47100260946118744, abs=1e-10)
        assert report.mean_cos_x_plus_y == pytest.approx(1.0140151417766377, abs=1e-10)
        assert report.mean_cos_sum == pytest.approx(1.485017751237825, abs=1e-10)
        assert report.stderr_cos_sum == pytest.approx(0.024791227697961167, abs=1e-10)

    def test_sub_blocks_match_whole_block(self, rng, monkeypatch):
        # the uniforms are drawn per chunk, so the row block size cannot move a sample
        n = 3
        a, b = random_state_vectors(n, rng)
        poly = _amplitude_polynomial(a, b, n)
        u = rng.random((600, 3))
        whole = _sample_errors(poly, _beta_marginal(poly), u)
        monkeypatch.setattr(simulator, "SCORE_ROWS", 7)
        batched = _sample_errors(poly, _beta_marginal(poly), u)
        assert np.max(np.abs(batched - whole)) < 1e-12

    def test_sample_outcome_is_true_rotation_times_error(self):
        alice, b = optimal_pair(3, Objective.xyz_axes())
        true_rot = EulerAngles(0.3, 0.9, 2.0)
        outcome = sample_outcome(alice, b, true_rot, rng_seed=42)
        poly = _amplitude_polynomial(alice.a, b.b, 3)
        error = _sample_errors(poly, _beta_marginal(poly),
                               np.random.default_rng(42).random((1, 3)))[0]
        expected = (rotation_matrix_components(*true_rot.as_tuple())
                    @ rotation_matrix_components(*error))
        assert np.max(np.abs(rotation_matrix_components(*outcome.as_tuple()) - expected)) < 1e-12


@pytest.mark.slow
def test_level_twenty_exact_replay_matches_analytic(capsys):
    from framecast.cli import main

    samples = 60_000
    start = time.perf_counter()
    code = main(["simulate", "--n", "20", "--samples", str(samples), "--seed", "20"])
    elapsed = time.perf_counter() - start
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    result = fixed_point_optimize(cached_tensor(Objective.xyz_axes(), 19), 20, init="uniform")
    analytic = fidelity_report(result.a, result.b, Objective.xyz_axes())
    with capsys.disabled():
        print(f"\nsimulate --n 20 --samples {samples}: {elapsed:.2f} s, "
              f"{samples / elapsed:.0f} samples/s (optimization included)")
    for key, expected in (("cos_z", analytic.expect_cos_z),
                          ("cos_x_plus_y", analytic.expect_cos_xy),
                          ("cos_sum", analytic.expect_cos_sum)):
        assert abs(doc[f"mean_{key}"] - expected) < 3 * doc[f"stderr_{key}"], key
