"""Covariant-measurement simulation and consistency checks.

The detector fiducial vector, rotated over the whole group with per-block
weights sqrt(2j+1), resolves the identity; `povm_defect` verifies that on a
quadrature grid, block (j, k) being the quadrature coefficient block of f = 1
contracted with b_j and conj(b_k), so no D^j is built at the grid nodes.
Measurement outcomes follow the density |<A| U(true)^dagger U(outcome) |B>|^2
relative to the Haar measure. Since U(true)^dagger U(outcome) = U(error) for
the discrepancy rotation error = R(true)^T R(outcome), the density is scored at
the error rotation's angles. The weighted amplitude <A|U(alpha, beta, gamma)|B>
is one 3-D trigonometric polynomial, built once per state pair from the Fourier
coefficients of the small-d matrices, so scoring a batch of proposals takes
three phase vectors, one matmul and one contraction per SCORE_ROWS proposals.
Outcomes are rejection-sampled against Haar-uniform proposals, envelope n^2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .basis import block_slice, total_dim
from .objective import AliceState, FiducialState
from .quadrature import SO3Grid, coefficient_blocks
from .so3 import (
    EulerAngles,
    angles_from_matrices,
    rotation_matrix_components,
    small_d_fourier,
)

DEFAULT_CHUNK = 16384
# proposals scored per amplitude evaluation; each holds a (2n-1)^2 complex row
SCORE_ROWS = 256


@dataclass(frozen=True)
class MonteCarloReport:
    """Empirical error-cosine means with standard errors (stdev / sqrt(samples))."""

    samples: int
    mean_cos_z: float
    stderr_cos_z: float
    mean_cos_x_plus_y: float
    stderr_cos_x_plus_y: float
    mean_cos_sum: float
    stderr_cos_sum: float
    acceptance_rate: float

    def to_json(self) -> dict:
        return asdict(self)


def _resolution_defect(vec: np.ndarray, n: int, grid: SO3Grid) -> float:
    """Identity defect for raw fiducial amplitudes (no normalization check)."""
    needed_beta = 2 * (n - 1) + 3
    if len(grid.beta_nodes) < needed_beta or grid.alpha_count < 2 * (n - 1) + 1:
        raise ValueError(f"grid is not exact for n={n}; build it with make_grid({n - 1})")
    identity_est = np.empty((total_dim(n), total_dim(n)), dtype=complex)
    for j, k, block in coefficient_blocks(lambda a, b, g: 1.0, range(n), range(n), grid):
        identity_est[block_slice(j), block_slice(k)] = np.einsum(
            "mrns,r,s->mn", block, vec[block_slice(j)], vec[block_slice(k)].conj())
    return float(np.max(np.abs(identity_est - np.eye(total_dim(n)))))


def povm_defect(b: FiducialState, grid: SO3Grid) -> float:
    """Largest entry of (integral of rotated fiducial projectors) minus identity.

    For per-block normalized amplitudes the integral is exactly the identity;
    a block with squared norm p instead contributes p on its diagonal, so the
    defect localizes normalization violations.
    """
    return _resolution_defect(b.b, b.n, grid)


def _amplitude_polynomial(a_vec: np.ndarray, b_vec: np.ndarray, n: int) -> np.ndarray:
    """Coefficients H[mu, m, r] of the weighted amplitude as a trigonometric polynomial.

    sum_j sqrt(2j+1) conj(a_j) D^j(alpha, beta, gamma) b_j
        = sum H[mu, m, r] exp(i m alpha) exp(-i mu beta) exp(i r gamma),
    with mu, m, r ascending from -(n-1) to n-1; block j fills the centred
    (2j+1)^3 cube.
    """
    width = 2 * n - 1
    poly = np.zeros((width, width, width), dtype=complex)
    for j in range(n):
        lo, hi = n - 1 - j, n + j
        a_j, b_j = a_vec[block_slice(j)], b_vec[block_slice(j)]
        poly[lo:hi, lo:hi, lo:hi] += (
            math.sqrt(2 * j + 1) * small_d_fourier(j) * a_j.conj()[:, None] * b_j
        )
    return poly


def _error_matrices(r_true: np.ndarray, r_meas: np.ndarray) -> np.ndarray:
    """Discrepancy rotations R(true_t)^T R(meas_t), batched over t."""
    return np.swapaxes(r_true, -1, -2) @ r_meas


def _outcome_amplitudes(poly: np.ndarray, r_true: np.ndarray, r_meas: np.ndarray) -> np.ndarray:
    """Weighted amplitudes <U(T_t)A|U(M_t)B> = <A|U(T_t^T M_t)|B> for rotation matrix rows t."""
    width = poly.shape[0]
    half = (width + 1) // 2
    angles = angles_from_matrices(_error_matrices(r_true, r_meas))
    out = np.empty(angles.shape[0], dtype=complex)
    for lo in range(0, angles.shape[0], SCORE_ROWS):
        rows = slice(lo, lo + SCORE_ROWS)
        # exp(i k angle) for k = 0..n-1 as running products, mirrored to k < 0 by conjugation
        powers = np.empty(angles[rows].shape + (half,), dtype=complex)
        powers[..., 0] = 1.0
        powers[..., 1:] = np.exp(1j * angles[rows])[..., None]
        np.cumprod(powers, axis=2, out=powers)
        phases = np.concatenate([powers[..., :0:-1].conj(), powers], axis=2)
        by_m_r = (phases[:, 1].conj() @ poly.reshape(width, -1)).reshape(-1, width, width)
        out[rows] = np.einsum("tm,tm->t", phases[:, 0], (by_m_r @ phases[:, 2, :, None])[..., 0])
    return out


def outcome_density(a: AliceState, b: FiducialState, true_rot: EulerAngles,
                    meas: EulerAngles) -> float:
    """Probability density of outcome `meas` relative to the Haar measure.

    Depends on the pair only through the discrepancy rotation, integrates to
    one, and is bounded by n^2.
    """
    if a.n != b.n:
        raise ValueError("state dimensions differ")
    amp = _outcome_amplitudes(
        _amplitude_polynomial(a.a, b.b, a.n),
        rotation_matrix_components(*true_rot.as_tuple())[None],
        rotation_matrix_components(*meas.as_tuple())[None],
    )
    return float(np.abs(amp[0]) ** 2)


def _sample_chunk(poly: np.ndarray, r_true: np.ndarray, n: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Rejection-sample one outcome per true rotation matrix in r_true; returns angles, proposals.

    Raises ValueError if a proposal's density exceeds the envelope n^2, which
    a pair of valid states never reaches.
    """
    count = r_true.shape[0]
    envelope = float(n * n)
    out = np.empty((count, 3))
    pending = np.arange(count)
    proposals = 0
    while pending.size:
        k = pending.size
        alphas = rng.uniform(0.0, 2.0 * math.pi, k)
        betas = np.arccos(rng.uniform(-1.0, 1.0, k))
        gammas = rng.uniform(0.0, 2.0 * math.pi, k)
        u = rng.uniform(0.0, 1.0, k)
        r_meas = rotation_matrix_components(alphas, betas, gammas)
        density = np.abs(_outcome_amplitudes(poly, r_true[pending], r_meas)) ** 2
        peak = float(np.max(density))
        if peak > envelope * (1.0 + 1e-9):
            raise ValueError(f"outcome density {peak!r} exceeds the rejection envelope "
                             f"n^2 = {envelope:g}")
        proposals += k
        accepted = u * envelope <= density
        hits = pending[accepted]
        out[hits, 0] = alphas[accepted]
        out[hits, 1] = betas[accepted]
        out[hits, 2] = gammas[accepted]
        pending = pending[~accepted]
    return out, proposals


def sample_outcome(a: AliceState, b: FiducialState, true_rot: EulerAngles,
                   rng_seed: int) -> EulerAngles:
    """One measurement outcome, deterministic for a fixed seed."""
    if a.n != b.n:
        raise ValueError("state dimensions differ")
    rng = np.random.default_rng(rng_seed)
    r_true = rotation_matrix_components(*true_rot.as_tuple())[None]
    angles, _ = _sample_chunk(_amplitude_polynomial(a.a, b.b, a.n), r_true, a.n, rng)
    return EulerAngles(angles[0, 0], angles[0, 1], angles[0, 2])


def monte_carlo_error(
    a: AliceState,
    b: FiducialState,
    samples: int,
    seed: int,
    true_rotation: EulerAngles | None = None,
    chunk_size: int = DEFAULT_CHUNK,
    keep_samples: bool = False,
):
    """Simulate the full transmission and average the per-axis error cosines.

    True rotations are drawn Haar-uniformly unless a fixed one is given (the
    measurement is covariant, so the statistics must not depend on it). Chunks
    use independent child streams of the master seed, so results do not
    depend on chunk scheduling. With keep_samples=True, also returns an array
    of rows (alpha, beta, gamma, cos_x, cos_y, cos_z) per sample.
    """
    if a.n != b.n:
        raise ValueError("state dimensions differ")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = a.n
    poly = _amplitude_polynomial(a.a, b.b, n)
    starts = list(range(0, samples, chunk_size))
    streams = np.random.SeedSequence(seed).spawn(len(starts))
    cos_rows = []
    raw_rows = []
    total_proposals = 0
    for start, stream in zip(starts, streams):
        count = min(chunk_size, samples - start)
        rng = np.random.default_rng(stream)
        if true_rotation is None:
            t_alpha = rng.uniform(0.0, 2.0 * math.pi, count)
            t_beta = np.arccos(rng.uniform(-1.0, 1.0, count))
            t_gamma = rng.uniform(0.0, 2.0 * math.pi, count)
        else:
            t_alpha = np.full(count, true_rotation.alpha)
            t_beta = np.full(count, true_rotation.beta)
            t_gamma = np.full(count, true_rotation.gamma)
        r_true = rotation_matrix_components(t_alpha, t_beta, t_gamma)
        meas, proposals = _sample_chunk(poly, r_true, n, rng)
        total_proposals += proposals
        r_meas = rotation_matrix_components(meas[:, 0], meas[:, 1], meas[:, 2])
        r_err = _error_matrices(r_true, r_meas)
        cosines = np.stack([r_err[:, 0, 0], r_err[:, 1, 1], r_err[:, 2, 2]], axis=1)
        cos_rows.append(cosines)
        if keep_samples:
            raw_rows.append(np.concatenate([angles_from_matrices(r_err), cosines], axis=1))
    cosines = np.concatenate(cos_rows, axis=0)
    cos_z = cosines[:, 2]
    cos_xy = cosines[:, 0] + cosines[:, 1]
    cos_sum = cosines.sum(axis=1)

    def stats(vals):
        mean = float(np.mean(vals))
        if samples > 1:
            err = float(np.std(vals, ddof=1) / math.sqrt(samples))
        else:
            err = float("inf")
        return mean, err

    mz, sz = stats(cos_z)
    mxy, sxy = stats(cos_xy)
    msum, ssum = stats(cos_sum)
    report = MonteCarloReport(
        samples=samples,
        mean_cos_z=mz,
        stderr_cos_z=sz,
        mean_cos_x_plus_y=mxy,
        stderr_cos_x_plus_y=sxy,
        mean_cos_sum=msum,
        stderr_cos_sum=ssum,
        acceptance_rate=samples / total_proposals,
    )
    if keep_samples:
        return report, np.concatenate(raw_rows, axis=0)
    return report
