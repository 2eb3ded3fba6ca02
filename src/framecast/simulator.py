"""Covariant-measurement simulation and consistency checks.

The detector fiducial vector, rotated over the whole group with per-block
weights sqrt(2j+1), resolves the identity; `povm_defect` verifies that on a
quadrature grid. Measurement outcomes follow the density
|<A| U(true)^dagger U(outcome) |B>|^2 relative to the Haar measure, sampled
here by rejection against Haar-uniform proposals with envelope n^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import block_slice, total_dim
from .objective import AliceState, FiducialState
from .quadrature import SO3Grid, big_d_on_grid
from .so3 import (
    EulerAngles,
    angles_from_matrix,
    big_d_matrix,
    error_angles,
    rotation_matrix_components,
)

DEFAULT_CHUNK = 16384


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
        return {
            "samples": self.samples,
            "mean_cos_z": self.mean_cos_z,
            "stderr_cos_z": self.stderr_cos_z,
            "mean_cos_x_plus_y": self.mean_cos_x_plus_y,
            "stderr_cos_x_plus_y": self.stderr_cos_x_plus_y,
            "mean_cos_sum": self.mean_cos_sum,
            "stderr_cos_sum": self.stderr_cos_sum,
            "acceptance_rate": self.acceptance_rate,
        }


def _apply_block_rotations(vec: np.ndarray, n: int, count: int, d_of) -> np.ndarray:
    """Apply D^j_t = d_of(j)[t] to block j of vec for every j, batched over count t's."""
    out = np.empty((count, total_dim(n)), dtype=complex)
    for j in range(n):
        out[:, block_slice(j)] = np.einsum("tmr,r->tm", d_of(j), vec[block_slice(j)])
    return out


def _rotate_blocks(vec: np.ndarray, n: int, alphas, betas, gammas) -> np.ndarray:
    """Apply the block rotation D^j(angles_t) to every block, batched over t."""
    alphas = np.atleast_1d(np.asarray(alphas, float))
    betas = np.atleast_1d(np.asarray(betas, float))
    gammas = np.atleast_1d(np.asarray(gammas, float))
    return _apply_block_rotations(vec, n, alphas.size,
                                  lambda j: big_d_matrix(j, alphas, betas, gammas))


def _block_weights(n: int) -> np.ndarray:
    w = np.empty(total_dim(n))
    for j in range(n):
        w[block_slice(j)] = math.sqrt(2 * j + 1)
    return w


def _resolution_defect(vec: np.ndarray, n: int, grid: SO3Grid) -> float:
    """Identity defect for raw fiducial amplitudes (no normalization check)."""
    needed_beta = 2 * (n - 1) + 3
    if len(grid.beta_nodes) < needed_beta or grid.alpha_count < 2 * (n - 1) + 1:
        raise ValueError(f"grid is not exact for n={n}; build it with make_grid({n - 1})")
    rotated = _apply_block_rotations(vec, n, grid.node_count, lambda j: big_d_on_grid(grid, j))
    rotated *= _block_weights(n)
    identity_est = (rotated * grid.weights[:, None]).T @ rotated.conj()
    return float(np.max(np.abs(identity_est - np.eye(total_dim(n)))))


def povm_defect(b: FiducialState, grid: SO3Grid) -> float:
    """Largest entry of (integral of rotated fiducial projectors) minus identity.

    For per-block normalized amplitudes the integral is exactly the identity;
    a block with squared norm p instead contributes p on its diagonal, so the
    defect localizes normalization violations.
    """
    return _resolution_defect(b.b, b.n, grid)


def _amplitudes(rotated_a: np.ndarray, b_vec: np.ndarray, n: int,
                alphas, betas, gammas) -> np.ndarray:
    """<A'|U(angles)|B> for batches: A' row t against proposal angles row t."""
    rotated_b = _rotate_blocks(b_vec, n, alphas, betas, gammas)
    rotated_b *= _block_weights(n)
    return np.einsum("ti,ti->t", rotated_a.conj(), rotated_b)


def outcome_density(a: AliceState, b: FiducialState, true_rot: EulerAngles,
                    meas: EulerAngles) -> float:
    """Probability density of outcome `meas` relative to the Haar measure.

    Depends on the pair only through the discrepancy rotation, integrates to
    one, and is bounded by n^2.
    """
    if a.n != b.n:
        raise ValueError("state dimensions differ")
    err = error_angles(true_rot, meas)
    rotated_a = np.atleast_2d(a.a)
    amp = _amplitudes(rotated_a, b.b, a.n, err.alpha, err.beta, err.gamma)
    return float(np.abs(amp[0]) ** 2)


def _sample_chunk(rotated_a: np.ndarray, b_vec: np.ndarray, n: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Rejection-sample one outcome per row of rotated_a; returns angles, proposals."""
    count = rotated_a.shape[0]
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
        density = np.abs(_amplitudes(rotated_a[pending], b_vec, n, alphas, betas, gammas)) ** 2
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
    rotated_a = _rotate_blocks(a.a, a.n, true_rot.alpha, true_rot.beta, true_rot.gamma)
    angles, _ = _sample_chunk(rotated_a, b.b, a.n, rng)
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
    starts = list(range(0, samples, chunk_size))
    streams = np.random.SeedSequence(seed).spawn(len(starts))
    cos_rows = []
    raw_rows = [] if keep_samples else None
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
        rotated_a = _rotate_blocks(a.a, n, t_alpha, t_beta, t_gamma)
        meas, proposals = _sample_chunk(rotated_a, b.b, n, rng)
        total_proposals += proposals
        r_true = rotation_matrix_components(t_alpha, t_beta, t_gamma)
        r_meas = rotation_matrix_components(meas[:, 0], meas[:, 1], meas[:, 2])
        r_err = np.einsum("tji,tjk->tik", r_true, r_meas)
        cosines = np.stack([r_err[:, 0, 0], r_err[:, 1, 1], r_err[:, 2, 2]], axis=1)
        cos_rows.append(cosines)
        if keep_samples:
            for row_r, row_c in zip(r_err, cosines):
                ang = angles_from_matrix(row_r)
                raw_rows.append([ang.alpha, ang.beta, ang.gamma, *row_c])
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
        return report, np.array(raw_rows)
    return report
