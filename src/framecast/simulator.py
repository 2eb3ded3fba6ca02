"""Covariant-measurement simulation and consistency checks.

The detector fiducial vector, rotated over the whole group with per-block
weights sqrt(2j+1), resolves the identity; `povm_defect` verifies that on a
quadrature grid, block (j, k) being the quadrature coefficient block of f = 1
contracted with b_j and conj(b_k), so no D^j is built at the grid nodes.
Measurement outcomes follow the density |<A| U(true)^dagger U(outcome) |B>|^2
relative to the Haar measure. Since U(true)^dagger U(outcome) = U(error) for
the discrepancy rotation error = R(true)^T R(outcome) (`so3.error_matrices`),
the statistics depend on the true rotation only through the error rotation.
The weighted amplitude P = <A|U(alpha, beta, gamma)|B> is one 3-D
trigonometric polynomial, built once per state pair from the Fourier
coefficients of the small-d matrices.

The error rotation is drawn exactly, by the chain rule beta -> alpha | beta
-> gamma | alpha, beta (Devroye, Non-Uniform Random Variate Generation, 1986,
ch. 11): every marginal and conditional of |P|^2 is a trigonometric
polynomial in one angle whose coefficients are lag sums of P's coefficients,
so each angle inverts a closed-form CDF, three uniforms per sample and no
proposal wasted (acceptance_rate 1). Because of covariance this path draws
no true rotation. Rejection sampling of Haar-uniform proposals under the
envelope n^2 (`_sample_chunk`, monte_carlo_error(rejection=True)) stays as
the independent oracle of the exact sampler.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .basis import block_slice, total_dim
from .objective import AliceState, FiducialState
from .quadrature import SO3Grid, coefficient_blocks
from .so3 import (
    EulerAngles,
    _wrap_angle,
    angles_from_matrices,
    error_matrices,
    rotation_matrix_components,
    small_d_fourier,
)

DEFAULT_CHUNK = 16384
# rows scored or sampled per block; each holds a (2n-1)^2 complex row
SCORE_ROWS = 256
# CDF inversion stops once |F(x) - u F(upper)| <= CDF_TOL F(upper) on every row
CDF_TOL = 1e-12
CDF_MAX_ITER = 100
# the outcome density of valid states integrates to one; beyond this, stop
DENSITY_NORM_TOL = 1e-9


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


def _powers(x: np.ndarray, degree: int) -> np.ndarray:
    """exp(i k x) for k = 0..degree along a new last axis, as running products."""
    powers = np.empty(np.shape(x) + (degree + 1,), dtype=complex)
    powers[..., 0] = 1.0
    powers[..., 1:] = np.exp(1j * x)[..., None]
    np.cumprod(powers, axis=-1, out=powers)
    return powers


def _phases(x: np.ndarray, degree: int) -> np.ndarray:
    """exp(i k x) for k = -degree..degree along a new last axis (k < 0 by conjugation)."""
    powers = _powers(x, degree)
    return np.concatenate([powers[..., :0:-1].conj(), powers], axis=-1)


def _outcome_amplitudes(poly: np.ndarray, r_true: np.ndarray, r_meas: np.ndarray) -> np.ndarray:
    """Weighted amplitudes <U(T_t)A|U(M_t)B> = <A|U(T_t^T M_t)|B> for rotation matrix rows t."""
    width = poly.shape[0]
    half = (width + 1) // 2
    angles = angles_from_matrices(error_matrices(r_true, r_meas))
    out = np.empty(angles.shape[0], dtype=complex)
    for lo in range(0, angles.shape[0], SCORE_ROWS):
        rows = slice(lo, lo + SCORE_ROWS)
        phases = _phases(angles[rows], half - 1)
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


def _rejection_errors(poly: np.ndarray, n: int, count: int, rng: np.random.Generator,
                      true_rotation: EulerAngles | None) -> tuple[np.ndarray, int]:
    """Error rotation matrices of `count` rejection-sampled outcomes, and the proposals spent.

    True rotations are Haar-uniform unless true_rotation fixes them.
    """
    if true_rotation is None:
        t_alpha = rng.uniform(0.0, 2.0 * math.pi, count)
        t_beta = np.arccos(rng.uniform(-1.0, 1.0, count))
        t_gamma = rng.uniform(0.0, 2.0 * math.pi, count)
    else:
        t_alpha, t_beta, t_gamma = (np.full(count, x) for x in true_rotation.as_tuple())
    r_true = rotation_matrix_components(t_alpha, t_beta, t_gamma)
    meas, proposals = _sample_chunk(poly, r_true, n, rng)
    r_meas = rotation_matrix_components(meas[:, 0], meas[:, 1], meas[:, 2])
    return error_matrices(r_true, r_meas), proposals


@functools.lru_cache(maxsize=None)
def _lag_index(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices p * width + q with p - q = k >= 0, grouped by lag k, and group starts."""
    order = np.concatenate([np.arange(k, width) * (width + 1) - k for k in range(width)])
    starts = np.cumsum([0] + [width - k for k in range(width - 1)])
    order.flags.writeable = starts.flags.writeable = False
    return order, starts


def _lag_sums(outer: np.ndarray) -> np.ndarray:
    """s[..., k] = sum of outer[..., p, q] over p - q = k, for lags k = 0..w-1."""
    order, starts = _lag_index(outer.shape[-1])
    flat = outer.reshape(outer.shape[:-2] + (-1,))
    return np.add.reduceat(flat[..., order], starts, axis=-1)


def _cdf_terms(coef: np.ndarray) -> np.ndarray:
    """Per-row terms of f(x) = sum_k coef[k] exp(i k x) and its integral from 0, for _trig_cdf.

    coef[..., k] holds lags k = 0..K; lag -k is conj(coef[..., k]), so f is
    real. Row 0 is coef; row 1 holds coef[k] / (i k), the integral of
    exp(i k x) being (exp(i k x) - 1) / (i k), with minus their sum at k = 0.
    """
    integral = np.zeros(coef.shape, dtype=complex)
    integral[..., 1:] = coef[..., 1:] / (1j * np.arange(1, coef.shape[-1]))
    integral[..., 0] = -integral[..., 1:].sum(axis=-1)
    return np.stack([coef, integral], axis=-2)


def _trig_cdf(terms: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CDF from 0 and density at x, one row of _cdf_terms each, over running powers of exp(i x)."""
    sums = np.einsum("...k,...ck->...c", _powers(x, terms.shape[-1] - 1), terms)
    head = terms[..., 0, 0].real
    return head * x + 2.0 * sums[..., 1].real, 2.0 * sums[..., 0].real - head


def _invert_cdf(coef: np.ndarray, upper: float, u: np.ndarray) -> np.ndarray:
    """x in [0, upper] with F(x) = u F(upper) per row, F the CDF of the coef rows (_cdf_terms).

    Newton steps on F, kept inside a bisection bracket, until the residual is
    at most CDF_TOL F(upper) on every row; raises ValueError on a row that has
    not converged after CDF_MAX_ITER steps.
    """
    lo, hi = np.zeros(u.shape), np.full(u.shape, upper)
    x = u * upper
    active = np.arange(u.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.broadcast_to(_cdf_terms(coef), u.shape + (2,) + coef.shape[-1:])
        total, _ = _trig_cdf(terms, hi)
        target = u * total
        for _ in range(CDF_MAX_ITER):
            cdf, density = _trig_cdf(terms[active], x[active])
            resid = cdf - target[active]
            open_rows = ~(np.abs(resid) <= CDF_TOL * total[active])
            active, resid, density = active[open_rows], resid[open_rows], density[open_rows]
            if not active.size:
                return x
            here = x[active]
            lo[active] = np.where(resid < 0.0, here, lo[active])
            hi[active] = np.where(resid > 0.0, here, hi[active])
            step = here - resid / density
            inside = (step > lo[active]) & (step < hi[active])
            x[active] = np.where(inside, step, 0.5 * (lo[active] + hi[active]))
    raise ValueError(f"CDF inversion left {active.size} rows unconverged after "
                     f"{CDF_MAX_ITER} steps (coefficients not a valid density?)")


def _beta_marginal(poly: np.ndarray) -> np.ndarray:
    """Lag coefficients of the beta marginal (sin(beta) / 2) g(beta) on [0, pi].

    g(beta) = sum_{m,r} |sum_mu H[mu, m, r] exp(-i mu beta)|^2 is the alpha,
    gamma average of |P|^2; its lags are the diagonal sums of
    Q = conj(H_flat) H_flat^T over mu, and sin(beta) / 2 shifts them by one.
    Raises ValueError unless the marginal integrates to one.
    """
    flat = poly.reshape(poly.shape[0], -1).conj()
    g_lags = _lag_sums(flat @ flat.conj().T)
    full = np.concatenate([g_lags[:0:-1].conj(), g_lags])
    shifted = (np.pad(full, (2, 0)) - np.pad(full, (0, 2))) / 4j
    coef = shifted[g_lags.size:]
    total, _ = _trig_cdf(_cdf_terms(coef), np.array(math.pi))
    if not abs(total - 1.0) <= DENSITY_NORM_TOL:
        raise ValueError(f"outcome density integrates to {float(total)!r}, not 1")
    return coef


def _sample_errors(poly: np.ndarray, beta_coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Error-rotation angles (alpha, beta, gamma), one row per row (u_beta, u_alpha, u_gamma) of u.

    Per block of SCORE_ROWS rows: G[m, r] = sum_mu exp(-i mu beta) H[mu, m, r]
    is one matmul, the lags of G G^dagger give the alpha | beta density, and
    the autocorrelation of F_r = sum_m G[m, r] exp(i m alpha) the gamma | alpha,
    beta density.
    """
    width = poly.shape[0]
    degree = (width - 1) // 2
    flat = poly.reshape(width, -1)
    out = np.empty((u.shape[0], 3))
    for lo in range(0, u.shape[0], SCORE_ROWS):
        rows = slice(lo, lo + SCORE_ROWS)
        betas = _invert_cdf(beta_coef, math.pi, u[rows, 0])
        g_rows = (_phases(betas, degree).conj() @ flat).reshape(-1, width, width)
        alphas = _invert_cdf(_lag_sums(g_rows @ g_rows.conj().swapaxes(1, 2)),
                             2.0 * math.pi, u[rows, 1])
        f_rows = np.einsum("tm,tmr->tr", _phases(alphas, degree), g_rows)
        gammas = _invert_cdf(_lag_sums(f_rows[:, :, None] * f_rows.conj()[:, None, :]),
                             2.0 * math.pi, u[rows, 2])
        out[rows] = np.stack([_wrap_angle(alphas), betas, _wrap_angle(gammas)], axis=1)
    return out


def sample_outcome(a: AliceState, b: FiducialState, true_rot: EulerAngles,
                   rng_seed: int) -> EulerAngles:
    """One measurement outcome R(true) R(error), deterministic for a fixed seed."""
    if a.n != b.n:
        raise ValueError("state dimensions differ")
    poly = _amplitude_polynomial(a.a, b.b, a.n)
    u = np.random.default_rng(rng_seed).random((1, 3))
    error = _sample_errors(poly, _beta_marginal(poly), u)[0]
    r_true = rotation_matrix_components(*true_rot.as_tuple())
    outcome = r_true @ rotation_matrix_components(*error)
    return EulerAngles(*angles_from_matrices(outcome).tolist())


def monte_carlo_error(
    a: AliceState,
    b: FiducialState,
    samples: int,
    seed: int,
    true_rotation: EulerAngles | None = None,
    chunk_size: int = DEFAULT_CHUNK,
    keep_samples: bool = False,
    rejection: bool = False,
):
    """Simulate the full transmission and average the per-axis error cosines.

    By default error rotations are drawn exactly (`_sample_errors`); the
    measurement is covariant, so no true rotation is drawn and true_rotation
    has no effect. With rejection=True, true rotations are drawn Haar-uniformly
    unless a fixed one is given, and outcomes are rejection-sampled
    (`_sample_chunk`), the independent oracle of the exact path. Chunks use
    independent child streams of the master seed, so results do not depend
    on chunk scheduling. With keep_samples=True, also returns an array of rows
    (alpha, beta, gamma, cos_x, cos_y, cos_z) of the error rotation per sample.
    """
    if a.n != b.n:
        raise ValueError("state dimensions differ")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = a.n
    poly = _amplitude_polynomial(a.a, b.b, n)
    beta_coef = None if rejection else _beta_marginal(poly)
    starts = list(range(0, samples, chunk_size))
    streams = np.random.SeedSequence(seed).spawn(len(starts))
    cos_rows = []
    raw_rows = []
    total_proposals = 0
    for start, stream in zip(starts, streams):
        count = min(chunk_size, samples - start)
        rng = np.random.default_rng(stream)
        if rejection:
            r_err, proposals = _rejection_errors(poly, n, count, rng, true_rotation)
            angles = angles_from_matrices(r_err) if keep_samples else None
        else:
            angles = _sample_errors(poly, beta_coef, rng.random((count, 3)))
            r_err, proposals = rotation_matrix_components(*angles.T), count
        total_proposals += proposals
        cosines = np.stack([r_err[:, 0, 0], r_err[:, 1, 1], r_err[:, 2, 2]], axis=1)
        cos_rows.append(cosines)
        if keep_samples:
            raw_rows.append(np.concatenate([angles, cosines], axis=1))
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
