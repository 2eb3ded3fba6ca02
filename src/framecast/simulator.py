"""Covariant-measurement simulation and consistency checks.

The detector fiducial vector, rotated over the whole group with per-block
weights sqrt(2j+1), resolves the identity; `povm_defect` verifies that on a
quadrature grid (`quadrature.resolution_defect`, the coefficients of f = 1
contracted with b_j and conj(b_k)).
Measurement outcomes follow the density |<A| U(true)^dagger U(outcome) |B>|^2
relative to the Haar measure. Since U(true)^dagger U(outcome) = U(error) for
the discrepancy rotation error = R(true)^T R(outcome), the statistics depend
on the true rotation only through the error rotation, and densities are
scored at its zyz angles. The weighted amplitude P = <A|U(alpha, beta, gamma)|B>
is one 3-D trigonometric polynomial, built once per state pair from the
Fourier coefficients of the small-d matrices.

The exact sampler keeps P's coefficients only on the pair's support
(`_support_layout`): a slot (m, r) is kept when some block has
conj(a_j[m]) b_j[r] != 0, and only exact zeros are dropped, with no floor on
small amplitudes. r runs over the range of its kept slots and each r keeps
the window of m covering its own, every window padded to the widest, so a
full-support pair keeps the whole cube and the stretched xyz optimum one
slot per r.

The error rotation is drawn exactly, by the chain rule beta -> alpha | beta
-> gamma | alpha, beta (Devroye, Non-Uniform Random Variate Generation, 1986,
ch. 11): every marginal and conditional of |P|^2 is a trigonometric
polynomial in one angle whose coefficients are autocorrelations of P's
coefficients, so each angle inverts a closed-form CDF, three uniforms per
sample and no proposal wasted (acceptance_rate 1). A density of lag 0 alone
is flat, its angle u times the range (alpha on any span-1 layout). Every
other inversion tabulates its CDF at CDF_CELLS + 1 equispaced nodes and
starts Newton inside the bracketing cell (Hormann & Leydold, ACM TOMACS 13,
347, 2003). The beta marginal, shared by every sample, is inverted once per
chunk; alpha and gamma per block of BLOCK_ROWS rows, fewer where the layout
would pass BLOCK_ELEMENTS complex numbers. Each chunk logs its block rows, Newton sweeps, throughput and
layout size at DEBUG level. Because of covariance this path draws no true
rotation. Rejection sampling of Haar-uniform proposals under the envelope n^2
(`_sample_chunk`, monte_carlo_error(rejection=True)) stays as the independent
oracle: it composes true rotations and proposals with `so3.error_angles`,
which the exact sampler never calls, and scores the dense (2n-1)^3 polynomial
(`_amplitude_polynomial`), never the support layout. Both samplers return
error angles.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
import numpy.random

from .basis import block_slice
from .objective import AliceState, FiducialState
from .quadrature import SO3Grid, resolution_defect
from .so3 import _wrap_angle, error_angles, rotation_matrix_components, small_d_fourier

log = logging.getLogger(__name__)

DEFAULT_CHUNK = 16384
# rows scored per block by the rejection oracle; a row holds (2n-1)^2 complex numbers
SCORE_ROWS = 256
# an exact-sampler row block holds BLOCK_ROWS rows, fewer where span x kept x rows would pass
# BLOCK_ELEMENTS complex numbers; longer blocks gain little and raise the peak memory
BLOCK_ROWS = 512
BLOCK_ELEMENTS = 2**18
# CDF inversion stops once |F(x) - u F(upper)| <= CDF_TOL F(upper) on every row
CDF_TOL = 1e-12
CDF_MAX_ITER = 100
# every CDF inversion starts from a table of F at CDF_CELLS + 1 equispaced nodes;
# sampling time is flat from 16 to 64 cells at n = 5 to 20
CDF_CELLS = 32
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


def povm_defect(b: FiducialState, grid: SO3Grid) -> float:
    """Largest entry of (integral of rotated fiducial projectors) minus identity, plus its bound.

    For per-block normalized amplitudes the integral is exactly the identity;
    a block with squared norm p instead contributes p on its diagonal, so the
    defect localizes normalization violations.
    """
    return resolution_defect(b.b, b.n, grid)


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


class _SupportLayout(NamedTuple):
    """The amplitude polynomial's coefficients on its sheared (m, r) support layout.

    coef[mu, k, r - r0] = H[mu, m0[r - r0] + k, r] of _amplitude_polynomial,
    for the kept r = r0, r0 + 1, ... and the window k = 0..span-1 of each.
    """

    coef: np.ndarray
    m0: np.ndarray
    r0: int


def _support_layout(a_vec: np.ndarray, b_vec: np.ndarray, n: int) -> _SupportLayout:
    """The coefficients of _amplitude_polynomial on the slots that can be nonzero.

    A slot (m, r) is kept when some block has conj(a_j[m]) b_j[r] != 0; only
    exact zeros are dropped, so every cube entry outside the layout is
    exactly zero. r runs over the range its kept slots cover, and each r
    keeps the window m = m0(r) + k, k < span, covering its kept slots, every
    window padded to the widest. A full-support pair has constant m0 and its
    layout is the cube. Only the kept slots' small_d_fourier columns are
    built, never a (2j+1)^3 cube, and the products and block sums run in
    _amplitude_polynomial's order. Valid states keep at least one slot.
    """
    slots = [np.nonzero(a_vec[block_slice(j)].conj()[:, None] * b_vec[block_slice(j)])
             for j in range(n)]
    ms = np.concatenate([m - j for j, (m, _) in enumerate(slots)])
    rs = np.concatenate([r - j for j, (_, r) in enumerate(slots)])
    r0 = int(rs.min())
    lo, hi = np.full(rs.max() - r0 + 1, n), np.full(rs.max() - r0 + 1, -n)
    np.minimum.at(lo, rs - r0, ms)
    np.maximum.at(hi, rs - r0, ms)
    # an r without kept slots holds zeros; its window start only has to be some m
    m0 = np.where(lo > hi, lo.min(), lo)
    coef = np.zeros((2 * n - 1, int((hi - lo).max()) + 1, lo.size), dtype=complex)
    for j, (m, r) in enumerate(slots):
        a_j, b_j = a_vec[block_slice(j)].conj(), b_vec[block_slice(j)]
        coef[n - 1 - j:n + j, m - j - m0[r - j - r0], r - j - r0] += (
            math.sqrt(2 * j + 1) * small_d_fourier(j, m, r) * a_j[m] * b_j[r])
    return _SupportLayout(coef, m0, r0)


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


def _outcome_amplitudes(poly: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Weighted amplitudes <A|U(E_t)|B> at the zyz angles of error rotations, rows t of angles."""
    width = poly.shape[0]
    half = (width + 1) // 2
    out = np.empty(angles.shape[0], dtype=complex)
    for lo in range(0, angles.shape[0], SCORE_ROWS):
        rows = slice(lo, lo + SCORE_ROWS)
        phases = _phases(angles[rows], half - 1)
        by_m_r = (phases[:, 1].conj() @ poly.reshape(width, -1)).reshape(-1, width, width)
        out[rows] = np.einsum("tm,tm->t", phases[:, 0], (by_m_r @ phases[:, 2, :, None])[..., 0])
    return out


def outcome_density(a: AliceState, b: FiducialState, true_angles, meas_angles) -> np.ndarray:
    """Probability density of outcomes relative to the Haar measure.

    true_angles and meas_angles are (..., 3) zyz arrays that broadcast
    together; the densities come back in their broadcast leading shape. The
    density depends on the rotations only through the discrepancy rotation,
    integrates to one, and is bounded by n^2.
    """
    if a.n != b.n:
        raise ValueError("state dimensions differ")
    errors = error_angles(*np.broadcast_arrays(np.asarray(true_angles, float),
                                               np.asarray(meas_angles, float)))
    amp = _outcome_amplitudes(_amplitude_polynomial(a.a, b.b, a.n), errors.reshape(-1, 3))
    return (np.abs(amp) ** 2).reshape(errors.shape[:-1])


def _haar_angles(rng: np.random.Generator, count: int) -> np.ndarray:
    """count Haar-uniform zyz angle rows, drawn as alphas, then cos(betas), then gammas."""
    return np.stack([rng.uniform(0.0, 2.0 * math.pi, count),
                     np.arccos(rng.uniform(-1.0, 1.0, count)),
                     rng.uniform(0.0, 2.0 * math.pi, count)], axis=1)


def _sample_chunk(poly: np.ndarray, n: int, count: int, rng: np.random.Generator,
                  true_rotation) -> tuple[np.ndarray, int]:
    """Error angles of `count` rejection-sampled outcomes, and the proposals spent.

    True rotations are Haar-uniform unless true_rotation, a zyz triple, fixes
    them. Raises ValueError if a proposal's density exceeds the envelope n^2,
    which a pair of valid states never reaches.
    """
    true_angles = (_haar_angles(rng, count) if true_rotation is None
                   else np.broadcast_to(np.asarray(true_rotation, float), (count, 3)))
    envelope = float(n * n)
    out = np.empty((count, 3))
    pending = np.arange(count)
    proposals = 0
    while pending.size:
        k = pending.size
        errors = error_angles(true_angles[pending], _haar_angles(rng, k))
        u = rng.uniform(0.0, 1.0, k)
        density = np.abs(_outcome_amplitudes(poly, errors)) ** 2
        peak = float(np.max(density))
        if peak > envelope * (1.0 + 1e-9):
            raise ValueError(f"outcome density {peak!r} exceeds the rejection envelope "
                             f"n^2 = {envelope:g}")
        proposals += k
        accepted = u * envelope <= density
        out[pending[accepted]] = errors[accepted]
        pending = pending[~accepted]
    return out, proposals


def _autocorrelation(x: np.ndarray) -> np.ndarray:
    """s[t, k] = sum over i, q of x[t, i, q + k] conj(x[t, i, q]), lags k < w of the last axis.

    Direct shifted products, one per lag: no (w, w) outer product is built.
    """
    width = x.shape[-1]
    conj = x.conj()
    return np.stack([np.einsum("tiq,tiq->t", x[..., k:], conj[..., :width - k])
                     for k in range(width)], axis=1)


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
    """CDF from 0 and density at x, both rows of terms summed by Horner's rule in exp(i x).

    terms is one row of _cdf_terms per x, or one row that every x shares.
    """
    z = np.exp(1j * x)[..., None]
    sums = np.zeros(np.shape(x) + (2,), dtype=complex)
    for k in range(terms.shape[-1] - 1, -1, -1):
        sums *= z
        sums += terms[..., k]
    head = terms[..., 0, 0].real
    return head * x + 2.0 * sums[..., 1].real, 2.0 * sums[..., 0].real - head


def _invert_cdf(coef: np.ndarray, upper: float, u: np.ndarray,
                sweeps: list | None = None) -> np.ndarray:
    """x in [0, upper] with F(x) = u F(upper) per row, F the CDF of the coef rows (_cdf_terms).

    coef holds one row of lags per u, or a single 1-D row that every u
    shares. F is tabulated at CDF_CELLS + 1 equispaced nodes; each row starts
    at the linear interpolate inside the cell whose tabulated values straddle
    u F(upper), and its bracket [lo, hi] is that cell widened by one cell on
    each side. Invariant: F(lo) <= u F(upper) <= F(hi) up to the rounding of
    the table, so a Newton step outside (lo, hi) is replaced by bisection,
    which alone would converge. Steps run until the residual is at most
    CDF_TOL F(upper) on every row; raises ValueError on a row that has not
    converged after CDF_MAX_ITER steps. If `sweeps` is a list, the number of
    Newton sweeps (_trig_cdf calls on the open rows) is appended to it: 0
    for rows of lag 0 alone, whose F(x) = coef[0] x gives x = u upper.
    """
    if coef.shape[-1] == 1:
        if sweeps is not None:
            sweeps.append(0)
        return u * upper
    shared = coef.ndim == 1
    nodes = np.linspace(0.0, upper, CDF_CELLS + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = _cdf_terms(coef)
        # F at the nodes by a stack of one-row products, so that a row's table
        # does not depend on the number of rows; Re(c exp(i k x)) is the real
        # dot product of (Re c, Im c) with (cos k x, -sin k x)
        rows = terms.reshape(-1, 2, terms.shape[-1])
        trig = np.ascontiguousarray(_powers(nodes, terms.shape[-1] - 1).conj().view(float).T)
        sums = rows[:, None, 1].view(float) @ trig
        table = rows[:, 0, 0].real[:, None] * nodes + 2.0 * sums[:, 0]
        total = np.broadcast_to(table[:, -1], u.shape)
        target = u * total
        cell = np.clip(np.count_nonzero(table <= target[:, None], axis=-1) - 1,
                       0, CDF_CELLS - 1)
        f_lo, f_hi = np.take_along_axis(table, cell[:, None] + [0, 1], axis=-1).T
        # a flat cell gives a NaN start, which the first step turns into bisection
        left, right = nodes[cell], nodes[cell + 1]
        x = left + np.clip((target - f_lo) / (f_hi - f_lo), 0.0, 1.0) * (right - left)
        lo = nodes[np.maximum(cell - 1, 0)]
        hi = nodes[np.minimum(cell + 2, CDF_CELLS)]
        active = np.arange(u.size)
        for step_count in range(1, CDF_MAX_ITER + 1):
            cdf, density = _trig_cdf(terms if shared else terms[active], x[active])
            resid = cdf - target[active]
            open_rows = ~(np.abs(resid) <= CDF_TOL * total[active])
            active, resid, density = active[open_rows], resid[open_rows], density[open_rows]
            if not active.size:
                if sweeps is not None:
                    sweeps.append(step_count)
                return x
            here = x[active]
            lo[active] = low = np.where(resid < 0.0, here, lo[active])
            hi[active] = high = np.where(resid > 0.0, here, hi[active])
            step = here - resid / density
            x[active] = np.where((step > low) & (step < high), step, 0.5 * (low + high))
    raise ValueError(f"CDF inversion left {active.size} rows unconverged after "
                     f"{CDF_MAX_ITER} steps (coefficients not a valid density?)")


def _beta_marginal(poly: np.ndarray) -> np.ndarray:
    """Lag coefficients of the beta marginal (sin(beta) / 2) g(beta) on [0, pi].

    g(beta) = sum_{m,r} |sum_mu H[mu, m, r] exp(-i mu beta)|^2 is the alpha,
    gamma average of |P|^2; its lags are the autocorrelation of conj(H) along
    mu, summed over the slots, and sin(beta) / 2 shifts them by one. poly
    holds H with mu on its first axis, on any slots that include every
    nonzero one (the support layout's coef). Raises ValueError unless the
    marginal integrates to one.
    """
    g_lags = _autocorrelation(poly.reshape(poly.shape[0], -1).T.conj()[None])[0]
    full = np.concatenate([g_lags[:0:-1].conj(), g_lags])
    shifted = (np.pad(full, (2, 0)) - np.pad(full, (0, 2))) / 4j
    coef = shifted[g_lags.size:]
    total, _ = _trig_cdf(_cdf_terms(coef), np.array(math.pi))
    if not abs(total - 1.0) <= DENSITY_NORM_TOL:
        raise ValueError(f"outcome density integrates to {float(total)!r}, not 1")
    return coef


def _sample_errors(layout: _SupportLayout, beta_coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Error-rotation angles (alpha, beta, gamma), one row per row (u_beta, u_alpha, u_gamma) of u.

    beta follows the marginal every row shares, so all rows invert it in one
    call. Then per block of BLOCK_ROWS rows, or BLOCK_ELEMENTS // (span kept)
    if fewer, on the support layout: G[r, k] = sum_mu exp(-i mu beta)
    coef[mu, k, r] is one matmul; the alpha | beta density is
    sum_r |sum_k G[r, k] exp(i k alpha)|^2, since each r's window shift m0(r)
    is a unimodular phase there, so its lags are the autocorrelations of G's
    rows, summed over r; the gamma | alpha, beta density is
    |sum_r F_r exp(i r gamma)|^2 with F_r = exp(i m0(r) alpha)
    sum_k G[r, k] exp(i k alpha), up to a phase common to every r, so its
    lags are F's autocorrelation. A block holds O(rows span kept) elements. A
    span-1 layout gives alpha lag 0 alone: alpha is uniform, drawn in closed
    form. Logs one DEBUG record with the rows, the block rows, the Newton
    sweeps per angle, the throughput and the layout's kept r's x span out of
    the cube's (2n-1)^2 (m, r) slots.
    """
    start = time.perf_counter()
    width, span, kept = layout.coef.shape
    degree = (width - 1) // 2
    flat = layout.coef.transpose(0, 2, 1).reshape(width, -1)
    shift = layout.m0 - layout.m0.min()
    reach = max(span - 1, int(shift.max()))
    out = np.empty((u.shape[0], 3))
    sweeps = {"beta": [], "alpha": [], "gamma": []}
    out[:, 1] = _invert_cdf(beta_coef, math.pi, u[:, 0], sweeps["beta"])
    block = max(1, min(BLOCK_ROWS, BLOCK_ELEMENTS // (span * kept)))
    for lo in range(0, u.shape[0], block):
        rows = slice(lo, lo + block)
        betas = out[rows, 1]
        g_rows = (_phases(betas, degree).conj() @ flat).reshape(-1, kept, span)
        alphas = _invert_cdf(_autocorrelation(g_rows), 2.0 * math.pi, u[rows, 1], sweeps["alpha"])
        powers = _powers(alphas, reach)
        f_rows = np.einsum("tk,trk->tr", powers[:, :span], g_rows) * powers[:, shift]
        gammas = _invert_cdf(_autocorrelation(f_rows[:, None]), 2.0 * math.pi, u[rows, 2],
                             sweeps["gamma"])
        out[rows, 0] = _wrap_angle(alphas)
        out[rows, 2] = _wrap_angle(gammas)
    elapsed = time.perf_counter() - start
    log.debug("exact chunk: %d rows, blocks of %d, Newton sweeps beta %d alpha %d gamma %d, "
              "%.0f samples/s, layout %d x %d of %d slots",
              u.shape[0], block, sum(sweeps["beta"]), sum(sweeps["alpha"]), sum(sweeps["gamma"]),
              u.shape[0] / elapsed, kept, span, width * width)
    return out


def monte_carlo_error(
    a: AliceState,
    b: FiducialState,
    samples: int,
    seed: int,
    true_rotation=None,
    chunk_size: int = DEFAULT_CHUNK,
    keep_samples: bool = False,
    rejection: bool = False,
):
    """Simulate the full transmission and average the per-axis error cosines.

    By default error rotations are drawn exactly (`_sample_errors`); the
    measurement is covariant, so no true rotation is drawn and true_rotation
    has no effect. With rejection=True, true rotations are drawn Haar-uniformly
    unless true_rotation fixes one as a zyz triple (alpha, beta, gamma), and
    outcomes are rejection-sampled (`_sample_chunk`), the independent oracle
    of the exact path. Chunks use independent child streams of the master
    seed, so results do not depend on chunk scheduling. With
    keep_samples=True, also returns an array of rows (alpha, beta, gamma,
    cos_x, cos_y, cos_z) of the error rotation per sample.
    """
    if a.n != b.n:
        raise ValueError("state dimensions differ")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = a.n
    if rejection:
        poly = _amplitude_polynomial(a.a, b.b, n)
    else:
        layout = _support_layout(a.a, b.b, n)
        beta_coef = _beta_marginal(layout.coef)
    starts = list(range(0, samples, chunk_size))
    streams = np.random.SeedSequence(seed).spawn(len(starts))
    cos_rows = []
    raw_rows = []
    total_proposals = 0
    for start, stream in zip(starts, streams):
        count = min(chunk_size, samples - start)
        rng = np.random.default_rng(stream)
        if rejection:
            angles, proposals = _sample_chunk(poly, n, count, rng, true_rotation)
        else:
            angles, proposals = _sample_errors(layout, beta_coef, rng.random((count, 3))), count
        r_err = rotation_matrix_components(*angles.T)
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
