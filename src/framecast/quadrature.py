"""Haar-measure quadrature over the rotation group.

The grids integrate products D^j_{mr} conj(D^k_{ns}) times low-degree trig
factors exactly: Gauss-Legendre in cos(beta), uniform (trapezoidal) grids in
alpha and gamma. Normalization follows the Haar probability measure
sin(beta) d(alpha) d(beta) d(gamma) / 8 pi^2.

`coefficient_block`, `coefficient_deviation` (a whole tensor against it) and
`resolution_defect` (rotated fiducial projectors against the identity) are
brute-force references that share nothing with the closed forms they check.
They read one pass, `lag_diagonals`, over all block pairs at once. As
D^j_{mr} conj(D^k_{ns}) = exp(i(m-n) alpha) d^j_{mr}(beta) d^k_{ns}(beta)
exp(i(r-s) gamma), the alpha and gamma sums of f are one 2-D inverse DFT per
beta node and only the beta sum needs small-d, at the Gauss-Legendre nodes
(Kostelec & Rockmore, J. Fourier Anal. Appl. 14, 145, 2008). The pass keeps
the lags (P, Q) whose mass sum_b |spectrum[P, b, Q]| exceeds ROUNDING_ULPS eps
times the total, the FFT's rounding floor: cos(beta) and f = 1 carry (0, 0)
alone, (1 + cos beta) cos(alpha + gamma) carries (+-1, +-1). Each kept lag
gives, for every p = P, q = Q (mod the node count) with |p|, |q| <= the
largest j + k, the diagonal m - n = p, r - s = q of every pair as one batched
matmul over the beta nodes of small-d stacked over j and zero-padded to the
widest block. So blocks wider than the grid wrap their lags as the node sum
does, and all other entries are exact zeros. As |d^j_{mr}| <= 1, a dropped
lag moves an entry of pair (j, k) by at most sqrt((2j+1)(2k+1)) times its
mass; each check adds that bound for the largest dropped mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np
import numpy.fft
import numpy.polynomial.legendre

from .basis import flat_index
from .so3 import small_d_matrix

TWO_PI = 2.0 * math.pi
# spectral lags below this many eps of the total mass are FFT rounding and are dropped
ROUNDING_ULPS = 64


@dataclass(frozen=True, eq=False)
class SO3Grid:
    """Product quadrature grid over Euler angles.

    beta_nodes holds (cos beta, weight) Gauss-Legendre pairs whose weights sum
    to 2; alpha and gamma share one uniform grid of alpha_count nodes on
    [0, 2pi). Flattened node arrays (alpha-major) and normalized weights
    (summing to 1) are precomputed, and small-d at the beta nodes is cached.
    """

    beta_nodes: tuple[tuple[float, float], ...]
    alpha_count: int
    alphas: np.ndarray = field(repr=False)
    betas: np.ndarray = field(repr=False)
    gammas: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    _d_cache: dict = field(default_factory=dict, repr=False)

    @property
    def node_count(self) -> int:
        return self.weights.size


def make_grid(j_max: int) -> SO3Grid:
    """Grid exact for all D^j conj(D^k) products with j, k <= j_max.

    Exactness margin covers extra trigonometric factors of total Fourier
    degree <= 2 (the transmission objectives).
    """
    if j_max < 0:
        raise ValueError("j_max must be non-negative")
    n_beta = 2 * j_max + 3
    n_az = 4 * j_max + 4
    x, w = np.polynomial.legendre.leggauss(n_beta)
    alphas = TWO_PI * np.arange(n_az) / n_az
    a_grid, b_grid, g_grid = np.meshgrid(alphas, np.arccos(x), alphas, indexing="ij")
    w_grid = np.broadcast_to((w / 2.0)[None, :, None], a_grid.shape) / (n_az * n_az)
    return SO3Grid(
        beta_nodes=tuple(zip(x.tolist(), w.tolist())),
        alpha_count=n_az,
        alphas=a_grid.ravel(),
        betas=b_grid.ravel(),
        gammas=g_grid.ravel(),
        weights=w_grid.ravel().copy(),
    )


def integrate(fn, grid: SO3Grid) -> complex:
    """Normalized Haar integral of fn(alpha, beta, gamma).

    fn must accept equal-length ndarrays of angles and return values
    broadcastable against them (a bare constant is fine).
    """
    vals = fn(grid.alphas, grid.betas, grid.gammas)
    return complex(np.sum(grid.weights * vals))


def lag_diagonals(f, js: range, ks: range, grid: SO3Grid):
    """One quadrature pass over every block pair (j, k), j in js, k in ks; f is evaluated once.

    Returns (bounds, diagonals): bounds[a, b] bounds the dropped lags' change
    to any entry of pair (js[a], ks[b]), and diagonals yields (p, q, values)
    per kept lag and wrap, with values[m + J, r + J, a, b] = entry (m + j,
    r + j, m - p + k, r - q + k) of that pair's coefficient_block (J the
    largest level, zero off the block). Every other diagonal is zero.
    """
    values = np.asarray(f(grid.alphas, grid.betas, grid.gammas))
    count = grid.alpha_count
    # spectrum[p, b, q] = sum over the alpha, gamma nodes of f * weight * exp(i(p alpha + q gamma))
    spectrum = np.fft.ifft2((grid.weights * values).reshape(count, -1, count),
                            axes=(0, 2), norm="forward")
    mass = np.abs(spectrum).sum(axis=1)
    kept = mass > ROUNDING_ULPS * np.finfo(float).eps * mass.sum()
    lags = [(P, Q, spectrum[P, :, Q].copy()) for P, Q in zip(*np.nonzero(kept))]
    top, reach = max(js[-1], ks[-1]), js[-1] + ks[-1]
    width = 2 * top + 1
    if top not in grid._d_cache:  # stack[m + top, r + top, j, node] = d^j_{mr}, kept per grid
        betas = np.arccos([x for x, _ in grid.beta_nodes])
        stack = grid._d_cache[top] = np.zeros((width, width, top + 1, betas.size))
        for j in range(top + 1):
            stack[top - j:top + j + 1, top - j:top + j + 1, j] = np.moveaxis(
                small_d_matrix(j, betas), 0, -1)
    stack = grid._d_cache[top]
    # [m, r, a, node] and [n, s, node, b]
    left, right = stack[:, :, js.start:js.stop], stack[:, :, ks.start:ks.stop].swapaxes(2, 3)
    scale = np.sqrt(np.outer(2 * np.asarray(js) + 1, 2 * np.asarray(ks) + 1))

    def overlap(p):  # the indices i and i - p that both lie in 0..width - 1
        return slice(max(p, 0), width + min(p, 0)), slice(max(-p, 0), width - max(p, 0))

    def diagonals():
        for P, Q, lag in lags:
            # every p = P and q = Q (mod count) in -reach..reach
            for p in range((P + reach) % count - reach, reach + 1, count):
                for q in range((Q + reach) % count - reach, reach + 1, count):
                    (m, n), (r, s) = overlap(p), overlap(q)
                    out = np.zeros((width, width) + scale.shape, dtype=complex)
                    # small-d is real, so the lag's real and imaginary parts go separately
                    for part, weights in ((out.real, lag.real), (out.imag, lag.imag)):
                        part[m, r] = (left[m, r] * weights) @ right[n, s]
                    out *= scale
                    yield p, q, out

    return scale * float(mass[~kept].max(initial=0.0)), diagonals()


def coefficient_block(f, j: int, k: int, grid: SO3Grid) -> np.ndarray:
    """All coefficients for the block pair (j, k) by brute-force quadrature.

    Returns c[m+j, r+j, n+k, s+k] = sqrt((2j+1)(2k+1)) *
    integral of D^j_{mr} conj(D^k_{ns}) f over the Haar measure.
    """
    m, r, n, s = np.ogrid[-j:j + 1, -j:j + 1, -k:k + 1, -k:k + 1]
    block = np.zeros((2 * j + 1, 2 * j + 1, 2 * k + 1, 2 * k + 1), dtype=complex)
    for p, q, values in lag_diagonals(f, range(j, j + 1), range(k, k + 1), grid)[1]:
        on = (m - n == p) & (r - s == q)
        block[on] = np.broadcast_to(values[m + max(j, k), r + max(j, k), 0, 0], on.shape)[on]
    return block


def coefficient_deviation(tensor, f, grid: SO3Grid) -> float:
    """Largest |coefficient_block(f) - tensor's block (j, k)| plus its bound, over j, k <= j_max.

    `tensor` needs only `j_max` and `nonzeros(j, k)`: the indices (m+j, r+j,
    n+k, s+k) and values of its nonzero coefficients. Each is subtracted from
    the pass's diagonal m - n, r - s, or counts in full where no kept lag
    reaches; no block is built, and pairs with |j - k| > 1 are compared too.
    """
    top = tensor.j_max
    levels = range(top + 1)
    bounds, diagonals = lag_diagonals(f, levels, levels, grid)
    pairs = list(product(levels, levels))
    found = [tensor.nonzeros(j, k) for j, k in pairs]
    j, k = np.repeat(pairs, [vals.size for _, vals in found], axis=0).T
    m, r, n, s = np.concatenate([index for index, _ in found], axis=1) - [j, j, k, k]
    values = np.concatenate([vals for _, vals in found])
    p, q, m, r = m - n, r - s, m + top, r + top
    worst, stray = np.zeros(bounds.shape), np.ones(values.size, dtype=bool)
    for lag_p, lag_q, diagonal in diagonals:
        on = (p == lag_p) & (q == lag_q)
        stray &= ~on
        diagonal[m[on], r[on], j[on], k[on]] -= values[on]
        np.maximum(worst, np.abs(diagonal).max(axis=(0, 1)), out=worst)
    # the oracle is exactly zero on diagonals no kept lag reaches
    np.maximum.at(worst, (j[stray], k[stray]), np.abs(values[stray]))
    return float(np.max(worst + bounds))


def resolution_defect(vec: np.ndarray, n: int, grid: SO3Grid) -> float:
    """Largest entry of the rotated projectors of raw fiducial amplitudes vec, minus the identity.

    Block (j, k) is sum_{r,s} c[m, r, n, s] vec_j[r] conj(vec_k[s]) over the
    coefficients c of f = 1, plus the bound times |vec_j|_1 |vec_k|_1.
    """
    if len(grid.beta_nodes) < 2 * (n - 1) + 3 or grid.alpha_count < 2 * (n - 1) + 1:
        raise ValueError(f"grid is not exact for n={n}; build it with make_grid({n - 1})")
    top, levels, ms = n - 1, np.arange(n)[:, None], np.arange(1 - n, n)
    bounds, diagonals = lag_diagonals(lambda a, b, g: 1.0, range(n), range(n), grid)
    inside = np.abs(ms) <= levels  # [j, m + top]
    padded = np.where(inside, vec[flat_index(levels, ms).clip(0, n * n - 1)], 0.0)
    # estimate[p + 2 top, m + top, j, k] is entry (m, m - p) of block (j, k); the
    # diagonal is zero where the roll wraps padded[k] around
    estimate = np.zeros((4 * top + 1, 2 * top + 1, n, n), dtype=complex)
    for p, q, diagonal in diagonals:
        estimate[p + 2 * top] += np.einsum("mrjk,jr,kr->mjk", diagonal, padded,
                                           np.roll(padded, q, axis=1).conj())
    estimate[2 * top] -= inside.T[:, :, None] * np.eye(n)
    norms = np.abs(padded).sum(axis=1)
    return float(np.max(np.abs(estimate).max(axis=(0, 1)) + bounds * np.outer(norms, norms)))
