"""Haar-measure quadrature over the rotation group.

The grids integrate products D^j_{mr} conj(D^k_{ns}) times low-degree trig
factors exactly: Gauss-Legendre in cos(beta), uniform (trapezoidal) grids in
alpha and gamma. Normalization follows the Haar probability measure
sin(beta) d(alpha) d(beta) d(gamma) / 8 pi^2.

`coefficient_block` is the brute-force reference for any block pair of
transmission coefficients, and `coefficient_deviation` compares a whole
coefficient tensor against it: neither touches the closed forms it is used
to validate. On the product grid D^j_{mr} conj(D^k_{ns}) =
exp(i(m-n) alpha) d^j_{mr}(beta) d^k_{ns}(beta) exp(i(r-s) gamma), so the alpha
and gamma sums of f are one 2-D inverse DFT per beta node and only the beta
sum needs small-d, at the Gauss-Legendre nodes (the separation behind SO(3)
FFTs; Kostelec & Rockmore, J. Fourier Anal. Appl. 14, 145, 2008).

Of f's spectrum, a pass keeps only the (alpha, gamma) lags (P, Q) whose mass
sum_b |spectrum[P, b, Q]| exceeds ROUNDING_ULPS eps times the total mass, the
FFT's rounding floor: cos(beta) and f = 1 carry the lag (0, 0) alone,
(1 + cos beta) cos(alpha + gamma) the lags (+-1, +-1). Each kept lag fills one
diagonal m - n = p, r - s = q of a block for every p = P, q = Q (mod the node
count) with |p|, |q| <= j + k, so a block wider than the grid wraps its lags
as the node sum does; every other entry is an exact zero. Since
|d^j_{mr}| <= 1, a dropped lag moves an entry by at most
sqrt((2j+1)(2k+1)) times its mass, and each block comes with that bound for
the largest dropped mass, which `coefficient_deviation` and `povm_defect` add
to what they report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np
import numpy.fft
import numpy.polynomial.legendre

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


def _diagonal(j: int, k: int, p: int) -> tuple[slice, slice]:
    """Index slices (m + j, n + k) of block pair (j, k)'s entries with m - n = p, |p| <= j + k."""
    lo, hi = max(0, p + j - k), min(2 * j, p + j + k) + 1
    return slice(lo, hi), slice(lo + k - j - p, hi + k - j - p)


def coefficient_blocks(f, js, ks, grid: SO3Grid):
    """Yield (j, k, coefficient_block(f, j, k, grid), bound) for j in js, k in ks.

    f is evaluated once. bound is at least the largest change that the
    dropped lags would make to an entry of the block.
    """
    values = np.asarray(f(grid.alphas, grid.betas, grid.gammas))
    count = grid.alpha_count
    # spectrum[p, b, q] = sum over the alpha, gamma nodes of f * weight * exp(i(p alpha + q gamma))
    spectrum = np.fft.ifft2((grid.weights * values).reshape(count, -1, count),
                            axes=(0, 2), norm="forward")
    mass = np.abs(spectrum).sum(axis=1)
    kept = mass > ROUNDING_ULPS * np.finfo(float).eps * mass.sum()
    dropped = float(mass[~kept].max(initial=0.0))
    lags = [(P, Q, spectrum[P, :, Q]) for P, Q in zip(*np.nonzero(kept))]
    for j, k in product(js, ks):
        for jj in {j, k} - grid._d_cache.keys():  # small-d at the beta nodes, kept per grid
            grid._d_cache[jj] = small_d_matrix(jj, np.arccos([x for x, _ in grid.beta_nodes]))
        dj, dk = grid._d_cache[j], grid._d_cache[k]
        scale, reach = math.sqrt((2 * j + 1) * (2 * k + 1)), j + k
        block = np.zeros((2 * j + 1, 2 * j + 1, 2 * k + 1, 2 * k + 1), dtype=complex)
        for P, Q, lag in lags:
            # every p = P and q = Q (mod count) in -reach..reach
            for p in range((P + reach) % count - reach, reach + 1, count):
                for q in range((Q + reach) % count - reach, reach + 1, count):
                    (m, n), (r, s) = _diagonal(j, k, p), _diagonal(j, k, q)
                    # einsum's repeated-index output is a writeable view of the diagonal
                    np.einsum("mrmr->mr", block[m, r, n, s])[...] = scale * np.einsum(
                        "b,bmr,bmr->mr", lag, dj[:, m, r], dk[:, n, s])
        yield j, k, block, scale * dropped


def coefficient_block(f, j: int, k: int, grid: SO3Grid) -> np.ndarray:
    """All coefficients for the block pair (j, k) by brute-force quadrature.

    Returns c[m+j, r+j, n+k, s+k] = sqrt((2j+1)(2k+1)) *
    integral of D^j_{mr} conj(D^k_{ns}) f over the Haar measure.
    """
    return next(coefficient_blocks(f, [j], [k], grid))[2]


def coefficient_deviation(tensor, f, grid: SO3Grid) -> float:
    """Largest |coefficient_block(f) - tensor's block (j, k)| over every j, k <= tensor.j_max.

    Each block's value includes the bound on its dropped lags, so it is never
    below what the oracle would report keeping every lag. `tensor` needs only
    `j_max` and `nonzeros(j, k)`, the indices (m+j, r+j, n+k, s+k) and values
    of its nonzero coefficients in the layout of `coefficient_block`; those
    are subtracted from the oracle's block in place, so no dense tensor block
    is built, and blocks outside |j - k| <= 1 are compared as well.
    """
    worst = 0.0
    levels = range(tensor.j_max + 1)
    for j, k, block, bound in coefficient_blocks(f, levels, levels, grid):
        index, values = tensor.nonzeros(j, k)
        block[index] -= values
        worst = max(worst, float(np.max(np.abs(block))) + bound)
    return worst
