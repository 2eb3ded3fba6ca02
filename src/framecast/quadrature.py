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

A pass over many block pairs reads every (m - n, r - s) lag from one small
periodic table, lags -R..R in both directions with R the largest j + k, each
taken modulo the grid's node count, so a block wider than the grid wraps its
lags as the node sum does. Each block's lags are a sliding-window view of
that table (m - n grows with m and falls with n, hence the reversed n, s
axes), so no per-block index array is gathered. When f's values are real,
the weights and f are real and the node sum of f D^k_{ns} conj(D^j_{mr}) is
the complex conjugate of that of f D^j_{mr} conj(D^k_{ns}); a j > k block is
then the conjugate transpose of the (k, j) block integrated earlier in the
same pass. A complex f integrates every block directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np
import numpy.fft
import numpy.polynomial.legendre
from numpy.lib.stride_tricks import sliding_window_view

from .so3 import small_d_matrix

TWO_PI = 2.0 * math.pi


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


def coefficient_blocks(f, js, ks, grid: SO3Grid):
    """Yield (j, k, coefficient_block(f, j, k, grid)) for j in js, k in ks, evaluating f once."""
    values = np.asarray(f(grid.alphas, grid.betas, grid.gammas))
    count = grid.alpha_count
    # spectrum[p, b, q] = sum over the alpha, gamma nodes of f * weight * exp(i(p alpha + q gamma))
    spectrum = np.fft.ifft2((grid.weights * values).reshape(count, -1, count),
                            axes=(0, 2), norm="forward")
    pairs = list(product(js, ks))
    reach = max((j + k for j, k in pairs), default=0)
    lags = np.arange(-reach, reach + 1)
    # periodic[p + reach, q + reach, b] = spectrum[p mod A, b, q mod A]: wide lags wrap
    periodic = spectrum.transpose(0, 2, 1)[np.ix_(lags % count, lags % count)]
    # a real f's j < k blocks whose (k, j) mirror is wanted too; each is kept until that is yielded
    mirrored = {(k, j) for j, k in pairs if j > k} if np.isrealobj(values) else set()
    kept = {}
    for j, k in pairs:
        if (k, j) in kept:
            yield j, k, kept.pop((k, j)).transpose(2, 3, 0, 1).conj()
            continue
        for jj in {j, k} - grid._d_cache.keys():  # small-d at the beta nodes, kept per grid
            grid._d_cache[jj] = small_d_matrix(jj, np.arccos([x for x, _ in grid.beta_nodes]))
        # window[m+j, r+j, b, k-n, k-s] = periodic[m - n + reach, r - s + reach, b], a strided view
        lo, hi = reach - j - k, reach + j + k + 1
        window = sliding_window_view(periodic[lo:hi, lo:hi], (2 * k + 1, 2 * k + 1), axis=(0, 1))
        block = math.sqrt((2 * j + 1) * (2 * k + 1)) * np.einsum(
            "mrbns,bmr,bns->mrns", window[..., ::-1, ::-1], grid._d_cache[j], grid._d_cache[k])
        if (j, k) in mirrored:
            kept[j, k] = block
        yield j, k, block


def coefficient_block(f, j: int, k: int, grid: SO3Grid) -> np.ndarray:
    """All coefficients for the block pair (j, k) by brute-force quadrature.

    Returns c[m+j, r+j, n+k, s+k] = sqrt((2j+1)(2k+1)) *
    integral of D^j_{mr} conj(D^k_{ns}) f over the Haar measure.
    """
    return next(coefficient_blocks(f, [j], [k], grid))[2]


def coefficient_deviation(tensor, f, grid: SO3Grid) -> float:
    """Largest |coefficient_block(f) - tensor.block(j, k)| over every j, k <= tensor.j_max.

    `tensor` needs only `j_max` and a dense `block(j, k)` in the layout of
    `coefficient_block`; blocks outside |j - k| <= 1 are compared as well.
    """
    worst = 0.0
    levels = range(tensor.j_max + 1)
    for j, k, block in coefficient_blocks(f, levels, levels, grid):
        worst = max(worst, float(np.max(np.abs(block - tensor.block(j, k)))))
    return worst

