"""Haar-measure quadrature over the rotation group.

The grids integrate products D^j_{mr} conj(D^k_{ns}) times low-degree trig
factors exactly: Gauss-Legendre in cos(beta), uniform (trapezoidal) grids in
alpha and gamma. Normalization follows the Haar probability measure
sin(beta) d(alpha) d(beta) d(gamma) / 8 pi^2.

`coefficient_oracle` and `coefficient_block` are the brute-force reference
for any transmission coefficient, and `coefficient_deviation` compares a
whole coefficient tensor against them: they never touch the closed forms
they are used to validate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .so3 import big_d_matrix

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class SO3Grid:
    """Product quadrature grid over Euler angles.

    beta_nodes holds (cos beta, weight) Gauss-Legendre pairs whose weights sum
    to 2; alpha and gamma are uniform grids on [0, 2pi). Flattened node arrays
    and normalized weights (summing to 1) are precomputed.
    """

    beta_nodes: tuple[tuple[float, float], ...]
    alpha_count: int
    gamma_count: int
    alphas: np.ndarray = field(repr=False)
    betas: np.ndarray = field(repr=False)
    gammas: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    _d_cache: dict = field(default_factory=dict, repr=False)

    @property
    def node_count(self) -> int:
        return self.weights.size


def make_grid(j_max: int, oversample: int = 0) -> SO3Grid:
    """Grid exact for all D^j conj(D^k) products with j, k <= j_max.

    Exactness margin covers extra trigonometric factors of total Fourier
    degree <= 2 (the transmission objectives). `oversample` adds nodes in
    every direction, for plateau checks.
    """
    if j_max < 0:
        raise ValueError("j_max must be non-negative")
    n_beta = 2 * j_max + 3 + oversample
    n_az = 4 * j_max + 4 + 2 * oversample
    x, w = np.polynomial.legendre.leggauss(n_beta)
    alphas = TWO_PI * np.arange(n_az) / n_az
    gammas = TWO_PI * np.arange(n_az) / n_az
    a_grid, b_grid, g_grid = np.meshgrid(alphas, np.arccos(x), gammas, indexing="ij")
    w_grid = np.broadcast_to((w / 2.0)[None, :, None], a_grid.shape) / (n_az * n_az)
    return SO3Grid(
        beta_nodes=tuple(zip(x.tolist(), w.tolist())),
        alpha_count=n_az,
        gamma_count=n_az,
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


def big_d_on_grid(grid: SO3Grid, j: int) -> np.ndarray:
    """D^j at every grid node, shape (nodes, 2j+1, 2j+1); cached per grid."""
    if j not in grid._d_cache:
        grid._d_cache[j] = big_d_matrix(j, grid.alphas, grid.betas, grid.gammas)
    return grid._d_cache[j]


def coefficient_block(f, j: int, k: int, grid: SO3Grid) -> np.ndarray:
    """All coefficients for the block pair (j, k) by brute-force quadrature.

    Returns c[m+j, r+j, n+k, s+k] = sqrt((2j+1)(2k+1)) *
    integral of D^j_{mr} conj(D^k_{ns}) f over the Haar measure.
    """
    dj, dk = 2 * j + 1, 2 * k + 1
    fvals = np.broadcast_to(np.asarray(f(grid.alphas, grid.betas, grid.gammas)), grid.weights.shape)
    dmat_j = big_d_on_grid(grid, j).reshape(grid.node_count, dj * dj)
    dmat_k = big_d_on_grid(grid, k).reshape(grid.node_count, dk * dk)
    block = (dmat_j * (grid.weights * fvals)[:, None]).T @ dmat_k.conj()
    block *= math.sqrt((2 * j + 1) * (2 * k + 1))
    return block.reshape(dj, dj, dk, dk)


def coefficient_deviation(tensor, f, grid: SO3Grid) -> float:
    """Largest |coefficient_block(f) - tensor| over every block pair j, k <= tensor.j_max.

    `tensor` is a SparseCoefficientTensor; each of its (j, k) blocks is
    scattered into a dense array, absent keys counting as zero, so blocks
    outside |j - k| <= 1 are compared as well.
    """
    keys = np.array(list(tensor.entries), dtype=int).reshape(-1, 6)
    vals = np.array(list(tensor.entries.values()), dtype=complex)
    worst = 0.0
    for j in range(tensor.j_max + 1):
        for k in range(tensor.j_max + 1):
            mine = (keys[:, 0] == j) & (keys[:, 1] == k)
            _, _, m, n, r, s = keys[mine].T
            dense = np.zeros((2 * j + 1, 2 * j + 1, 2 * k + 1, 2 * k + 1), dtype=complex)
            dense[m + j, r + j, n + k, s + k] = vals[mine]
            worst = max(worst, float(np.max(np.abs(coefficient_block(f, j, k, grid) - dense))))
    return worst


def coefficient_oracle(f, j: int, k: int, m: int, n: int, r: int, s: int, grid: SO3Grid) -> complex:
    """One transmission coefficient by brute-force quadrature.

    With f == 1 the result is delta_{jk} delta_{mn} delta_{rs}: the
    sqrt((2j+1)(2k+1)) factor restores the per-block weights of the fiducial
    vector so that total probability integrates to one.
    """
    if abs(m) > j or abs(r) > j or abs(n) > k or abs(s) > k:
        raise ValueError("magnetic indices out of range")
    dmat_j = big_d_on_grid(grid, j)
    dmat_k = big_d_on_grid(grid, k)
    fvals = np.asarray(f(grid.alphas, grid.betas, grid.gammas))
    integrand = dmat_j[:, m + j, r + j] * np.conj(dmat_k[:, n + k, s + k]) * fvals
    return complex(math.sqrt((2 * j + 1) * (2 * k + 1)) * np.sum(grid.weights * integrand))
