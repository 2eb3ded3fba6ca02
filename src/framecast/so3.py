"""Rotation representations and geometry.

Wigner small-d and big-D matrices from one cached diagonalization of J_y
per spin, classical zyz rotation matrices, angle extraction, and the error
rotation R(true)^T R(estimate) whose diagonal holds the per-axis error
cosines used to score frame transmission. Every rotation function is
batched: angles and matrices carry any leading shape, a single rotation
having the empty one. Angles are plain arrays, as separate alpha, beta,
gamma arguments or one (..., 3) zyz array; no class wraps them, since every
consumer turns them into a matrix at once.

Conventions
-----------
Euler angles are zyz: a rotation is R_z(alpha) R_y(beta) R_z(gamma), and the
unitary representative on spin j has matrix elements

    D^j_{mr}(alpha, beta, gamma) = exp(i(m*alpha + r*gamma)) d^j_{mr}(beta),

with the real small-d matrix d^j_{mr}(beta) = <j m| exp(-i beta J_y) |j r>.
Under these choices the diagonal of the classical matrix gives the cosines of
the per-axis errors: R_zz = cos(beta) and R_xx + R_yy =
(1 + cos(beta)) cos(alpha + gamma).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# below this |sin(beta)|, angle extraction treats the rotation as gimbal-locked
# and folds the full z-rotation into alpha (gamma = 0)
GIMBAL_EPS = 1e-10


def _wrap_angle(x):
    """x modulo 2pi in [0, 2pi); tiny negative x, which rounds up to 2pi, maps to 0."""
    x = np.mod(x, TWO_PI)
    return x * (x < TWO_PI)


@lru_cache(maxsize=8)  # every j of a level n <= 8; larger levels are read once per pair or grid
def _jy_eigenvectors(j: int) -> np.ndarray:
    """Eigenvectors v_mu of J_y on spin j as read-only columns, mu ascending from -j to j.

    J_y has the exact eigenvalues mu = -j..j, which eigh returns in ascending
    order. Only the projectors v_mu v_mu^H are used, and they do not depend on
    the phase eigh gives each eigenvector. The cache holds (2j+1)^2 numbers per j.
    """
    ms = np.arange(-j, j)
    below = -0.5j * np.sqrt(j * (j + 1) - ms * (ms + 1))  # <m+1| J_y |m>
    _, vecs = np.linalg.eigh(np.diag(below, -1) + np.diag(below.conj(), 1))
    vecs.flags.writeable = False
    return vecs


def small_d_fourier(j: int, m=None, r=None) -> np.ndarray:
    """Fourier coefficients c[mu, m, r] with d^j_{mr}(beta) = sum_mu c[mu, m, r] exp(-i mu beta).

    d^j(beta) = exp(-i beta J_y) is a trigonometric polynomial of degree j in
    beta (Risbo, J. Geodesy 70, 383, 1996), and its coefficients are the J_y
    eigenprojectors c[mu] = v_mu v_mu^H (exact diagonalization: Feng, Wang,
    Yang & Jin, PRE 92, 043307, 2015). Indices mu, m, r ascend from -j to j.
    Given equal-length index arrays m and r (offsets m + j, r + j), only the
    columns c[:, m[k], r[k]] are computed, shape (2j+1, len(m)).
    """
    vecs = _jy_eigenvectors(j).T
    if m is None:
        return vecs[:, :, None] * vecs.conj()[:, None, :]
    return vecs[:, m] * vecs[:, r].conj()


def small_d_matrix(j: int, beta) -> np.ndarray:
    """Full small-d matrix, shape beta.shape + (2j+1, 2j+1), m and r ascending.

    Evaluated as I + Re sum_mu (exp(-i mu beta) - 1) c[mu] over the
    small_d_fourier coefficients, which sum to I: at beta = 0 every term is
    exactly zero, so the identity comes out exactly.
    """
    phases = np.expm1(-1j * np.asarray(beta, dtype=float)[..., None] * np.arange(-j, j + 1))
    return np.tensordot(phases, small_d_fourier(j), axes=1).real + np.eye(2 * j + 1)


def big_d_matrix(j: int, alpha, beta, gamma) -> np.ndarray:
    """Full D^j matrix over broadcast angle arrays, shape (..., 2j+1, 2j+1)."""
    alpha, beta, gamma = np.broadcast_arrays(
        np.asarray(alpha, float), np.asarray(beta, float), np.asarray(gamma, float)
    )
    ms = np.arange(-j, j + 1)
    d = small_d_matrix(j, beta)
    phase_m = np.exp(1j * alpha[..., None] * ms)
    phase_r = np.exp(1j * gamma[..., None] * ms)
    return phase_m[..., :, None] * d * phase_r[..., None, :]


def rotation_matrix_components(alpha, beta, gamma) -> np.ndarray:
    """zyz rotation matrices R_z(alpha) R_y(beta) R_z(gamma), shape (..., 3, 3)."""
    alpha, beta, gamma = np.broadcast_arrays(
        np.asarray(alpha, float), np.asarray(beta, float), np.asarray(gamma, float)
    )
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    out = np.empty(alpha.shape + (3, 3))
    out[..., 0, 0] = ca * cb * cg - sa * sg
    out[..., 0, 1] = -ca * cb * sg - sa * cg
    out[..., 0, 2] = ca * sb
    out[..., 1, 0] = sa * cb * cg + ca * sg
    out[..., 1, 1] = -sa * cb * sg + ca * cg
    out[..., 1, 2] = sa * sb
    out[..., 2, 0] = -sb * cg
    out[..., 2, 1] = sb * sg
    out[..., 2, 2] = cb
    return out


def angles_from_matrices(r) -> np.ndarray:
    """zyz Euler angles of rotation matrices, shape (..., 3, 3) -> (..., 3).

    The last axis holds (alpha, beta, gamma), with alpha, gamma in [0, 2pi)
    and beta in [0, pi]. At gimbal lock (|sin beta| below GIMBAL_EPS) the representative with
    gamma = 0 is returned, the full z-rotation folded into alpha.
    """
    r = np.asarray(r, dtype=float)
    sb = np.hypot(r[..., 0, 2], r[..., 1, 2])
    locked = sb < GIMBAL_EPS
    up = r[..., 2, 2] > 0.0
    alpha = np.where(
        locked,
        np.where(up, np.arctan2(r[..., 1, 0], r[..., 0, 0]),
                 np.arctan2(-r[..., 0, 1], -r[..., 0, 0])),
        np.arctan2(r[..., 1, 2], r[..., 0, 2]),
    )
    beta = np.where(locked, np.where(up, 0.0, math.pi), np.arctan2(sb, r[..., 2, 2]))
    gamma = np.where(locked, 0.0, np.arctan2(r[..., 2, 1], -r[..., 2, 0]))
    return np.stack([_wrap_angle(alpha), beta, _wrap_angle(gamma)], axis=-1)


def error_matrices(r_true, r_est) -> np.ndarray:
    """Discrepancy rotations R(true)^T R(estimate), batched over leading axes.

    They carry the estimated frame back by the true rotation, so they measure
    the estimation error independently of the true frame. Their diagonal
    holds the per-axis error cosines, whose sum is 1 + 2 cos(Omega), Omega the
    single-rotation angle carrying one frame into the other.
    """
    return np.swapaxes(r_true, -1, -2) @ r_est


def error_angles(true_angles, est_angles) -> np.ndarray:
    """zyz angles of the error rotations, (..., 3) angle arrays -> (..., 3).

    The angles of error_matrices, extracted and normalized like
    angles_from_matrices.
    """
    r_true = rotation_matrix_components(*np.moveaxis(true_angles, -1, 0))
    r_est = rotation_matrix_components(*np.moveaxis(est_angles, -1, 0))
    return angles_from_matrices(error_matrices(r_true, r_est))
