"""Rotation representations and geometry.

Jacobi polynomials, Wigner small-d and big-D matrix elements, classical zyz
rotation matrices, Euler-angle composition, and the per-axis error cosines
used to score frame transmission.

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
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# below this |sin(beta)|, angle extraction treats the rotation as gimbal-locked
# and folds the full z-rotation into alpha (gamma = 0)
GIMBAL_EPS = 1e-10


def _wrap_angle(x):
    """x modulo 2pi in [0, 2pi); tiny negative x, which rounds up to 2pi, maps to 0."""
    x = np.mod(x, TWO_PI)
    return x * (x < TWO_PI)


@dataclass(frozen=True)
class EulerAngles:
    """zyz Euler angles, normalized to alpha, gamma in [0, 2pi), beta in [0, pi].

    Out-of-range inputs are folded by 2pi-periodicity and the identity
    (alpha, -beta, gamma) == (alpha + pi, beta, gamma + pi).
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        a, b, g = float(self.alpha), float(self.beta), float(self.gamma)
        b = math.fmod(b, TWO_PI)
        if b < 0.0:
            b += TWO_PI
        if b > math.pi:
            b = TWO_PI - b
            a += math.pi
            g += math.pi
        object.__setattr__(self, "alpha", float(_wrap_angle(a)))
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", float(_wrap_angle(g)))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class RotationMatrix:
    """Proper orthogonal 3x3 matrix (R^T R = I, det R = +1, within 1e-12)."""

    r: np.ndarray

    def __post_init__(self):
        r = np.array(self.r, dtype=float)
        if r.shape != (3, 3):
            raise ValueError(f"rotation matrix must be 3x3, got {r.shape}")
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-12:
            raise ValueError("matrix is not orthogonal within 1e-12")
        if abs(np.linalg.det(r) - 1.0) > 1e-12:
            raise ValueError("matrix determinant is not +1 within 1e-12")
        r.flags.writeable = False
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class AngularIndex:
    """Basis label |j, m> with j >= 0 and |m| <= j."""

    j: int
    m: int

    def __post_init__(self):
        if self.j < 0 or abs(self.m) > self.j:
            raise ValueError(f"invalid angular index (j={self.j}, m={self.m})")


def jacobi_polynomial(k: int, a: int, b: int, x):
    """Jacobi polynomial P_k^{(a,b)}(x) by the three-term recurrence.

    Stable for the non-negative integer parameters used by the Wigner small-d
    elements; x may be a scalar or an ndarray.
    """
    if k < 0:
        raise ValueError("polynomial degree must be non-negative")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if k == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = (a + 1) + (a + b + 2) * (x - 1.0) / 2.0
    for deg in range(2, k + 1):
        c0 = 2.0 * deg * (deg + a + b) * (2 * deg + a + b - 2)
        c1 = (2 * deg + a + b - 1) * ((2 * deg + a + b) * (2 * deg + a + b - 2) * x + a * a - b * b)
        c2 = 2.0 * (deg + a - 1) * (deg + b - 1) * (2 * deg + a + b)
        p, p_prev = (c1 * p - c2 * p_prev) / c0, p
    return p if p.ndim else float(p)


def _check_indices(j: int, m: int, r: int) -> None:
    if j < 0 or abs(m) > j or abs(r) > j:
        raise ValueError(f"indices out of range for spin j={j}: m={m}, r={r}")


def small_d(j: int, m: int, r: int, beta):
    """Wigner small-d element d^j_{mr}(beta) = <j m| exp(-i beta J_y) |j r>.

    Evaluated through the Jacobi-polynomial form, which stays stable far
    beyond the factorial-ratio formula (target j <= 20). beta may be a scalar
    or an ndarray.
    """
    _check_indices(j, m, r)
    k = min(j + r, j - r, j + m, j - m)
    if k == j + r:
        a = m - r
        sign = -1.0 if (m - r) % 2 else 1.0
    elif k == j - r:
        a, sign = r - m, 1.0
    elif k == j + m:
        a, sign = r - m, 1.0
    else:
        a = m - r
        sign = -1.0 if (m - r) % 2 else 1.0
    b = 2 * (j - k) - a
    pref = sign * math.sqrt(math.comb(2 * j - k, k + a) / math.comb(k + b, b))
    beta = np.asarray(beta, dtype=float)
    half = beta / 2.0
    val = pref * np.sin(half) ** a * np.cos(half) ** b * jacobi_polynomial(k, a, b, np.cos(beta))
    return val if val.ndim else float(val)


def small_d_matrix(j: int, beta) -> np.ndarray:
    """Full small-d matrix, shape beta.shape + (2j+1, 2j+1), m and r ascending."""
    beta = np.asarray(beta, dtype=float)
    dim = 2 * j + 1
    out = np.empty(beta.shape + (dim, dim))
    for mi, m in enumerate(range(-j, j + 1)):
        for ri, r in enumerate(range(-j, j + 1)):
            out[..., mi, ri] = small_d(j, m, r, beta)
    return out


def small_d_fourier(j: int) -> np.ndarray:
    """Fourier coefficients c[mu, m, r] with d^j_{mr}(beta) = sum_mu c[mu, m, r] exp(-i mu beta).

    d^j(beta) is a trigonometric polynomial of degree j in beta (Risbo, J.
    Geodesy 70, 383, 1996), so its coefficients are exactly the discrete
    Fourier transform of small_d_matrix at 2j+1 equispaced beta in [0, 2pi).
    Indices mu, m, r ascend from -j to j.
    """
    dim = 2 * j + 1
    betas = TWO_PI * np.arange(dim) / dim
    fourier = np.exp(1j * np.outer(np.arange(-j, j + 1), betas)) / dim
    return np.einsum("up,pmr->umr", fourier, small_d_matrix(j, betas))


def big_d(j: int, m: int, r: int, angles: EulerAngles) -> complex:
    """Rotation matrix element exp(i(m*alpha + r*gamma)) d^j_{mr}(beta)."""
    _check_indices(j, m, r)
    return complex(
        np.exp(1j * (m * angles.alpha + r * angles.gamma)) * small_d(j, m, r, angles.beta)
    )


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


def rotation_matrix(angles: EulerAngles) -> RotationMatrix:
    """Classical orthogonal rotation matrix of the given Euler angles."""
    return RotationMatrix(rotation_matrix_components(angles.alpha, angles.beta, angles.gamma))


def angles_from_matrices(r) -> np.ndarray:
    """zyz Euler angles of rotation matrices, shape (..., 3, 3) -> (..., 3).

    The last axis holds (alpha, beta, gamma), normalized like EulerAngles. At
    gimbal lock (|sin beta| below GIMBAL_EPS) the representative with
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


def angles_from_matrix(r) -> EulerAngles:
    """Extract zyz Euler angles from one rotation matrix (see angles_from_matrices)."""
    r = r.r if isinstance(r, RotationMatrix) else r
    return EulerAngles(*angles_from_matrices(r).tolist())


def compose(first: EulerAngles, second: EulerAngles) -> EulerAngles:
    """Angles of the product rotation R(first) R(second)."""
    prod = rotation_matrix(first).r @ rotation_matrix(second).r
    return angles_from_matrix(prod)


def error_angles(true_rot: EulerAngles, estimate: EulerAngles) -> EulerAngles:
    """Angles of the discrepancy rotation R(true)^T R(estimate).

    These angles carry the estimated frame back by the true rotation, so they
    measure the estimation error independently of the true frame.
    """
    rel = rotation_matrix(true_rot).r.T @ rotation_matrix(estimate).r
    return angles_from_matrix(rel)


def axis_cosines(err: EulerAngles) -> tuple[float, float, float]:
    """Cosines of the per-axis errors: the diagonal of the rotation matrix.

    Their sum is 1 + 2 cos(Omega), with Omega the single-rotation angle
    carrying one frame into the other.
    """
    r = rotation_matrix_components(err.alpha, err.beta, err.gamma)
    return (float(r[0, 0]), float(r[1, 1]), float(r[2, 2]))
