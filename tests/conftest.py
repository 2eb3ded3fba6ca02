"""Shared fixtures and independent oracles for the test suite."""

import math
import weakref

import numpy as np
import pytest

from framecast import FiducialState, fixed_point_optimize, flat_index


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


def jacobi_small_d(j: int, m: int, r: int, beta):
    """Wigner small-d element d^j_{mr}(beta) = <j m| exp(-i beta J_y) |j r> (tests only).

    Evaluated element by element through the Jacobi-polynomial form, which
    shares no code with the eigenprojector route of framecast.so3 and stays
    stable far beyond the factorial-ratio formula. beta may be a scalar or an
    ndarray, on all of the real line.
    """
    if j < 0 or abs(m) > j or abs(r) > j:
        raise ValueError(f"indices out of range for spin j={j}: m={m}, r={r}")
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


def jacobi_small_d_matrix(j: int, beta) -> np.ndarray:
    """Small-d matrix from jacobi_small_d, shape beta.shape + (2j+1, 2j+1), m and r ascending."""
    beta = np.asarray(beta, dtype=float)
    dim = 2 * j + 1
    out = np.empty(beta.shape + (dim, dim))
    for mi, m in enumerate(range(-j, j + 1)):
        for ri, r in enumerate(range(-j, j + 1)):
            out[..., mi, ri] = jacobi_small_d(j, m, r, beta)
    return out


_ENTRY_INDEX = weakref.WeakKeyDictionary()  # per tensor: the flat indices of every entry


def entry_matrix(tensor, b) -> np.ndarray:
    """Dense reference M for flat fiducial amplitudes b (tests only).

    np.add.at of f_{jkmnrs} b_{jr} conj(b_{ks}) over every entry of
    `tensor.entries`, symmetrized. The entries are checked against group
    quadrature, and this sum shares no code with `operator` or `expectation`.
    """
    if tensor not in _ENTRY_INDEX:
        j, k, m, n, r, s = np.array(list(tensor.entries), dtype=np.intp).reshape(-1, 6).T
        vals = np.array(list(tensor.entries.values()), dtype=complex)
        _ENTRY_INDEX[tensor] = (flat_index(j, m), flat_index(k, n),
                                flat_index(j, r), flat_index(k, s), vals)
    row, col, left, right, vals = _ENTRY_INDEX[tensor]
    mat = np.zeros((b.size, b.size), dtype=complex)
    np.add.at(mat, (row, col), vals * b[left] * np.conj(b[right]))
    return 0.5 * (mat + mat.conj().T)


def entry_expectation(tensor, a, b) -> float:
    """<a|M|a> for the reference M = entry_matrix(tensor, b), a and b flat."""
    return float(np.vdot(a, entry_matrix(tensor, b) @ a).real)


def loop_best_of_restarts(tensor, n, restarts, seed):
    """The fixed-point loop's best over symmetry starts and seeded random starts (tests only).

    The loop's evidence for a closed sector's pair, which `best_of_restarts`
    takes in its place: only `fixed_point_optimize` runs. The deterministic
    starts follow c's symmetry: the stretched state b_j = |j, j> alone for an
    isotropic c, the uniform and then the stretched state for any other c
    that weights the xy plane, the uniform state alone for a z-only c. The
    random starts are `best_of_restarts`' (child streams of
    SeedSequence((seed, n))), and so is the tie rule: a later start wins only
    by more than 1e-12 units of c's largest weight.
    """
    c_hat = tensor.c_hat
    if np.array_equal(c_hat, c_hat[0, 0] * np.eye(3)):
        starts = [FiducialState.stretched(n)]
    elif (c_hat[0, 0] + c_hat[2, 2]).real > 0:
        starts = [None, FiducialState.stretched(n)]
    else:
        starts = [None]
    streams = np.random.SeedSequence((seed, n)).spawn(restarts)
    starts += [FiducialState.random(n, np.random.default_rng(stream)) for stream in streams]
    best = None
    for start in starts:
        candidate = fixed_point_optimize(tensor, n, start)
        if best is None or candidate.lam > best.lam + 1e-12 * tensor.weight:
            best = candidate
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
