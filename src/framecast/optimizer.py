"""Alternating eigenvalue optimization of the sender/fiducial state pair.

One round: build the objective matrix M for the current fiducial amplitudes
(`SparseCoefficientTensor.operator`, the package's only form of M, never a
d x d array), take the top Ritz pair of a Lanczos basis as the sender
state, then renormalize it per block to get the next fiducial state. Round
1's basis (WIDE_KRYLOV_DIM vectors) starts at the fiducial amplitudes,
later ones at the previous sender state, so the trajectory never decreases.
The loop stops at a joint fixed point once an inertia count over the j
blocks proves the Ritz pair within the stopping rule of the top eigenpair
(`_certified`).

A derivative-free direct search over unconstrained amplitudes (small n only)
serves as an independent cross-check, the exact single-m z optimum reads its
tridiagonal sector from the same operator, and sweeps over n feed the
asymptotic power-law fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random

from .basis import block_norms, block_slice, flat_index, total_dim
from .coefficients import Objective, SparseCoefficientTensor, cached_tensor
from .objective import AliceState, FiducialState, fidelity_report

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200

# a trajectory decrease beyond this signals a broken quadratic form, not noise
DECREASE_ABORT = 1e-9

# Lanczos basis size of the warm rounds after the first
KRYLOV_DIM = 6

# Lanczos basis size of round 1, started at the fiducial amplitudes, and of the
# certificate's second pass, run when a round's own Ritz pair cannot pass the
# inertia count: both need the top pair from a start far from it
WIDE_KRYLOV_DIM = 24

# the certificate's gap g and its pivot floor are at least CERT_ULPS d eps
# ||M||_inf, far above the rounding error of the block elimination
CERT_ULPS = 1e3


@dataclass(frozen=True)
class OptimizationResult:
    """Best state pair found, its objective value, and the convergence record."""

    a: AliceState
    b: FiducialState
    lam: float
    lambda_trajectory: tuple
    iterations: int
    converged: bool

    def to_json(self) -> dict:
        return {
            "n": self.a.n,
            "lambda": self.lam,
            "iterations": self.iterations,
            "converged": self.converged,
            "lambda_trajectory": list(self.lambda_trajectory),
            "alice": self.a.to_json(),
            "fiducial": self.b.to_json(),
        }


@dataclass(frozen=True)
class SweepRow:
    """One level size in a sweep: n, d = n^2, objective value, per-axis error."""

    n: int
    d: int
    lam: float
    mse_per_axis: float
    converged: bool

    def __post_init__(self):
        if self.d != self.n * self.n:
            raise ValueError("d must equal n^2")


def _gauge_fixed(vec: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude component is real positive."""
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot]
    if abs(phase) == 0.0:
        return vec
    return vec * (np.conj(phase) / abs(phase))


def _norm(vec: np.ndarray) -> float:
    """Euclidean norm of a vector; one BLAS dot, without np.linalg.norm's temporaries."""
    return math.sqrt(np.vdot(vec, vec).real)


def _top_eigh(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a dense Hermitian matrix and a phase-gauged unit eigenvector."""
    w, v = np.linalg.eigh(mat)
    return float(w[-1]), _gauge_fixed(v[:, -1])


def _ritz_step(op, start: np.ndarray,
               krylov_dim: int = KRYLOV_DIM) -> tuple[float, np.ndarray, float]:
    """Top Ritz pair and second Ritz value of a Lanczos basis of up to krylov_dim vectors.

    op is M as anything with `op @ x`; the basis starts at `start`. Every new
    vector is orthogonalized twice against the whole basis (full
    reorthogonalization); the basis stops early when the Krylov space closes.
    `start` lies in the basis, so the top Ritz value is at least its Rayleigh
    quotient and at most the top eigenvalue. The second Ritz value is at most
    the second eigenvalue (Cauchy interlacing), -inf when the basis closes at
    one vector.
    """
    # rows are the basis vectors; their conjugates give V^H w as one product
    basis = np.empty((min(krylov_dim, start.size), start.size), dtype=complex)
    conj_basis = np.empty_like(basis)
    images = np.empty_like(basis)
    basis[0] = start / _norm(start)
    size = 1
    while True:
        np.conjugate(basis[size - 1], out=conj_basis[size - 1])
        images[size - 1] = op @ basis[size - 1]
        if size == len(basis):
            break
        vec = images[size - 1]
        for _ in range(2):
            kept = _norm(vec)
            vec = vec - (conj_basis[:size] @ vec) @ basis[:size]
        nrm = _norm(vec)
        # twice is enough (Kahan-Parlett): if the second pass still removes
        # more than a 1/sqrt(2) share, the vector lies in the span and the space closed
        if not nrm > kept / math.sqrt(2):
            break
        basis[size] = vec / nrm
        size += 1
    h = conj_basis[:size] @ images[:size].T
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    vec = v[:, -1] @ basis[:size]
    second = float(w[-2]) if size > 1 else -math.inf
    return float(w[-1]), _gauge_fixed(vec / _norm(vec)), second


def _close(lam: float, vec: np.ndarray, lam_ref: float, vec_ref: np.ndarray, tol: float) -> bool:
    """Whether two eigenpair estimates agree within the fixed-point stopping rule.

    The states are compared after aligning their global phase, which the
    fixed-point map ignores: when two components tie for the gauge pivot,
    rounding alone decides which one `_gauge_fixed` makes real.
    """
    overlap = np.vdot(vec, vec_ref)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return bool(abs(lam - lam_ref) < tol and _norm(phase * vec - vec_ref) < math.sqrt(tol))


def _eigenvalues_above(op, sigma: float, floor: float) -> int | None:
    """How many eigenvalues of M exceed sigma, by block elimination; None when unsure.

    B = sigma I - M is block tridiagonal in j, with Schur complements S_0 = B_00
    and S_j = B_jj - (T^H / w) T, where S_{j-1} = V diag(w) V^H (`eigh`) and
    T = V^H M_{j-1,j}. By Sylvester's law of inertia and Haynsworth's inertia
    additivity (Linear Algebra Appl. 1, 73, 1968) M has as many eigenvalues
    above sigma as the S_j have negative ones.

    Floor: the computed S_j are exact for sigma I - M', M - M' block diagonal
    with block j a modest multiple of (2j + 1) eps (e_{j-1} + e_j) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, chs. 3 and 11),
    where e_j = |sigma| + max |w_j| + sum_i ||t_i||^2 / |w_{j,i}| (t_i the rows
    of T) bounds S_j, its update and M_jj; by Weyl's theorem no eigenvalue
    moves further. Nothing bounds e_j a priori, so the count is refused when
    (2j + 1) eps e_j > floor / 8, keeping ||M - M'|| below floor, or when a
    pivot |w| < floor, so that no sign rests on rounding.
    """
    count, update, eps = 0, 0.0, np.finfo(float).eps
    for diagonal, upper in op.blocks():
        schur = -diagonal - update
        schur.flat[:: len(schur) + 1] += sigma
        w, v = np.linalg.eigh(schur)  # ascending
        magnitudes, t = np.abs(w), v.conj().T @ upper
        bound = abs(sigma) + max(-w[0], w[-1]) + np.vdot(t, t / magnitudes[:, None]).real
        if magnitudes.min() < floor or len(w) * eps * bound > floor / 8:
            return None
        count += int(np.searchsorted(w, 0.0))
        update = t.conj().T @ (t / w[:, None])
    return count


def _certified(op, lam: float, vec: np.ndarray, second: float,
               tol: float) -> tuple[float, np.ndarray] | None:
    """A Ritz pair that an inertia count proves close to M's top eigenpair, or None.

    For the Ritz pair (rho, v) = (lam, vec) with residual r = ||M v - rho v||,
    let F = CERT_ULPS d eps ||M||_inf and g = max(2 r / sqrt(tol), F). Exactly
    one eigenvalue above sigma = rho - g - F (`_eigenvalues_above`, whose
    rounding F covers) proves lambda_2(M) < rho - g. Then (Parlett, The
    Symmetric Eigenvalue Problem, 1998) Kato-Temple gives
    0 <= lambda_1 - rho <= r^2 / g, required below tol, and the sin theta
    bound gives sin angle(v, u_1) <= r / g <= sqrt(tol) / 2: the stopping
    rule of `_close`, proven against the top eigenpair.

    By interlacing the count exceeds one when the second Ritz value
    `second` >= sigma, and a few-vector basis's often lies far below
    lambda_2; so the round's pair is tested only when second < rho - 2 g - F,
    and otherwise the pair of one longer Lanczos pass from v (WIDE_KRYLOV_DIM
    vectors). A degenerate top eigenvalue, or a Krylov space that missed u_1,
    gives None.
    """
    scale = op.norm_inf
    if scale == 0.0:  # M = 0 (n = 1): every unit vector is a top eigenvector
        return lam, vec
    floor = CERT_ULPS * vec.size * np.finfo(float).eps * scale

    def provable_gap(lam, vec):
        r = _norm(op @ vec - lam * vec)
        gap = max(2.0 * r / math.sqrt(tol), floor)
        return gap if r * r < tol * gap else None

    gap = provable_gap(lam, vec)
    if gap is None or second >= lam - 2.0 * gap - floor:
        lam, vec, second = _ritz_step(op, vec, WIDE_KRYLOV_DIM)
        gap = provable_gap(lam, vec)
        if gap is None or second >= lam - gap - floor:
            return None
    return (lam, vec) if _eigenvalues_above(op, lam - gap - floor, floor) == 1 else None


def b_from_a(a: AliceState) -> FiducialState:
    """Per-block renormalized copy of the sender amplitudes.

    Blocks with no weight (norm below 1e-14) get the uniform vector and go in
    uniform_filled_blocks; the fixed-point relation leaves them free.
    """
    vec, filled = _unit_blocks(a.a, a.n)
    return FiducialState(a.n, vec, uniform_filled_blocks=filled)


def _unit_blocks(vec: np.ndarray, n: int) -> tuple[np.ndarray, tuple]:
    """vec unit-normalized per block, and the blocks below 1e-14 that are set uniform instead."""
    sizes = 2 * np.arange(n) + 1
    norms = block_norms(vec, n)
    empty = norms < 1e-14
    if not empty.any():
        return vec / np.repeat(norms, sizes), ()
    return (np.where(np.repeat(empty, sizes), FiducialState.uniform(n).b,
                     vec / np.repeat(np.where(empty, 1.0, norms), sizes)),
            tuple(int(j) for j in np.flatnonzero(empty)))


def _initial_fiducial(init, n: int, rng: np.random.Generator) -> FiducialState:
    if isinstance(init, FiducialState):
        if init.n != n:
            raise ValueError("initial fiducial state has wrong n")
        return init
    if init == "uniform":
        return FiducialState.uniform(n)
    if init == "random":
        return FiducialState.random(n, rng)
    raise ValueError(f"unknown init {init!r}")


def _round(tensor: SparseCoefficientTensor, bvec: np.ndarray, a_prev: np.ndarray | None,
           lam_prev: float | None, tol: float) -> tuple[float, np.ndarray, bool]:
    """One round at fiducial amplitudes bvec: the round's pair and whether the loop converged.

    Round 1 (no a_prev) is the wide Lanczos pass from bvec, later rounds the
    warm pass from a_prev, certified once they look converged.
    """
    op = tensor.operator(bvec)
    if a_prev is None:
        return *_ritz_step(op, bvec, WIDE_KRYLOV_DIM)[:2], False
    lam, vec, second = _ritz_step(op, a_prev)
    certified = _close(lam, vec, lam_prev, a_prev, tol) and _certified(op, lam, vec, second, tol)
    return (*certified, True) if certified else (lam, vec, False)


def fixed_point_optimize(
    tensor: SparseCoefficientTensor,
    n: int,
    init="uniform",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int | np.random.SeedSequence | None = None,
) -> OptimizationResult:
    """Alternate eigenvector extraction and per-block renormalization.

    A round whose objective value moves by less than tol and whose sender
    state, up to its global phase, moves by less than sqrt(tol) stops the
    loop if its certificate proves the Ritz pair within the same tolerances
    of the top eigenpair (`_round`); without one the loop runs to max_iter and
    reports converged=False. A decrease of the trajectory beyond 1e-9 aborts:
    the quadratic form must make that impossible. The returned states are
    built and validated once.
    """
    if not tol > 0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter >= 1")
    if tensor.j_max != n - 1:
        raise ValueError(f"tensor j_max={tensor.j_max} does not match state n={n}")
    bvec = _initial_fiducial(init, n, np.random.default_rng(seed)).b
    lam_prev = a_prev = None
    trajectory, converged, iterations = [], False, 0
    for iterations in range(1, max_iter + 1):
        lam, vec, converged = _round(tensor, bvec, a_prev, lam_prev, tol)
        if lam_prev is not None and lam < lam_prev - DECREASE_ABORT:
            raise RuntimeError(
                f"objective decreased from {lam_prev!r} to {lam!r} at iteration "
                f"{iterations}; trajectory: {trajectory + [lam]}"
            )
        trajectory.append(lam)
        a_prev, lam_prev = vec, lam
        bvec = _unit_blocks(vec, n)[0]
        if converged:
            break
    a = AliceState(n, a_prev)
    b = b_from_a(a)
    return OptimizationResult(
        a=a,
        b=b,
        lam=tensor.expectation(a.a, b.b),
        lambda_trajectory=tuple(trajectory),
        iterations=iterations,
        converged=converged,
    )


def best_of_restarts(
    tensor: SparseCoefficientTensor,
    n: int,
    restarts: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> OptimizationResult:
    """Best fixed point from the uniform init and `restarts` random inits.

    Random inits draw from independent child streams of SeedSequence((seed, n)),
    so no two (n, restart) pairs share a stream and a given (n, seed) gives the
    same result wherever it is optimized. A restart replaces the incumbent
    only when it is better by more than tol, so fixed points that tie to
    rounding keep the earlier one.
    """
    best = fixed_point_optimize(tensor, n, init="uniform", tol=tol, max_iter=max_iter)
    for stream in np.random.SeedSequence((seed, n)).spawn(restarts):
        candidate = fixed_point_optimize(tensor, n, init="random", tol=tol,
                                         max_iter=max_iter, seed=stream)
        if candidate.lam > best.lam + tol:
            best = candidate
    return best


def z_sector_matrix(n: int, m: int) -> np.ndarray:
    """Tridiagonal z-objective block for magnetic number m, blocks j >= |m|.

    Contracting with b_{jr} = delta_{rm} leaves M[(j,m),(k,m)] = f_{jkmmmm}:
    the slots of `operator(b)` whose row and column both lie in the sector.
    """
    sector = np.array([flat_index(j, m) for j in range(abs(m), n)])
    b = np.zeros(total_dim(n))
    b[sector] = 1.0
    op = cached_tensor(Objective.z_axis(), n - 1).operator(b)
    position = np.full(total_dim(n), -1)
    position[sector] = np.arange(sector.size)
    rows, cols = position[op.plan.slot_rows], position[op.plan.slot_cols]
    inside = (rows >= 0) & (cols >= 0)
    mat = np.zeros((sector.size, sector.size))
    mat[rows[inside], cols[inside]] = op.values[inside].real
    return mat


def optimize_z_single_m(n: int, m: int) -> OptimizationResult:
    """z-axis optimum restricted to one magnetic number.

    The z tensor couples equal magnetic numbers only, so fixing m reduces the
    problem to the tridiagonal block of couplings between adjacent j; the top
    eigenvector embeds as a full state pair concentrated at that m.
    """
    if abs(m) > n - 1:
        raise ValueError(f"|m| must be <= n-1, got m={m}, n={n}")
    lam, vec_sector = _top_eigh(z_sector_matrix(n, m))
    a_vec = np.zeros(total_dim(n), dtype=complex)
    b_vec = np.zeros(total_dim(n), dtype=complex)
    for i, j in enumerate(range(abs(m), n)):
        a_vec[flat_index(j, m)] = vec_sector[i]
        b_vec[flat_index(j, m)] = 1.0
    # blocks below |m| cannot hold this magnetic number; they carry no sender
    # weight, so `_unit_blocks` gives them the uniform fiducial vector
    b_vec, filled = _unit_blocks(b_vec, n)
    return OptimizationResult(
        a=AliceState(n, a_vec),
        b=FiducialState(n, b_vec, uniform_filled_blocks=filled),
        lam=lam,
        lambda_trajectory=(lam,),
        iterations=1,
        converged=True,
    )


def _unpack_search_vector(x: np.ndarray, n: int) -> tuple[AliceState, FiducialState] | None:
    # line searches may probe wild points; anything non-normalizable is rejected
    if not np.all(np.isfinite(x)):
        return None
    d = total_dim(n)
    a_raw = x[:d] + 1j * x[d : 2 * d]
    b_raw = x[2 * d : 3 * d] + 1j * x[3 * d :]
    a_norm = np.linalg.norm(a_raw)
    if not np.isfinite(a_norm) or a_norm < 1e-12:
        return None
    a = AliceState(n, a_raw / a_norm)
    b_vec = np.empty_like(b_raw)
    for j in range(n):
        sl = block_slice(j)
        nrm = np.linalg.norm(b_raw[sl])
        if not np.isfinite(nrm) or nrm < 1e-12:
            return None
        b_vec[sl] = b_raw[sl] / nrm
    return a, FiducialState(n, b_vec)


def direct_search_optimize(
    tensor: SparseCoefficientTensor,
    n: int,
    restarts: int = 4,
    seed: int = 0,
) -> OptimizationResult:
    """Powell-style direct search over unconstrained real and imaginary parts.

    Validation oracle for small n (n <= 4): every evaluation projects onto the
    normalization constraints, so the search explores exactly the admissible
    set without needing the fixed-point structure.
    """
    if n > 4:
        raise ValueError("direct search is a small-n validation tool (n <= 4)")
    if tensor.j_max != n - 1:
        raise ValueError(f"tensor j_max={tensor.j_max} does not match state n={n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    from scipy.optimize import minimize  # deferred: only this oracle needs it

    rng = np.random.default_rng(seed)
    d = total_dim(n)

    def negated(x):
        pair = _unpack_search_vector(x, n)
        if pair is None:
            return 1e6
        a, b = pair
        return -tensor.expectation(a.a, b.b)

    best = None
    best_pair = None
    evaluations = 0
    values = []
    for _ in range(restarts):
        x0 = rng.standard_normal(4 * d)
        with np.errstate(over="ignore", invalid="ignore"):
            res = minimize(
                negated,
                x0,
                method="Powell",
                options={"maxiter": 20000, "xtol": 1e-10, "ftol": 1e-13},
            )
        evaluations += int(res.nfev)
        values.append(-float(res.fun))
        if best is None or res.fun < best.fun:
            best = res
            best_pair = _unpack_search_vector(res.x, n)
    a, b = best_pair
    return OptimizationResult(
        a=a,
        b=b,
        lam=float(-best.fun),
        lambda_trajectory=tuple(values),
        iterations=evaluations,
        converged=bool(best.success),
    )


def sweep(
    objective: Objective,
    n_from: int,
    n_to: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    restarts: int = 3,
    seed: int = 0,
) -> list[SweepRow]:
    """Best fixed-point result per n, uniform init plus seeded random restarts."""
    if n_from < 1 or n_to < n_from:
        raise ValueError("need 1 <= n_from <= n_to")
    rows = []
    for n in range(n_from, n_to + 1):
        best = best_of_restarts(cached_tensor(objective, n - 1), n, restarts, seed,
                                tol=tol, max_iter=max_iter)
        rows.append(
            SweepRow(
                n=n,
                d=n * n,
                lam=best.lam,
                mse_per_axis=fidelity_report(best.a, best.b, objective).mse_per_axis,
                converged=best.converged,
            )
        )
    return rows


def fit_asymptote(rows: list[SweepRow], n_min_for_fit: int) -> tuple[float, float]:
    """Least-squares power law mse = prefactor * d**exponent over rows with n >= n_min."""
    used = [row for row in rows if row.n >= n_min_for_fit]
    if len(used) < 3:
        raise ValueError("need at least 3 rows at or above n_min_for_fit")
    log_d = np.log([row.d for row in used])
    log_mse = np.log([row.mse_per_axis for row in used])
    exponent, intercept = np.polyfit(log_d, log_mse, 1)
    return float(np.exp(intercept)), float(exponent)
