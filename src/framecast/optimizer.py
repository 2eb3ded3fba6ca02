"""Alternating eigenvalue optimization of the sender/fiducial state pair.

One round: contract the tensor with the current fiducial amplitudes, take the
top eigenvector as the sender state, then renormalize it per block to get the
next fiducial state. A few rounds reach a joint fixed point at which the
fiducial amplitudes are the per-block normalization of the sender amplitudes.

Round 1 solves densely for the top eigenpair. Every later round takes the top
Ritz pair of a small Lanczos basis started at the previous sender state, so
the trajectory never decreases and its entries after round 1 are Ritz values.
Once a round looks converged, one dense solve certifies that the Ritz pair is
the top eigenpair; if it is not, the loop continues from the dense pair. The
round count may therefore differ by a few from an all-dense loop, while the
converged fixed point is the same.

A derivative-free direct search over unconstrained amplitudes (small n only)
serves as an independent cross-check, and sweeps over n feed the asymptotic
power-law fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import block_norms, block_slice, flat_index, total_dim
from .coefficients import Objective, SparseCoefficientTensor, cached_tensor
from .objective import (
    AliceState,
    FiducialState,
    build_m,
    expected_value,
    fidelity_report,
)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200

# a trajectory decrease beyond this signals a broken quadratic form, not noise
DECREASE_ABORT = 1e-9

# eigenvalues this close to the top one count as the same eigenvalue
DEGENERACY_GAP = 1e-12

# Lanczos basis size of the warm rounds after the first
KRYLOV_DIM = 6


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


def _top_eigh(mat: np.ndarray, previous: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a Hermitian matrix and a phase-gauged unit eigenvector.

    LAPACK's MRRR driver (?heevr) solves for the top two eigenpairs only. When
    they lie within DEGENERACY_GAP and a previous state is given, the full
    spectrum is taken and the eigenvector is the normalized projection of the
    previous state onto the top eigenspace, so the choice inside a degenerate
    eigenspace stays close to it (the last eigenvector if the projection
    vanishes).
    """
    d = mat.shape[0]
    w, v = scipy.linalg.eigh(mat, subset_by_index=[max(d - 2, 0), d - 1], driver="evr")
    lam, vec = float(w[-1]), v[:, -1]
    if previous is not None and w.size > 1 and w[-1] - w[-2] < DEGENERACY_GAP:
        w, v = np.linalg.eigh(mat)
        lam, vec = float(w[-1]), v[:, -1]
        top = v[:, w > lam - DEGENERACY_GAP]
        proj = top @ (top.conj().T @ previous)
        nrm = np.linalg.norm(proj)
        if nrm > 1e-8:
            vec = proj / nrm
    return lam, _gauge_fixed(vec)


def _ritz_step(mat: np.ndarray, start: np.ndarray) -> tuple[float, np.ndarray]:
    """Top Ritz pair of a Lanczos basis of up to KRYLOV_DIM vectors started at `start`.

    Every new vector is orthogonalized twice against the whole basis (full
    reorthogonalization); the basis stops early when the Krylov space closes.
    `start` lies in the basis, so the Ritz value is at least its Rayleigh
    quotient and at most the top eigenvalue.
    """
    # rows are the basis vectors, so V^H w = conj(V^T conj(w)) needs no matrix conjugate
    basis = np.empty((min(KRYLOV_DIM, start.size), start.size), dtype=complex)
    images = np.empty_like(basis)
    basis[0] = start / np.linalg.norm(start)
    size = 1
    while True:
        images[size - 1] = mat @ basis[size - 1]
        if size == len(basis):
            break
        vec = images[size - 1]
        for _ in range(2):
            kept = np.linalg.norm(vec)
            vec = vec - (basis[:size] @ vec.conj()).conj() @ basis[:size]
        nrm = np.linalg.norm(vec)
        # twice is enough (Kahan-Parlett): if the second pass still removes
        # more than a 1/sqrt(2) share, the vector lies in the span and the space closed
        if not nrm > kept / math.sqrt(2):
            break
        basis[size] = vec / nrm
        size += 1
    basis, images = basis[:size], images[:size]
    h = basis.conj() @ images.T
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    vec = v[:, -1] @ basis
    return float(w[-1]), _gauge_fixed(vec / np.linalg.norm(vec))


def _close(lam: float, vec: np.ndarray, lam_ref: float, vec_ref: np.ndarray, tol: float) -> bool:
    """Whether two eigenpair estimates agree within the fixed-point stopping rule.

    The states are compared after aligning their global phase, which the
    fixed-point map ignores: when two components tie for the gauge pivot,
    rounding alone decides which one `_gauge_fixed` makes real.
    """
    overlap = np.vdot(vec, vec_ref)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return bool(abs(lam - lam_ref) < tol and np.linalg.norm(phase * vec - vec_ref) < math.sqrt(tol))


def b_from_a(a: AliceState) -> FiducialState:
    """Per-block renormalized copy of the sender amplitudes.

    Blocks with no weight (norm below 1e-14) are set to the uniform vector and
    recorded in uniform_filled_blocks; the fixed-point relation leaves them
    unconstrained.
    """
    sizes = 2 * np.arange(a.n) + 1
    norms = block_norms(a.a, a.n)
    empty = norms < 1e-14
    vec = np.where(np.repeat(empty, sizes), np.repeat(1.0 / np.sqrt(sizes), sizes),
                   a.a / np.repeat(np.where(empty, 1.0, norms), sizes))
    filled = tuple(int(j) for j in np.flatnonzero(empty))
    return FiducialState(a.n, vec, uniform_filled_blocks=filled)


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


def fixed_point_optimize(
    tensor: SparseCoefficientTensor,
    n: int,
    init="uniform",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int | np.random.SeedSequence | None = None,
) -> OptimizationResult:
    """Alternate eigenvector extraction and per-block renormalization.

    Round 1 takes the dense top eigenpair, later rounds the warm Ritz pair
    (`_ritz_step`). Once the objective value moves by less than tol and the
    sender state, up to its global phase, by less than sqrt(tol), a dense
    solve certifies the round: the loop stops if the dense pair agrees with
    the Ritz pair within the same tolerances and otherwise continues from the
    dense pair. Without a certified round it runs to max_iter and reports
    converged=False. A decrease of the trajectory beyond 1e-9 aborts: the
    quadratic form must make that impossible.
    """
    if not tol > 0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter >= 1")
    rng = np.random.default_rng(seed)
    b = _initial_fiducial(init, n, rng)
    lam_prev = None
    a_prev = None
    trajectory = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        m = build_m(tensor, b)
        if a_prev is None:
            lam, vec = _top_eigh(m)
        else:
            lam, vec = _ritz_step(m, a_prev)
            if _close(lam, vec, lam_prev, a_prev, tol):
                ritz_lam, ritz_vec = lam, vec
                lam, vec = _top_eigh(m, previous=a_prev)
                converged = _close(lam, vec, ritz_lam, ritz_vec, tol)
        if lam_prev is not None and lam < lam_prev - DECREASE_ABORT:
            raise RuntimeError(
                f"objective decreased from {lam_prev!r} to {lam!r} at iteration "
                f"{iterations}; trajectory: {trajectory + [lam]}"
            )
        trajectory.append(lam)
        a_prev, lam_prev = vec, lam
        b = b_from_a(AliceState(n, vec))
        if converged:
            break
    a = AliceState(n, a_prev)
    lam_final = expected_value(build_m(tensor, b), a)
    return OptimizationResult(
        a=a,
        b=b,
        lam=lam_final,
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
    same result wherever it is optimized.
    """
    best = fixed_point_optimize(tensor, n, init="uniform", tol=tol, max_iter=max_iter)
    for stream in np.random.SeedSequence((seed, n)).spawn(restarts):
        candidate = fixed_point_optimize(tensor, n, init="random", tol=tol,
                                         max_iter=max_iter, seed=stream)
        if candidate.lam > best.lam:
            best = candidate
    return best


def z_sector_matrix(n: int, m: int) -> np.ndarray:
    """Tridiagonal z-objective block for magnetic number m, blocks j >= |m|.

    Contracting with b_{jr} = delta_{rm} leaves M[(j,m),(k,m)] = f_{jkmmmm}.
    """
    sector = [flat_index(j, m) for j in range(abs(m), n)]
    b = np.zeros(total_dim(n))
    b[sector] = 1.0
    return cached_tensor(Objective.z_axis(), n - 1).contract(b)[np.ix_(sector, sector)].real


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
    # weight, so give them the uniform fiducial vector
    filled = tuple(range(abs(m)))
    for j in filled:
        b_vec[block_slice(j)] = 1.0 / math.sqrt(2 * j + 1)
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
        return -expected_value(build_m(tensor, b), a)

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
