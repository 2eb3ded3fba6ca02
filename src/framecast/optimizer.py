"""Alternating eigenvalue optimization of the sender/fiducial state pair.

One round: contract the tensor with the current fiducial amplitudes, take the
top eigenvector as the sender state, then renormalize it per block to get the
next fiducial state. A few rounds reach a joint fixed point at which the
fiducial amplitudes are the per-block normalization of the sender amplitudes.

Every round takes the top Ritz pair of a Lanczos basis: round 1 a wide
basis (WIDE_KRYLOV_DIM vectors) started at the fiducial amplitudes, every
later round a small one started at the previous sender state, so the
trajectory never decreases and its entries are Ritz values. Once a round
looks converged, one Cholesky factorization proves that the Ritz pair lies
within the stopping rule of the top eigenpair (`_certified`), and the
certified round's entry is the Ritz value. Where no proof is found (a
degenerate top eigenvalue, or a Krylov space that missed the top
eigenvector), one dense solve decides, and the loop continues from the dense
pair if it differs. The round count may therefore differ by a few from an
all-dense loop, while the converged fixed point is the same.

A derivative-free direct search over unconstrained amplitudes (small n only)
serves as an independent cross-check, and sweeps over n feed the asymptotic
power-law fits.
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

# eigenvalues this close to the top one count as the same eigenvalue
DEGENERACY_GAP = 1e-12

# Lanczos basis size of the warm rounds after the first
KRYLOV_DIM = 6

# Lanczos basis size of round 1, started at the fiducial amplitudes, and of the
# certificate's second pass, run when a round's own Ritz pair cannot pass the
# Cholesky test: both need the top pair from a start far from it
WIDE_KRYLOV_DIM = 24

# the certificate's gap g is at least CERT_ULPS d eps ||M||_inf, far above the
# rounding error of forming and factoring its d x d operand
CERT_ULPS = 1e3

# row blocks of this many entries form the certificate's operand in place
ROW_BLOCK_ENTRIES = 1 << 13


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


def _top_eigh(mat: np.ndarray, previous: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a Hermitian matrix and a phase-gauged unit eigenvector, from eigh.

    When the top two eigenvalues lie within DEGENERACY_GAP and a previous
    state is given, the eigenvector is the normalized projection of the
    previous state onto the top eigenspace, so the choice inside a degenerate
    eigenspace stays close to it (the last eigenvector if the projection
    vanishes).
    """
    w, v = np.linalg.eigh(mat)
    lam, vec = float(w[-1]), v[:, -1]
    if previous is not None and w.size > 1 and w[-1] - w[-2] < DEGENERACY_GAP:
        top = v[:, w > lam - DEGENERACY_GAP]
        proj = top @ (top.conj().T @ previous)
        nrm = np.linalg.norm(proj)
        if nrm > 1e-8:
            vec = proj / nrm
    return lam, _gauge_fixed(vec)


def _ritz_step(mat: np.ndarray, start: np.ndarray,
               krylov_dim: int = KRYLOV_DIM) -> tuple[float, np.ndarray, float]:
    """Top Ritz pair and second Ritz value of a Lanczos basis of up to krylov_dim vectors.

    The basis starts at `start`. Every new vector is orthogonalized twice
    against the whole basis (full reorthogonalization); the basis stops early
    when the Krylov space closes. `start` lies in the basis, so the top Ritz
    value is at least its Rayleigh quotient and at most the top eigenvalue.
    The second Ritz value is at most the second eigenvalue (Cauchy
    interlacing), -inf when the basis closes at one vector.
    """
    # rows are the basis vectors; their conjugates give V^H w as one product
    basis = np.empty((min(krylov_dim, start.size), start.size), dtype=complex)
    conj_basis = np.empty_like(basis)
    images = np.empty_like(basis)
    basis[0] = start / _norm(start)
    size = 1
    while True:
        np.conjugate(basis[size - 1], out=conj_basis[size - 1])
        images[size - 1] = mat @ basis[size - 1]
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


def _certified(mat: np.ndarray, lam: float, vec: np.ndarray, second: float,
               tol: float) -> tuple[float, np.ndarray] | None:
    """A Ritz pair that one Cholesky factorization proves close to M's top eigenpair, or None.

    For the Ritz pair (rho, v) = (lam, vec) with residual r = ||M v - rho v||,
    let c = 2 ||M||_inf, F = CERT_ULPS d eps ||M||_inf and
    g = max(2 r / sqrt(tol), F). If A = (rho - g - F) I - M + c w w^H has a
    Cholesky factorization (w = v, or its real part when M is real; any w
    will do), then M - c w w^H < (rho - g) I, and interlacing for a rank-one
    update gives lambda_2(M) < rho - g. F covers the rounding error of
    forming and factoring A: a few d eps ||A|| in practice, (d + 1) d eps
    ||A|| at worst (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 10), with ||A|| <= 6 ||M||_inf, so below F up to d = 165. Then
    (Parlett, The Symmetric Eigenvalue Problem, 1998) Kato-Temple gives
    0 <= lambda_1 - rho <= r^2 / g, required below tol, and the sin theta
    bound gives sin angle(v, u_1) <= r / g <= sqrt(tol) / 2: the stopping
    rule of `_close`, proven against the top eigenpair.

    Interlacing also puts the second Ritz value `second` below lambda_2, so
    the factorization cannot succeed when second >= rho - g - F. A few-vector
    basis's second Ritz value often lies far below lambda_2, so the round's
    pair is tested only when second < rho - 2 g - F; otherwise one longer
    Lanczos pass from v (WIDE_KRYLOV_DIM vectors) gives the pair to test.
    The pair that passes is returned unchanged. A degenerate top eigenvalue,
    or a Krylov space that missed u_1, gives None.

    M must be a C-contiguous array that the caller owns and no longer needs:
    the operand is formed in its buffer, row block by row block, as a real
    array when M has no imaginary part (a complex M that owns its buffer then
    shrinks to the operand's half before the factorization).
    """
    d = mat.shape[0]
    step = max(1, ROW_BLOCK_ENTRIES // d)
    blocks = [slice(i, i + step) for i in range(0, d, step)]
    scale = max(float(np.abs(mat[rows]).sum(axis=1).max()) for rows in blocks)
    floor = CERT_ULPS * d * np.finfo(float).eps * scale

    def provable_gap(lam, vec):
        r = _norm(mat @ vec - lam * vec)
        gap = max(2.0 * r / math.sqrt(tol), floor)
        return gap if r * r < tol * gap else None

    gap = provable_gap(lam, vec)
    if gap is None or second >= lam - 2.0 * gap - floor:
        lam, vec, second = _ritz_step(mat, vec, WIDE_KRYLOV_DIM)
        gap = provable_gap(lam, vec)
        if gap is None or second >= lam - gap - floor:
            return None
    complex_mat = np.iscomplexobj(mat)
    real = not complex_mat or not mat.imag.any()
    w = vec.real if real else vec
    operand = mat
    if real and complex_mat:
        # the real operand fills the first half of M's buffer; block i's rows
        # lie at or before the complex rows it reads, which later blocks need
        operand = mat.view(np.float64).reshape(-1)[: d * d].reshape(d, d)
    cw, w_conj = 2.0 * scale * w, w.conj()
    for rows in blocks:
        term = np.outer(cw[rows], w_conj)
        term -= mat[rows].real if real else mat[rows]
        operand[rows] = term
    if operand is not mat and mat.flags.owndata:
        # the factorization copies its operand twice; the unused half goes first
        del operand
        mat.resize((d * d + 1) // 2, refcheck=False)
        operand = mat.view(np.float64)[: d * d].reshape(d, d)
    diagonal = np.arange(d)
    operand[diagonal, diagonal] += lam - gap - floor
    try:
        np.linalg.cholesky(operand)
    except np.linalg.LinAlgError:
        return None
    return lam, vec


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


def _round(tensor: SparseCoefficientTensor, bvec: np.ndarray, a_prev: np.ndarray | None,
           lam_prev: float | None, tol: float) -> tuple[float, np.ndarray, bool]:
    """One round at fiducial amplitudes bvec: the round's pair and whether the loop converged.

    Round 1 (no a_prev) is the wide Lanczos pass from bvec; later rounds are
    the warm pass from a_prev, certified once they look converged, with a
    dense solve only where the certificate fails. The objective matrix lives
    only inside this call, so no two of them coexist across rounds.
    """
    m = tensor.contract(bvec)
    if a_prev is None:
        lam, vec, _ = _ritz_step(m, bvec, WIDE_KRYLOV_DIM)
        return lam, vec, False
    lam, vec, second = _ritz_step(m, a_prev)
    if not _close(lam, vec, lam_prev, a_prev, tol):
        return lam, vec, False
    certified = _certified(m, lam, vec, second, tol)
    if certified is not None:
        return *certified, True
    del m  # its buffer holds the certificate's operand; the dense solve contracts afresh
    dense_lam, dense_vec = _top_eigh(tensor.contract(bvec), previous=a_prev)
    return dense_lam, dense_vec, _close(dense_lam, dense_vec, lam, vec, tol)


def fixed_point_optimize(
    tensor: SparseCoefficientTensor,
    n: int,
    init="uniform",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int | np.random.SeedSequence | None = None,
) -> OptimizationResult:
    """Alternate eigenvector extraction and per-block renormalization.

    Every round takes a top Ritz pair (`_ritz_step`): round 1 from a wide
    Lanczos basis started at the fiducial amplitudes, later rounds from a
    warm one started at the previous sender state. Once the objective value
    moves by less than tol and the sender state, up to its global phase, by
    less than sqrt(tol), the round is checked (`_round`): a Cholesky
    certificate that proves the Ritz pair within the same tolerances of the
    top eigenpair stops the loop with the Ritz value as the round's entry;
    otherwise a dense solve decides, and the loop stops if the dense pair
    agrees with the Ritz pair and continues from the dense pair if not.
    Without a certified round it runs to max_iter and reports
    converged=False. A decrease of the trajectory beyond 1e-9 aborts: the
    quadratic form must make that impossible. The rounds work on plain
    amplitude vectors; the returned states are built and validated once.
    """
    if not tol > 0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter >= 1")
    if tensor.j_max != n - 1:
        raise ValueError(f"tensor j_max={tensor.j_max} does not match state n={n}")
    rng = np.random.default_rng(seed)
    bvec = _initial_fiducial(init, n, rng).b
    sizes = 2 * np.arange(n) + 1
    lam_prev = None
    a_prev = None
    trajectory = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        lam, vec, converged = _round(tensor, bvec, a_prev, lam_prev, tol)
        if lam_prev is not None and lam < lam_prev - DECREASE_ABORT:
            raise RuntimeError(
                f"objective decreased from {lam_prev!r} to {lam!r} at iteration "
                f"{iterations}; trajectory: {trajectory + [lam]}"
            )
        trajectory.append(lam)
        a_prev, lam_prev = vec, lam
        norms = block_norms(vec, n)
        if norms.min() >= 1e-14:
            bvec = vec / np.repeat(norms, sizes)
        else:
            bvec = b_from_a(AliceState(n, vec)).b
        if converged:
            break
    a = AliceState(n, a_prev)
    b = b_from_a(a)
    lam_final = tensor.expectation(a.a, b.b)
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
