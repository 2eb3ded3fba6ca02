"""Alternating eigenvalue optimization of the sender/fiducial state pair.

One round: build the objective matrix M for the current fiducial amplitudes
(`SparseCoefficientTensor.operator`, the package's only form of M, never a
d x d array), take the top Ritz pair of a Lanczos basis as the sender
state, then renormalize it per block to get the next fiducial state. Round
1's basis starts at the fiducial amplitudes and runs to WIDE_KRYLOV_DIM
vectors; later ones start at the previous sender state and stop once the
top Ritz residual meets a forcing target tied to the previous round's state
change, at a Ritz value no lower than the previous round's, so the
trajectory never decreases. The loop stops at a joint fixed point once an
inertia count over the j blocks proves the Ritz pair within the stopping
rule of the top eigenpair (`_certified`).

Objectives whose optimum lies in a closed sector (z-only and isotropic c)
have a second route: at the sector fiducial M is a direct sum of tridiagonal
label blocks of at most n rows (`SparseCoefficientTensor.sector`), so the top
eigenpair of one block, certified by a label-wise inertia count over all of
them, is a joint fixed point (`optimize_sector`). `best_of_restarts` takes
that pair for such c wherever the count certifies it, and the loop only
where it does not; `sweep` reads the rows it certifies from one batched
sector pass. A derivative-free direct search over unconstrained amplitudes
(small n only) serves as an independent cross-check, and sweeps over n feed
the asymptotic power-law fits.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np
import numpy.random

from .basis import block_norms, block_slice, total_dim
from .coefficients import Objective, SectorOperator, SparseCoefficientTensor, cached_tensor
from .objective import AliceState, FiducialState, fidelity_report

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200
DEFAULT_RESTARTS = 3

# a trajectory decrease beyond this many units of c's largest weight signals
# a broken quadratic form, not noise
DECREASE_ABORT = 1e-9

# the Lanczos cap: a round's pass stops at this many vectors, and the
# certificate's second pass, run when a round's own Ritz pair cannot pass the
# inertia count, always runs to it
WIDE_KRYLOV_DIM = 24

# forcing term (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 400,
# 1982): a round's Lanczos pass stops once its top Ritz residual is at most
# eta = min(FORCING, change^(1/4)) times the previous round's state change, so
# early rounds solve loosely and the solve tightens as the fixed point nears.
# eta -> 0 keeps the noise of the inexact solves below the state changes that
# the stopping rule compares with sqrt(tol): a constant eta = 0.1 stopped slow
# xy loops at n = 8 up to 2.3e-12 short of the loop with exact rounds
FORCING = 0.1

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


def _ritz_step(op, start: np.ndarray, target: float = 0.0,
               lam_floor: float = -math.inf) -> tuple[float, np.ndarray, float, int]:
    """Top Ritz pair, second Ritz value and basis size of a Lanczos pass from `start`.

    op is M as anything with `op @ x`. Every new vector is orthogonalized
    twice against the whole basis (full reorthogonalization), and its
    projection coefficients are the new column of the projected matrix H. With
    V the basis and w the orthogonalized image of its last vector, M V =
    V H + w e_k^H, so the top Ritz pair (theta, V y) has residual ||w|| |y_k|
    (Parlett, The Symmetric Eigenvalue Problem, 1998, ch. 13). From the second
    vector on, the pass stops once that residual is at most `target` and
    theta is at least `lam_floor`; it also stops when the Krylov space closes
    or the basis holds WIDE_KRYLOV_DIM vectors, so target 0 runs to the cap.
    `start` lies in the basis, so the top Ritz value is at least its Rayleigh
    quotient and at most the top eigenvalue. The second Ritz value is at most
    the second eigenvalue (Cauchy interlacing), -inf when the basis closes at
    one vector.
    """
    # rows are the basis vectors; their conjugates give V^H w as one product
    basis = np.empty((min(WIDE_KRYLOV_DIM, start.size), start.size), dtype=complex)
    conj_basis = np.empty_like(basis)
    h = np.zeros((len(basis), len(basis)), dtype=complex)  # upper triangle of V^H M V
    basis[0] = start / _norm(start)
    size = 1
    while True:
        np.conjugate(basis[size - 1], out=conj_basis[size - 1])
        vec = op @ basis[size - 1]
        column = conj_basis[:size] @ vec
        vec -= column @ basis[:size]
        kept = _norm(vec)
        coef = conj_basis[:size] @ vec
        vec -= coef @ basis[:size]
        h[:size, size - 1] = column + coef
        nrm = _norm(vec)
        # twice is enough (Kahan-Parlett): if the second pass still removes
        # more than a 1/sqrt(2) share, the vector lies in the span and the space closed
        stop = not nrm > kept / math.sqrt(2) or size == len(basis)
        if stop or (target > 0.0 and size > 1):
            ritz, vecs = np.linalg.eigh(h[:size, :size], UPLO="U")
            theta, y = float(ritz[-1]), vecs[:, -1]
            second = float(ritz[-2]) if size > 1 else -math.inf
            stop = stop or (nrm * abs(y[-1]) <= target and theta >= lam_floor)
        if stop:
            break
        basis[size] = vec / nrm
        size += 1
    vec = y @ basis[:size]
    return theta, _gauge_fixed(vec / _norm(vec)), second, size


def _aligned_change(vec: np.ndarray, vec_ref: np.ndarray) -> float:
    """||e^{i phi} vec - vec_ref|| with the global phase phi that aligns vec to vec_ref.

    The fixed-point map ignores global phase: when two components tie for the
    gauge pivot, rounding alone decides which one `_gauge_fixed` makes real.
    """
    overlap = np.vdot(vec, vec_ref)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return _norm(phase * vec - vec_ref)


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


def _label_eigenvalues_above(sector: SectorOperator, sigma, floor, levels=None):
    """How many eigenvalues of a sector's M exceed sigma, label by label; None when unsure.

    `_eigenvalues_above` with 1 x 1 pivots: every label's block is
    tridiagonal in j, so its Schur complements are the scalars
    q_j = sigma - M_jj - |M_{j-1,j}|^2 / q_{j-1}, and the labels of block j
    take their step together. The count is refused on the same rules: a
    pivot |q| < floor, or a label whose eps (|sigma| + |q| + |M_{j,j+1}|^2 / |q|)
    exceeds floor / 8. Given ascending `levels` and per-level sigma and floor,
    level n counts the sector of blocks j < n, every level n > j takes step j
    in one (levels, 2j + 1) array, and the counts come back as a list.
    """
    s, eps = sector.s, np.finfo(float).eps
    ns = np.atleast_1d(sector.n if levels is None else levels)
    sigma, floor = np.atleast_1d(sigma)[:, None], np.atleast_1d(floor)
    counts, refused = np.zeros(ns.size, dtype=int), np.zeros(ns.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # a refused level's pivot may be 0
        for j in range(ns[-1]):
            live = slice(np.searchsorted(ns, j, side="right"), None)  # the levels n > j
            q = sigma[live] - sector.diagonal[j * j : (j + 1) ** 2]
            if j:
                # block j - 1's site i carries the label of block j's site i + 1 + s
                pivots = pivots[-len(q) :]  # the rows of the levels still live
                update = coupling * coupling / pivots
                bound = eps * np.max(np.abs(sigma[live]) + np.abs(pivots) + np.abs(update), axis=1)
                refused[live] |= bound > floor[live] / 8
                q[:, 1 + s : 2 * j + s] -= update
            refused[live] |= np.abs(q).min(axis=1) < floor[live]
            counts[live] += np.count_nonzero(q < 0, axis=1)
            pivots, coupling = q, sector.upper[j * j : (j + 1) ** 2]
    counts = [None if no else int(count) for no, count in zip(refused, counts)]
    return counts[0] if levels is None else counts


def _sector_certified(sector: SectorOperator, levels, lams) -> list[bool]:
    """Whether one label count finds each level n's lam the only eigenvalue above lam - 2 F.

    F = CERT_ULPS n^2 eps ||M_n||_inf: `_certified`'s shift at zero residual, whose
    pivots clear the floor F (at lam - F a one-site label's pivot is -F).
    """
    norms = sector.level_norms()[np.subtract(levels, 1)]
    floors = CERT_ULPS * np.square(levels) * np.finfo(float).eps * norms
    counts = _label_eigenvalues_above(sector, np.subtract(lams, 2 * floors), floors, levels)
    # M = 0 (n = 1): every unit vector is a top eigenvector
    return [norm == 0.0 or count == 1 for norm, count in zip(norms.tolist(), counts)]


@dataclass
class _Tally:
    """What one fixed point spent, and what its rounds tell the certificate.

    A count that fails at sigma is not tried again until a later round's sigma
    exceeds it (`failed_sigma`): for one M the count is monotone in sigma, and
    M moves little between late rounds, so a lower shift would most likely
    fail again. `second`, the largest second Ritz value of the rounds so far,
    picks which pair the certificate counts: a two- or three-vector basis's
    own second Ritz value lies far below lambda_2, and a count on a pair whose
    gap reaches past lambda_2 fails. Both are heuristics, not bounds (the
    rounds' M differ): they only save counts, and the count itself proves the
    pair it passes.
    """

    vectors: int = 0
    counts: int = 0
    passed: int = 0
    failed_sigma: float = -math.inf
    second: float = -math.inf


def _certified(op, lam: float, vec: np.ndarray, second: float, tol: float,
               scale: float, tally: _Tally | None = None) -> tuple[float, np.ndarray] | None:
    """A Ritz pair that an inertia count proves close to M's top eigenpair, or None.

    For the Ritz pair (rho, v) = (lam, vec) with residual r = ||M v - rho v||,
    let F = CERT_ULPS d eps ||M||_inf and g = max(2 r / sqrt(tol), F). Exactly
    one eigenvalue above sigma = rho - g - F (`_eigenvalues_above`, whose
    rounding F covers) proves lambda_2(M) < rho - g. Then (Parlett, The
    Symmetric Eigenvalue Problem, 1998) Kato-Temple gives
    0 <= lambda_1 - rho <= r^2 / g, required below tol scale (`scale` is c's
    largest weight, the unit of objective values), and the sin theta
    bound gives sin angle(v, u_1) <= r / g <= sqrt(tol) / 2: the stopping
    rule of `_round`, proven against the top eigenpair.

    By interlacing the count exceeds one when a second Ritz value of M is
    >= sigma. `second` is a guess at lambda_2 (`_round` passes the largest
    second Ritz value of the fixed point's rounds, see `_Tally`); the given
    pair is tested only when second < rho - 2 g - F, and otherwise the pair
    of one longer Lanczos pass from v (WIDE_KRYLOV_DIM vectors), whose own
    second Ritz value must lie below its sigma. A degenerate top eigenvalue, or a Krylov space that
    missed u_1, gives None. `tally` (a fresh one if None) collects the
    vectors and counts spent and gates the count on its last failed shift.
    """
    tally = _Tally() if tally is None else tally
    norm = op.norm_inf
    if norm == 0.0:  # M = 0 (n = 1): every unit vector is a top eigenvector
        return lam, vec
    floor = CERT_ULPS * vec.size * np.finfo(float).eps * norm

    def provable_gap(lam, vec):
        r = _norm(op @ vec - lam * vec)
        gap = max(2.0 * r / math.sqrt(tol), floor)
        return gap if r * r < tol * scale * gap else None

    gap = provable_gap(lam, vec)
    if gap is None or second >= lam - 2.0 * gap - floor:
        lam, vec, second, size = _ritz_step(op, vec)
        tally.vectors += size
        gap = provable_gap(lam, vec)
        if gap is None or second >= lam - gap - floor:
            return None
    sigma = lam - gap - floor
    if sigma <= tally.failed_sigma:
        return None
    tally.counts += 1
    if _eigenvalues_above(op, sigma, floor) != 1:
        tally.failed_sigma = sigma
        return None
    tally.passed += 1
    return lam, vec


def b_from_a(a: AliceState) -> FiducialState:
    """Per-block renormalized copy of the sender amplitudes.

    Blocks with no weight (norm below 1e-14) get the uniform vector; the
    fixed-point relation leaves them free.
    """
    return FiducialState(a.n, _unit_blocks(a.a, a.n))


def _unit_blocks(vec: np.ndarray, n: int) -> np.ndarray:
    """vec unit-normalized per block; blocks below 1e-14 are set uniform instead."""
    sizes = 2 * np.arange(n) + 1
    norms = block_norms(vec, n)
    empty = norms < 1e-14
    if not empty.any():
        return vec / np.repeat(norms, sizes)
    return np.where(np.repeat(empty, sizes), FiducialState.uniform(n).b,
                    vec / np.repeat(np.where(empty, 1.0, norms), sizes))


def _round(tensor: SparseCoefficientTensor, bvec: np.ndarray, a_prev: np.ndarray | None,
           lam_prev: float, target: float, tol: float,
           tally: _Tally) -> tuple[float, np.ndarray, float, bool]:
    """One round at fiducial amplitudes bvec: its pair, state change and whether the loop converged.

    Round 1 (no a_prev) is a Lanczos pass from bvec, later rounds one from
    a_prev, each stopped by `target` and the floor lam_prev (`_ritz_step`).
    The change is the pair's phase-aligned distance from a_prev, 1 in round 1.
    A later round looks converged when its objective value moves by less than
    tol w and its state by less than sqrt(tol) (w = `tensor.weight`); it is
    then certified, with `tally.second` in place of its own second Ritz value.
    """
    op = tensor.operator(bvec)
    lam, vec, second, size = _ritz_step(op, bvec if a_prev is None else a_prev, target, lam_prev)
    tally.vectors += size
    tally.second = max(tally.second, second)
    if a_prev is None:
        return lam, vec, 1.0, False
    change = _aligned_change(vec, a_prev)
    if not (abs(lam - lam_prev) < tol * tensor.weight and change < math.sqrt(tol)):
        return lam, vec, change, False
    certified = _certified(op, lam, vec, tally.second, tol, tensor.weight, tally)
    return (*certified, change, True) if certified else (lam, vec, change, False)


def fixed_point_optimize(
    tensor: SparseCoefficientTensor,
    n: int,
    init: FiducialState | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> OptimizationResult:
    """Alternate eigenvector extraction and per-block renormalization.

    The loop starts at the fiducial state init, FiducialState.uniform(n) if
    None. Objective values, residuals and their tolerances are measured in
    units of w, c's largest weight (`tensor.weight`), so scaling c leaves the
    loop's path unchanged. Round 1's Lanczos pass runs to WIDE_KRYLOV_DIM
    vectors; each later one stops at a residual of min(FORCING, s^(1/4)) s w,
    s the previous round's phase-aligned state change (1 after round 1), and
    not below the previous round's objective value. A round whose objective
    value moves by less than tol w and whose sender state, up to its global
    phase, moves by less than sqrt(tol) stops the loop if its certificate
    proves the Ritz pair within the same tolerances of the top eigenpair
    (`_round`); without one the loop runs to max_iter and reports
    converged=False. A decrease of the trajectory beyond DECREASE_ABORT w
    aborts: the quadratic form must make that impossible. The returned states
    are built and validated once.
    Logs one DEBUG record with the rounds, Lanczos vectors and inertia counts
    spent.
    """
    if not tol > 0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter >= 1")
    if tensor.j_max != n - 1:
        raise ValueError(f"tensor j_max={tensor.j_max} does not match state n={n}")
    if init is not None and init.n != n:
        raise ValueError("initial fiducial state has wrong n")
    started = time.perf_counter()
    scale = tensor.weight
    bvec = (FiducialState.uniform(n) if init is None else init).b
    # round 1 has no state change to force on, so it solves to the cap: its
    # pair picks the fixed point's basin. Round 2 forces on a unit change
    a_prev, lam_prev, change, tally = None, -math.inf, 0.0, _Tally()
    trajectory, converged, iterations = [], False, 0
    for iterations in range(1, max_iter + 1):
        target = change * min(FORCING, change ** 0.25) * scale
        lam, vec, change, converged = _round(tensor, bvec, a_prev, lam_prev, target, tol, tally)
        if lam < lam_prev - DECREASE_ABORT * scale:
            raise RuntimeError(
                f"objective decreased from {lam_prev!r} to {lam!r} at iteration "
                f"{iterations}; trajectory: {trajectory + [lam]}"
            )
        trajectory.append(lam)
        a_prev, lam_prev = vec, lam
        bvec = _unit_blocks(vec, n)
        if converged:
            break
    a = AliceState(n, a_prev)
    b = b_from_a(a)
    log.debug("fixed point n=%d: %d rounds, %d Lanczos vectors, inertia counts %d tried "
              "%d passed, %.3f s", n, iterations, tally.vectors, tally.counts, tally.passed,
              time.perf_counter() - started)
    return OptimizationResult(a, b, tensor.expectation(a.a, b.b), tuple(trajectory), iterations,
                              converged)


def _sector(c_hat: np.ndarray) -> int | None:
    """s of the sector b_j = |j, s j> that holds c's best known optimum; None if none does.

    An isotropic c (c_hat = w I: xyz, equal-weight weighted) has it in the
    stretched sector, s = 1; a z-only c (c_hat = w e_0 e_0^T) in the m = 0
    sector, s = 0. The sector needs a diagonal c_hat: a c that is z-only only
    up to rounding gets None.
    """
    if np.array_equal(c_hat, c_hat[0, 0] * np.eye(3)):
        return 1
    if np.array_equal(c_hat, c_hat[1, 1] * np.diag([0, 1, 0])):
        return 0
    return None


def best_of_restarts(
    tensor: SparseCoefficientTensor,
    n: int,
    restarts: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> OptimizationResult:
    """Best of c's deterministic candidate and the fixed points of `restarts` random starts.

    A c with a closed sector (`_sector`: z-only or isotropic) takes its
    certified pair (`optimize_sector`). Where the count refuses it (one
    WARNING), or c has no sector, the loop runs from the uniform start and
    then, when c weights the xy plane, from the stretched state b_j = |j, j>.
    Random starts draw from independent child streams of SeedSequence((seed,
    n)), so a given (n, seed) gives the same result wherever it is optimized.
    A later start replaces the incumbent only when better by more than tol in
    units of c's largest weight, so fixed points that tie to rounding keep the
    earlier one; a restart that beats the sector pair logs a WARNING naming it.
    """
    c_hat, starts = tensor.c_hat, [None]
    sector = optimize_sector(tensor, n) if _sector(c_hat) is not None else None
    if sector and not sector.converged:
        log.warning("n=%d: no certificate for the sector's lambda %r; the loop runs", n, sector.lam)
        sector = None
    if sector:
        starts = []
    elif (c_hat[0, 0] + c_hat[2, 2]).real > 0:
        starts.append(FiducialState.stretched(n))
    streams = np.random.SeedSequence((seed, n)).spawn(restarts)
    starts += [FiducialState.random(n, np.random.default_rng(stream)) for stream in streams]
    best = sector
    for index, start in enumerate(starts):
        candidate = fixed_point_optimize(tensor, n, start, tol=tol, max_iter=max_iter)
        if best is None or candidate.lam > best.lam + tol * tensor.weight:
            if sector:
                log.warning("n=%d: restart %d beats the sector pair", n, index)
            best = candidate
    return best


def optimize_sector(tensor: SparseCoefficientTensor, n: int, m: int = 0) -> OptimizationResult:
    """c's best state pair in its closed sector b_j = |j, m + s j> (`_sector`), certified.

    s = 0 for z-only c, where m = 0 holds the optimum; s = 1 (m = 0 only) for
    isotropic c. At that fiducial M is the direct sum of its label blocks
    (`SparseCoefficientTensor.sector`), and the pair is the top eigenpair
    (lam, u) of the fiducial's own label, m: a = u on the label's sites, b the
    fiducial, uniform in the blocks j < |m| that hold no site. The pair is
    converged when lam is certified as the top eigenvalue of the sector's M
    (`_sector_certified`); since u has no zero entry (the block's couplings
    are positive, so u is its Perron vector), b_from_a(a) = b and the pair is
    then a joint fixed point. The count leaves out the blocks j < |m|, which
    z couples to no site of the sector.
    """
    if tensor.j_max != n - 1:
        raise ValueError(f"tensor j_max={tensor.j_max} does not match state n={n}")
    s = _sector(tensor.c_hat)
    if s is None:
        raise ValueError("c has no closed sector: it is neither z-only nor isotropic")
    if abs(m) > n - 1:
        raise ValueError(f"|m| must be <= n-1, got m={m}, n={n}")
    sector = tensor.sector(m, s)
    lam, u = _top_eigh(sector.block(m))
    sites = sector.sites(m)
    a, b = np.zeros((2, total_dim(n)), dtype=complex)
    a[sites], b[sites] = u, 1.0
    [converged] = _sector_certified(sector, [n], [lam])
    return OptimizationResult(a=AliceState(n, a), b=FiducialState(n, _unit_blocks(b, n)),
                              lam=lam, lambda_trajectory=(lam,), iterations=1,
                              converged=converged)


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
    a, b = _unpack_search_vector(best.x, n)
    return OptimizationResult(a, b, float(-best.fun), tuple(values), evaluations, bool(best.success))


def sweep(
    objective: Objective,
    n_from: int,
    n_to: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> list[SweepRow]:
    """Best result per n: the closed sector's certified optimum, or the best of restarts.

    An isotropic or z-only c (`_sector`) takes row n from the leading blocks
    j < n of one sector at n_to: the top eigenvalue of label 0's first n rows
    (`optimize_sector`), every level certified by one batched count. For
    these c c = w support(c), w c's largest weight, so a sector row's
    per-axis error is (k - lambda / w) / (2 k) with k axes. A row the count
    does not certify, and every row of any other c, is the best of restarts
    (`best_of_restarts`), which logs the refusal.
    """
    if n_from < 1 or n_to < n_from:
        raise ValueError("need 1 <= n_from <= n_to")
    tensor, levels, rows = cached_tensor(objective, n_to - 1), range(n_from, n_to + 1), []
    s = _sector(tensor.c_hat)
    lams = certified = [None] * len(levels)
    if s is not None:
        sector = tensor.sector(0, s)
        block = sector.block(0)
        lams = [_top_eigh(block[:n, :n])[0] for n in levels]
        certified = _sector_certified(sector, levels, lams)
    for n, lam, ok in zip(levels, lams, certified):
        if ok:
            k = objective.axis_count
            mse = (k - lam / tensor.weight) / (2 * k)
        else:
            best = best_of_restarts(cached_tensor(objective, n - 1), n, restarts, seed, tol,
                                    max_iter)
            lam, ok = best.lam, best.converged
            mse = fidelity_report(best.a, best.b, objective).mse_per_axis
        rows.append(SweepRow(n, n * n, lam, mse, ok))
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
