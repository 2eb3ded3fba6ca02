"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from framecast import (
    FiducialState,
    Objective,
    b_from_a,
    cached_tensor,
    coefficient_deviation,
    direct_search_optimize,
    fidelity_report,
    fit_asymptote,
    fixed_point_optimize,
    make_grid,
    monte_carlo_error,
    optimize_z_single_m,
    povm_defect,
    sweep,
)
from framecast.cli import _verify_checks

ROOT3 = 1.0 / math.sqrt(3)


def report(num: int, label: str, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"criterion {num:2d} [{label}]: {status} ({detail}; {elapsed:.2f}s of {limit:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded runtime: {elapsed:.2f}s >= {limit}s"


@lru_cache(maxsize=None)
def sweep_rows(kind: str, n_from: int, n_to: int):
    return sweep(Objective.from_kind(kind), n_from, n_to)


def test_criterion_01_trivial_floor():
    start = time.perf_counter()
    worst = 0.0
    for objective in (Objective.z_axis(), Objective.xy_axes(), Objective.xyz_axes()):
        result = fixed_point_optimize(cached_tensor(objective, 0), 1)
        mse = fidelity_report(result.a, result.b, objective).mse_per_axis
        worst = max(worst, abs(mse - 0.5))
    elapsed = time.perf_counter() - start
    report(1, "trivial floor n=1", worst == 0.0, f"max |mse - 0.5| = {worst:g}", elapsed, 1.0)


def test_criterion_02_analytic_level_two():
    start = time.perf_counter()
    result = fixed_point_optimize(cached_tensor(Objective.z_axis(), 1), 2)
    mse = fidelity_report(result.a, result.b, Objective.z_axis()).mse_per_axis
    lam_err = abs(result.lam - ROOT3)
    mse_err = abs(mse - (1.0 - ROOT3) / 2.0)
    elapsed = time.perf_counter() - start
    report(
        2, "analytic n=2 z", lam_err < 1e-9 and mse_err < 1e-9,
        f"|lambda - 3^-0.5| = {lam_err:.2e}, |mse - 0.211325| = {mse_err:.2e}", elapsed, 1.0,
    )


def test_criterion_03_coefficient_oracle_equivalence():
    start = time.perf_counter()
    j_max = 5
    grid = make_grid(j_max)
    worst = max(
        coefficient_deviation(cached_tensor(objective, j_max), fn, grid)
        for objective, fn in [
            (Objective.z_axis(), lambda a, b, g: np.cos(b)),
            (Objective.xy_axes(), lambda a, b, g: (1.0 + np.cos(b)) * np.cos(a + g)),
        ]
    )
    elapsed = time.perf_counter() - start
    report(
        3, "z/xy tensors vs quadrature oracle, j,k <= 5", worst < 1e-10,
        f"worst entry deviation = {worst:.2e}", elapsed, 60.0,
    )


def test_criterion_04_povm_completeness():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for n in range(1, 7):
        grid = make_grid(n - 1)
        worst = max(worst, povm_defect(FiducialState.uniform(n), grid))
        for _ in range(3):
            worst = max(worst, povm_defect(FiducialState.random(n, rng), grid))
    elapsed = time.perf_counter() - start
    report(4, "POVM completeness n <= 6", worst < 1e-10,
           f"worst identity defect = {worst:.2e}", elapsed, 60.0)


def test_criterion_05_single_axis_scaling():
    start = time.perf_counter()
    rows = sweep_rows("z", 2, 12)
    at_ten = next(row for row in rows if row.n == 10)
    scaled = at_ten.d * at_ten.mse_per_axis
    scaled_ok = abs(scaled - 1.446) / 1.446 < 0.15
    _, exponent = fit_asymptote(list(rows), 6)
    exponent_ok = abs(exponent - (-1.0)) < 0.08
    elapsed = time.perf_counter() - start
    report(
        5, "z-axis 1.446/d scaling", scaled_ok and exponent_ok,
        f"d*mse(n=10) = {scaled:.4f} (target 1.446 +/- 15%), "
        f"exponent(6..12) = {exponent:.4f} (target -1 +/- 0.08)", elapsed, 300.0,
    )


def test_criterion_06_three_axis_scaling():
    start = time.perf_counter()
    rows = sweep_rows("xyz", 2, 10)
    per_axis_prefactor, exponent = fit_asymptote(list(rows), 5)
    # the quoted asymptotic constant counts the error summed over the three
    # optimized axes, so the per-axis fit scales by the axis count
    frame_prefactor = 3.0 * per_axis_prefactor
    exponent_ok = abs(exponent - (-0.586)) < 0.08
    prefactor_ok = abs(frame_prefactor - 3.168) / 3.168 < 0.25
    elapsed = time.perf_counter() - start
    report(
        6, "three-axis 3.168 d^-0.586 scaling", exponent_ok and prefactor_ok,
        f"exponent(5..10) = {exponent:.4f} (target -0.586 +/- 0.08), "
        f"frame prefactor = {frame_prefactor:.4f} (target 3.168 +/- 25%)", elapsed, 600.0,
    )


def test_criterion_07_objective_ordering():
    start = time.perf_counter()
    z_rows = {row.n: row.mse_per_axis for row in sweep_rows("z", 2, 12)}
    xy_rows = {row.n: row.mse_per_axis for row in sweep_rows("xy", 2, 8)}
    xyz_rows = {row.n: row.mse_per_axis for row in sweep_rows("xyz", 2, 10)}
    ordered = True
    worst_ratio = 0.0
    for n in range(2, 9):
        z, xy, xyz = z_rows[n], xy_rows[n], xyz_rows[n]
        ordered = ordered and (z <= xy + 1e-12) and (xy <= xyz + 1e-12)
        worst_ratio = max(worst_ratio, xyz / xy)
    elapsed = time.perf_counter() - start
    report(
        7, "per-axis error ordering z <= xy <= xyz", ordered and worst_ratio < 1.25,
        f"ordering holds for n=2..8, max xyz/xy ratio = {worst_ratio:.4f} (< 1.25)",
        elapsed, 300.0,
    )


def test_criterion_08_fixed_point_relation_at_search_optima():
    start = time.perf_counter()
    worst = 0.0
    for n, objective, seed in [
        (2, Objective.z_axis(), 1),
        (2, Objective.xyz_axes(), 2),
        (3, Objective.xyz_axes(), 3),
    ]:
        result = direct_search_optimize(cached_tensor(objective, n - 1), n,
                                        restarts=3, seed=seed)
        reference = b_from_a(result.a)
        for j in range(n):
            got = result.b.block(j)
            want = reference.block(j)
            overlap = np.vdot(got, want)
            if abs(overlap) > 1e-12:
                got = got * np.exp(1j * np.angle(overlap))
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    report(
        8, "fiducial = renormalized sender at search optima", worst < 1e-4,
        f"worst per-component gap after phase alignment = {worst:.2e}", elapsed, 300.0,
    )


def test_criterion_09_monte_carlo_consistency():
    start = time.perf_counter()
    ok = True
    details = []
    for n in (2, 3, 4):
        result = fixed_point_optimize(cached_tensor(Objective.xyz_axes(), n - 1), n)
        from framecast import fidelity_report

        analytic = fidelity_report(result.a, result.b, Objective.xyz_axes())
        mc = monte_carlo_error(result.a, result.b, samples=100_000, seed=900 + n,
                                rejection=True)
        pulls = [
            abs(mc.mean_cos_z - analytic.expect_cos_z) / mc.stderr_cos_z,
            abs(mc.mean_cos_x_plus_y - analytic.expect_cos_xy) / mc.stderr_cos_x_plus_y,
            abs(mc.mean_cos_sum - analytic.expect_cos_sum) / mc.stderr_cos_sum,
        ]
        rate_target = 1.0 / (n * n)
        rate_sigma = math.sqrt(rate_target * (1 - rate_target) * mc.acceptance_rate / mc.samples)
        rate_ok = mc.acceptance_rate >= rate_target - 3 * rate_sigma
        ok = ok and max(pulls) < 3.0 and rate_ok
        details.append(f"n={n}: max pull {max(pulls):.2f}, accept {mc.acceptance_rate:.4f}")
    elapsed = time.perf_counter() - start
    report(9, "Monte Carlo vs analytic cosines", ok, "; ".join(details), elapsed, 300.0)


def test_criterion_10_single_m_sector_claim():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for n in range(2, 9):
        sector = {m: optimize_z_single_m(n, m).lam for m in range(-(n - 1), n)}
        best_m = max(sector, key=sector.get)
        full = fixed_point_optimize(cached_tensor(Objective.z_axis(), n - 1), n)
        gap = abs(sector[best_m] - full.lam)
        worst = max(worst, gap)
        ok = ok and best_m == 0 and gap < 1e-9
    elapsed = time.perf_counter() - start
    report(10, "single-m sector equals full z optimum, argmax m=0", ok,
           f"worst |sector - full| = {worst:.2e}, maximizing m always 0", elapsed, 60.0)


def test_criterion_11_geometry_identities():
    start = time.perf_counter()
    # verify's geometry check draws its 10^4 triples first from the seed
    [(_, worst, _)] = _verify_checks(1, 1111, False, "geometry-identities")
    elapsed = time.perf_counter() - start
    report(11, "rotation-matrix identities, 10^4 triples", worst < 1e-12,
           f"worst identity deviation = {worst:.2e}", elapsed, 10.0)
