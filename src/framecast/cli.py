"""Command-line interface: optimize, verify, sweep, simulate.

Exit codes: 0 success, 1 usage or I/O error, 2 non-convergence,
3 verification failure. All floating-point output uses 12 significant
digits. Relative output paths resolve against $FRAMECAST_OUTPUT_DIR when it
is set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import numpy.random

from .coefficients import Objective, cached_tensor, moment_tensor
from .objective import AliceState, FiducialState, fidelity_report
from .optimizer import (
    DEFAULT_MAX_ITER,
    DEFAULT_RESTARTS,
    DEFAULT_TOL,
    best_of_restarts,
    fit_asymptote,
    sweep,
)
from .quadrature import coefficient_deviation, integrate, make_grid
from .simulator import monte_carlo_error, povm_defect
from .so3 import big_d_matrix, error_angles, error_matrices, rotation_matrix_components

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_VERIFY_FAILED = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _round_floats(obj):
    """Clamp every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {key: _round_floats(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(val) for val in obj]
    return obj


def _resolve_output(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get("FRAMECAST_OUTPUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _emit_json(doc: dict, output: Path | None) -> None:
    text = json.dumps(_round_floats(doc), indent=2, sort_keys=True)
    if output is None:
        print(text)
    else:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text + "\n", encoding="utf-8")


def _objective_from_args(args, parser) -> Objective:
    if args.objective != "weighted":
        if args.wz is not None or args.wxy is not None:
            parser.error(f"--wz and --wxy need --objective weighted, not {args.objective}")
        return Objective.from_kind(args.objective)
    try:
        return Objective.weighted(*(1.0 if w is None else w for w in (args.wz, args.wxy)))
    except ValueError as exc:
        parser.error(str(exc))


def _non_negative_int(text: str) -> int:
    """argparse type for --seed and --restarts: numpy seed streams need a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for level numbers, sample counts and iteration caps."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for tolerances: finite and > 0, so nan and inf are refused."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _parse_n_range(text: str, parser) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            n_from, n_to = int(lo), int(hi)
        else:
            n_from = n_to = int(text)
    except ValueError:
        parser.error(f"cannot parse n range {text!r} (expected e.g. 2..10)")
    if n_from < 1 or n_to < n_from:
        parser.error(f"invalid n range {text!r}")
    return n_from, n_to


def cmd_optimize(args, parser) -> int:
    objective = _objective_from_args(args, parser)
    result = best_of_restarts(cached_tensor(objective, args.n - 1), args.n, args.restarts,
                              args.seed, tol=args.tol, max_iter=args.max_iter)
    report = fidelity_report(result.a, result.b, objective)
    doc = result.to_json()
    doc["objective"] = objective.to_json()
    doc["report"] = report.to_json()
    _emit_json(doc, _resolve_output(args.output))
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


VERIFY_CHECKS = ("grid-normalization", "geometry-identities", "error-angle-composition",
                 "wigner-unitarity", "coefficients-vs-quadrature", "povm-completeness")


def _verify_checks(n: int, seed: int, selected: str = "all"):
    """Yield (name, worst, tol) per check whose name contains `selected` (all for "all").

    Every check's random inputs are drawn even when it does not run, so filtering keeps them.
    geometry-identities tests 10^4 random rotation matrices for SO(3)
    membership, R^T R = I and det R = 1, and for the closed-form entries
    R_zz = cos beta and R_xx + R_yy = (1 + cos beta) cos(alpha + gamma).
    """
    rng = np.random.default_rng(seed)
    j_max = n - 1
    grid = make_grid(j_max)
    wanted = lambda name: selected == "all" or selected in name

    if wanted("grid-normalization"):
        yield "grid-normalization", abs(integrate(lambda a, b, g: 1.0, grid) - 1.0), 1e-14

    triples = rng.uniform(0.0, 2.0 * math.pi, size=(10_000, 3))
    triples[:, 1] = np.arccos(rng.uniform(-1.0, 1.0, size=10_000))
    if wanted("geometry-identities"):
        rmats = rotation_matrix_components(triples[:, 0], triples[:, 1], triples[:, 2])
        worst_zz = np.max(np.abs(rmats[:, 2, 2] - np.cos(triples[:, 1])))
        worst_xy = np.max(np.abs(
            rmats[:, 0, 0] + rmats[:, 1, 1]
            - (1.0 + np.cos(triples[:, 1])) * np.cos(triples[:, 0] + triples[:, 2])
        ))
        # R is in SO(3) exactly when its columns c_k are orthonormal (R^T R = I)
        # and right-handed (det R = (c_0 x c_1) . c_2 = 1); a rotation's
        # spectrum alone would also pass S R S^-1 for any invertible S
        cols = rmats.transpose(2, 0, 1)
        worst_gram = max(np.max(np.abs(np.einsum("ti,ti->t", cols[k], cols[l]) - (k == l)))
                         for k in range(3) for l in range(k, 3))
        worst_det = np.max(np.abs(
            np.einsum("ti,ti->t", np.cross(cols[0], cols[1]), cols[2]) - 1.0
        ))
        worst = max(worst_zz, worst_xy, worst_gram, worst_det)
        yield "geometry-identities", float(worst), 1e-12

    pairs = rng.uniform(0.0, 2.0 * math.pi, size=(50, 2, 3))
    if wanted("error-angle-composition"):
        x, y = pairs[:, 0], pairs[:, 1]
        relative = error_matrices(rotation_matrix_components(*x.T),
                                  rotation_matrix_components(*y.T))
        rebuilt = rotation_matrix_components(*error_angles(x, y).T)
        yield "error-angle-composition", float(np.max(np.abs(rebuilt - relative))), 1e-12

    angle_sets = [rng.uniform(0.0, 2.0 * math.pi, size=(100, 3)) for _ in range(min(n, 7))]
    if wanted("wigner-unitarity"):
        unit_worst = 0.0
        for j, angles in enumerate(angle_sets):
            dmats = big_d_matrix(j, angles[:, 0], angles[:, 1], angles[:, 2])
            prod = dmats @ dmats.conj().swapaxes(-1, -2)
            unit_worst = max(unit_worst, float(np.max(np.abs(prod - np.eye(2 * j + 1)))))
        yield "wigner-unitarity", unit_worst, 1e-12

    if wanted("coefficients-vs-quadrature"):
        coeff_worst = 0.0
        for objective, fn in [
            (Objective.z_axis(), lambda a, b, g: np.cos(b)),
            (Objective.xy_axes(), lambda a, b, g: (1.0 + np.cos(b)) * np.cos(a + g)),
        ]:
            tensor = moment_tensor(objective.c, j_max)
            coeff_worst = max(coeff_worst, coefficient_deviation(tensor, fn, grid))
        yield "coefficients-vs-quadrature", coeff_worst, 1e-10

    fiducial = FiducialState.random(n, rng)
    if wanted("povm-completeness"):
        yield "povm-completeness", povm_defect(fiducial, grid), 1e-10


def cmd_verify(args, parser) -> int:
    if args.n < 1 or args.n > 6:
        parser.error("--n must be between 1 and 6 (oracle scale)")
    if args.check != "all" and not any(args.check in name for name in VERIFY_CHECKS):
        parser.error(f"--check {args.check!r} matches no check; valid names: "
                     + ", ".join(VERIFY_CHECKS))
    rows = []
    if not args.json:
        print(f"{'check':32s} {'worst':>12s} {'tol':>9s}  status")
    for name, worst, tol in _verify_checks(args.n, args.seed, args.check):
        rows.append({"name": name, "worst": worst, "tol": tol, "pass": bool(worst < tol)})
        if not args.json:
            print(f"{name:32s} {worst:12.3e} {tol:9.0e}  {'PASS' if rows[-1]['pass'] else 'FAIL'}")
    failures = [row for row in rows if not row["pass"]]
    if args.json:
        _emit_json({"checks": rows, "passed": not failures}, None)
    elif failures:
        offender = max(failures, key=lambda row: row["worst"] / row["tol"])
        print(f"FAILED: worst offender {offender['name']} deviates {_fmt(offender['worst'])} "
              f"(tol {offender['tol']:.0e})")
    else:
        print("all checks passed")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def cmd_sweep(args, parser) -> int:
    n_from, n_to = _parse_n_range(args.n, parser)
    objective = _objective_from_args(args, parser)
    if args.fit_from is not None and n_to - max(n_from, args.fit_from) + 1 < 3:
        parser.error("--fit-from leaves fewer than 3 rows to fit")
    rows = sweep(objective, n_from, n_to, tol=args.tol, max_iter=args.max_iter,
                 restarts=args.restarts, seed=args.seed)
    lines = ["n,d,lambda,mse_per_axis,converged"]
    lines += [
        f"{row.n},{row.d},{_fmt(row.lam)},{_fmt(row.mse_per_axis)},{str(row.converged).lower()}"
        for row in rows
    ]
    csv_text = "\n".join(lines) + "\n"
    output = _resolve_output(args.output)
    if output is None:
        sys.stdout.write(csv_text)
    else:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(csv_text, encoding="utf-8")
    if args.fit_from is not None:
        prefactor, exponent = fit_asymptote(rows, args.fit_from)
        fit_doc = {"prefactor": prefactor, "exponent": exponent, "fit_from": args.fit_from}
        if output is None:
            print(json.dumps(_round_floats(fit_doc), sort_keys=True))
        else:
            _emit_json(fit_doc, output.with_name(output.name + ".fit.json"))
    return EXIT_NOT_CONVERGED if any(not row.converged for row in rows) else EXIT_OK


def cmd_simulate(args, parser) -> int:
    if args.samples < 2:
        parser.error("--samples must be >= 2: a standard error needs two samples")
    if args.state_file is not None:
        names = ("n", "objective", "wz", "wxy", "tol", "max_iter")
        given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
        if given:
            parser.error(f"{', '.join(given)} would be ignored: --state-file fixes the state pair")
        try:
            doc = json.loads(Path(args.state_file).read_text(encoding="utf-8"))
            alice = AliceState.from_json(doc["alice"])
            fiducial = FiducialState.from_json(doc["fiducial"])
            if alice.n != fiducial.n:
                raise ValueError(f"alice has n = {alice.n} but fiducial has n = {fiducial.n}")
        except (OSError, KeyError, TypeError, ValueError) as exc:
            print(f"cannot read state file {args.state_file}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        # a state file is taken as it is; only an inline optimization can fail to converge
        converged = True
    else:
        if args.n is None:
            parser.error("provide --state-file or --n")
        args.objective = args.objective or "xyz"
        objective = _objective_from_args(args, parser)
        # the state optimize prints: its default restarts, seeded by --seed
        result = best_of_restarts(cached_tensor(objective, args.n - 1), args.n, DEFAULT_RESTARTS,
                                  args.seed, tol=args.tol or DEFAULT_TOL,
                                  max_iter=args.max_iter or DEFAULT_MAX_ITER)
        alice, fiducial, converged = result.a, result.b, result.converged
    # the exact sampler draws error rotations only; --true is echoed, not used
    outcome = monte_carlo_error(alice, fiducial, samples=args.samples, seed=args.seed,
                                keep_samples=args.raw_csv is not None)
    if args.raw_csv is not None:
        report, raw = outcome
        raw_path = _resolve_output(args.raw_csv)
        raw_path.parent.mkdir(parents=True, exist_ok=True)
        with open(raw_path, "w", encoding="utf-8") as fh:
            fh.write("alpha,beta,gamma,cos_x,cos_y,cos_z\n")
            for row in raw:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    else:
        report = outcome
    doc = report.to_json()
    doc["n"] = alice.n
    doc["seed"] = args.seed
    doc["true_rotation"] = args.true
    _emit_json(doc, _resolve_output(args.output))
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def _add_objective_flags(sub, default: str | None = "xyz"):
    sub.add_argument("--objective", choices=["z", "xy", "xyz", "weighted"], default=default)
    sub.add_argument("--wz", type=float, default=None, help="weight of the z term")
    sub.add_argument("--wxy", type=float, default=None, help="weight of the xy term")


def _add_common_optimize_flags(sub):
    sub.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL,
                     help="fixed-point tolerance on lambda")
    sub.add_argument("--max-iter", type=_positive_int, default=DEFAULT_MAX_ITER,
                     help="fixed-point iteration cap")
    sub.add_argument("--restarts", type=_non_negative_int, default=DEFAULT_RESTARTS,
                     help="seeded random restarts")
    sub.add_argument("--seed", type=_non_negative_int, default=0, help="master seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="framecast",
                     description="Optimal quantum transmission of a Cartesian frame")
    commands = parser.add_subparsers(dest="command", required=True)

    opt = commands.add_parser("optimize", help="fixed-point optimization at one n")
    opt.add_argument("--n", type=_positive_int, required=True, help="level number (dimension n^2)")
    _add_objective_flags(opt)
    _add_common_optimize_flags(opt)
    opt.add_argument("--output", default=None, help="JSON output path (default stdout)")
    opt.set_defaults(func=cmd_optimize, subparser=opt)

    ver = commands.add_parser("verify", help="run the oracle suites")
    ver.add_argument("--n", type=int, default=3, help="oracle scale (1..6)")
    ver.add_argument("--seed", type=_non_negative_int, default=0)
    ver.add_argument("--check", default="all",
                     help="substring filter: grid, geometry, wigner, coefficients, povm")
    ver.add_argument("--json", action="store_true",
                     help='print {"checks": [{"name", "worst", "tol", "pass"}], "passed"} '
                          "instead of the table")
    ver.set_defaults(func=cmd_verify, subparser=ver)

    swp = commands.add_parser("sweep", help="sweep n and emit CSV rows")
    swp.add_argument("--n", required=True, help="range like 2..10 (or a single n)")
    _add_objective_flags(swp)
    swp.add_argument("--fit-from", type=int, default=None,
                     help="fit a power law over rows with n >= this")
    _add_common_optimize_flags(swp)
    swp.add_argument("--output", default=None, help="CSV output path (default stdout)")
    swp.set_defaults(func=cmd_sweep, subparser=swp)

    sim = commands.add_parser("simulate", help="Monte Carlo measurement simulation")
    sim.add_argument("--state-file", default=None,
                     help="JSON produced by optimize (alice + fiducial)")
    sim.add_argument("--n", type=_positive_int, default=None, help="optimize inline at this n")
    _add_objective_flags(sim, default=None)  # None: --state-file refuses any given objective
    sim.add_argument("--samples", type=_positive_int, default=100_000)
    sim.add_argument("--seed", type=_non_negative_int, default=0)
    sim.add_argument("--true", choices=["haar", "identity"], default="haar",
                     help="true rotation: Haar-random per sample or fixed identity; "
                          "the measurement is covariant, so this does not change the output")
    sim.add_argument("--tol", type=_positive_float, default=None)
    sim.add_argument("--max-iter", type=_positive_int, default=None)
    sim.add_argument("--raw-csv", default=None, help="write per-sample rows here")
    sim.add_argument("--output", default=None, help="JSON output path (default stdout)")
    sim.set_defaults(func=cmd_simulate, subparser=sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, args.subparser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
