"""The four benchmark workloads: inputs from a seed, the timed solve, output checks.

Each workload has three steps, run by worker.py in a fresh interpreter:

* ``setup(seed, size, workdir)`` makes every input from the seed (the same
  seed gives the same inputs) and returns them;
* ``solve(inputs)`` is the timed call a user waits for;
* ``check(inputs, outputs)`` returns ``(attempted, problems)``: the number of
  operations whose output was checked and one message per failed operation.

Workloads call ``framecast.cli.main`` and the public library functions
through the module-level names below, so the traced run can wrap them here
like any other calling module.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

from framecast.cli import main as cli_main
from framecast.coefficients import Objective, cached_tensor
from framecast.frames import (
    GramLikeMatrix,
    WeightedVectorSet,
    build_c,
    reduce_to_axes,
    weighted_objective_expectation,
)
from framecast.objective import AliceState, FiducialState, fidelity_report
from framecast.optimizer import fixed_point_optimize

REFERENCE = Path(__file__).resolve().parent / "reference" / "sweep_xyz.json"

# "full" is what the benchmark measures; "tiny" (n <= 3, a few hundred
# samples) is for the self-test of the harness.
SIZES = {
    "full": {
        "sweep-xyz": {"n_max": 14},
        "montecarlo": {"n": 5, "samples": 6000},
        "verify": {"n": 6, "calls": 4},
        "directions": {"n": 6, "sets": 8, "vectors": 6},
    },
    "tiny": {
        "sweep-xyz": {"n_max": 3},
        "montecarlo": {"n": 2, "samples": 300},
        "verify": {"n": 3, "calls": 1},
        "directions": {"n": 3, "sets": 2, "vectors": 4},
    },
}

SWEEP_TOL = 1e-9
CLOSED_FORM_TOL = 1e-10
MC_SIGMAS = 3.0


def run_cli(argv: list[str]) -> tuple[int, str]:
    """framecast.cli.main in-process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


# sweep-xyz: the documented sweep with its default 3 random restarts


def sweep_setup(seed: int, size: dict, workdir: Path) -> dict:
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))["lambda"]
    n_max = size["n_max"]
    return {
        "argv": ["sweep", "--objective", "xyz", "--n", f"2..{n_max}", "--seed", str(seed)],
        "expected": {n: table[str(n)] for n in range(2, n_max + 1)},
    }


def sweep_solve(inputs: dict):
    return run_cli(inputs["argv"])


def sweep_check(inputs: dict, outputs) -> tuple[int, list[str]]:
    code, text = outputs
    expected = inputs["expected"]
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != ["n", "d", "lambda", "mse_per_axis", "converged"]:
        return len(expected), [f"sweep: unexpected CSV header {reader.fieldnames}"]
    rows = {int(row["n"]): row for row in reader}
    problems = []
    for n, lam in expected.items():
        row = rows.get(n)
        if row is None:
            problems.append(f"sweep: no row for n={n}")
        elif abs(float(row["lambda"]) - lam) > SWEEP_TOL or row["converged"] != "true":
            problems.append(f"sweep: n={n} gave {row['lambda']} "
                            f"converged={row['converged']}, reference {lam}")
    if code != 0 and not problems:
        problems.append(f"sweep: exit code {code}")
    return len(expected), problems


# montecarlo: replay of the measurement on an optimized state pair


def montecarlo_setup(seed: int, size: dict, workdir: Path) -> dict:
    pair = workdir / "pair.json"
    code, _ = run_cli(["optimize", "--n", str(size["n"]), "--objective", "xyz",
                       "--seed", str(seed), "--output", str(pair)])
    if code != 0:
        raise RuntimeError(f"optimize for the Monte Carlo state pair exited with {code}")
    return {
        "pair": pair,
        "argv": ["simulate", "--state-file", str(pair), "--samples", str(size["samples"]),
                 "--seed", str(seed)],
    }


def montecarlo_solve(inputs: dict):
    return run_cli(inputs["argv"])


def montecarlo_check(inputs: dict, outputs) -> tuple[int, list[str]]:
    code, text = outputs
    if code != 0:
        return 1, [f"simulate: exit code {code}"]
    doc = json.loads(text)
    pair = json.loads(inputs["pair"].read_text(encoding="utf-8"))
    report = fidelity_report(AliceState.from_json(pair["alice"]),
                             FiducialState.from_json(pair["fiducial"]))
    problems = []
    for key, expected in (("cos_z", report.expect_cos_z),
                          ("cos_x_plus_y", report.expect_cos_xy),
                          ("cos_sum", report.expect_cos_sum)):
        mean, stderr = doc[f"mean_{key}"], doc[f"stderr_{key}"]
        if abs(mean - expected) > MC_SIGMAS * stderr:
            problems.append(f"simulate: mean_{key}={mean} is more than {MC_SIGMAS} "
                            f"standard errors ({stderr}) from {expected}")
    return 1, ["; ".join(problems)] if problems else []


def montecarlo_counts(outputs) -> dict:
    code, text = outputs
    if code != 0:
        return {}
    doc = json.loads(text)
    return {"simulator.proposals": round(doc["samples"] / doc["acceptance_rate"])}


# verify: the oracle suites over several seeds


def verify_setup(seed: int, size: dict, workdir: Path) -> dict:
    seeds = np.random.default_rng(seed).integers(0, 2**31, size["calls"])
    return {"argvs": [["verify", "--n", str(size["n"]), "--seed", str(s)] for s in seeds]}


def verify_solve(inputs: dict):
    return [run_cli(argv) for argv in inputs["argvs"]]


def verify_check(inputs: dict, outputs) -> tuple[int, list[str]]:
    problems = []
    for argv, (code, text) in zip(inputs["argvs"], outputs):
        lines = text.splitlines()
        checks = [line for line in lines[1:] if line.endswith(("PASS", "FAIL"))]
        if code != 0 or not checks or any(line.endswith("FAIL") for line in checks) \
                or lines[-1:] != ["all checks passed"]:
            problems.append(f"verify {' '.join(argv[1:])}: exit code {code}\n{text}")
    return len(inputs["argvs"]), problems


# directions: generic weighted direction sets through the frames reduction


def directions_setup(seed: int, size: dict, workdir: Path) -> dict:
    n = size["n"]
    result = fixed_point_optimize(cached_tensor(Objective.xyz_axes(), n - 1), n)
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(size["sets"]):
        vectors = rng.standard_normal((size["vectors"], 3))
        vectors /= np.linalg.norm(vectors, axis=1)[:, None]
        sets.append((vectors, rng.uniform(0.5, 2.0, size["vectors"])))
    return {"a": result.a, "b": result.b, "sets": sets}


def directions_solve(inputs: dict):
    out = []
    for vectors, weights in inputs["sets"]:
        gram = build_c(WeightedVectorSet(vectors, weights))
        axes, axis_weights = reduce_to_axes(gram)
        out.append((gram, axes, axis_weights,
                    weighted_objective_expectation(inputs["a"], inputs["b"], gram)))
    return out


def directions_check(inputs: dict, outputs) -> tuple[int, list[str]]:
    a, b = inputs["a"], inputs["b"]

    def expect(c) -> float:
        return weighted_objective_expectation(a, b, GramLikeMatrix(np.asarray(c, float)))

    # diag(1,0,0) and diag(0,1,0) have unequal x and y weights, so they take
    # the generic (quadrature) path; the z entry is diag(1,0,1) minus R_xx
    unit = np.eye(3)
    e_xx, e_yy = expect(np.diag([1, 0, 0])), expect(np.diag([0, 1, 0]))
    e_zz = expect(np.diag([1, 0, 1])) - e_xx
    closed = fidelity_report(a, b)
    problems = []
    if abs(e_xx + e_yy - closed.expect_cos_xy) > CLOSED_FORM_TOL \
            or abs(e_zz - closed.expect_cos_z) > CLOSED_FORM_TOL:
        problems.append(f"directions: quadrature path R_xx+R_yy={e_xx + e_yy}, R_zz={e_zz}; "
                        f"closed forms {closed.expect_cos_xy}, {closed.expect_cos_z}")
    # the expectation is linear in the symmetric moment matrix: predict each
    # set from the three diagonal probes and the three pair probes
    diag = [expect(np.outer(unit[i], unit[i])) for i in range(3)]
    pair = {(i, k): expect(np.outer(unit[i] + unit[k], unit[i] + unit[k])) - diag[i] - diag[k]
            for i in range(3) for k in range(i + 1, 3)}
    for index, (gram, axes, axis_weights, value) in enumerate(outputs):
        c = gram.c
        predicted = sum(c[i, i] * diag[i] for i in range(3)) \
            + sum(c[i, k] * s for (i, k), s in pair.items())
        rebuilt = axes.T @ np.diag(axis_weights) @ axes
        if abs(value - predicted) > CLOSED_FORM_TOL * max(1.0, abs(value)) \
                or np.max(np.abs(rebuilt - c)) > CLOSED_FORM_TOL * max(1.0, np.max(np.abs(c))):
            problems.append(f"directions: set {index} gave {value}, linear prediction "
                            f"{predicted}, axes rebuild error {np.max(np.abs(rebuilt - c))}")
    return len(outputs) + 1, problems


WORKLOADS = {
    "sweep-xyz": (sweep_setup, sweep_solve, sweep_check, None),
    "montecarlo": (montecarlo_setup, montecarlo_solve, montecarlo_check, montecarlo_counts),
    "verify": (verify_setup, verify_solve, verify_check, None),
    "directions": (directions_setup, directions_solve, directions_check, None),
}
