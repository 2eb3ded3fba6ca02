"""framecast benchmark: one command for every workload, metric and output check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition of the workload is a fresh
interpreter (perfbench/worker.py), because users pay cold caches and imports
on every CLI call. Repetitions run one at a time until --seconds is used up;
timings are medians over them. Set-up is sampled at least three times per
run, with extra set-up-only interpreters when fewer repetitions fit.

On a shared host the machine's speed drifts by 20% and more over tens of
seconds, which swamps raw timings. Every interpreter therefore also times a
fixed calibration kernel (worker.calibration_s) right after set-up and after
its solve. setup_s and wall_s are reported in reference seconds: the run's
total raw time divided by its total calibration time, times CAL_REF_S, the
kernel's time on a quiet 2-vCPU Xeon VM. On a quiet machine of that kind
they read as plain seconds; under drift they stay put. The traced run also
reports the raw medians (raw.setup_s, raw.wall_s, raw.calibration_s).

--trace 0 prints the end-to-end metrics of BENCHMARK.json, measured with
tracing off. --trace 1 alternates untraced and traced repetitions and prints
the per-layer metrics; their spans go to .bench_work/ as JSONL.

Exact-repeat counts (tensor entries, rounds, proposals, D elements, grid
nodes, cache misses) must be identical across repetitions and across runs
with the same seed, size and sources; a mismatch fails the run. The last line of
standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before anything can import numpy; every worker
# inherits it. At these sizes (d <= 196) a second OpenBLAS thread brings no
# speed-up but spins on the other core, which makes repeated runs less steady.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work"
MIN_SETUP_SAMPLES = 3
# calibration kernel time on a quiet 2-vCPU Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6, one OpenBLAS thread; it fixes the unit of setup_s and wall_s
CAL_REF_S = 0.12
# every worker must end well inside the 180 s a run may take
RUN_LIMIT_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _spawn(args, env, traced: bool, setup_only: bool, index: int, deadline: float) -> dict:
    """Run one worker interpreter and return its summary with set-up time added."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--trace", str(int(traced)),
           "--workdir", str(WORKDIR), "--run-id", f"{args.workload}-{args.seed}-{index}"]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd += ["--spans", str(_spans_path(args))]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    rep_doc = json.loads(proc.stdout.strip().splitlines()[-1])
    rep_doc["setup_s"] = rep_doc.pop("ready") - spawned
    rep_doc["elapsed_s"] = time.monotonic() - spawned
    rep_doc["traced"] = traced
    return rep_doc


def _stem(args) -> str:
    return f"{args.workload}-{args.size}-seed{args.seed}"


def _spans_path(args) -> Path:
    return WORKDIR / f"spans-{_stem(args)}.jsonl"


def _source_digest() -> str:
    """Digest of the program and benchmark sources; counts must repeat only for the same code."""
    digest = hashlib.sha256()
    paths = [*(ROOT / "src" / "framecast").rglob("*.py"), *HERE.rglob("*.py"), *HERE.rglob("*.json")]
    for path in sorted(p for p in paths if "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _check_counts(args, reps: list[dict]) -> list[str]:
    """Compare every repetition's counts with the first seen for this seed, size and code."""
    path = WORKDIR / f"counts-{_stem(args)}-{_source_digest()}.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    problems = []
    for index, rep in enumerate(reps):
        for key, value in rep.get("counts", {}).items():
            if key in known and known[key] != value:
                problems.append(f"count {key} is {value} in repetition {index}, "
                                f"{known[key]} before with the same seed")
            known.setdefault(key, value)
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return problems


def _calibrated(reps: list[dict], key: str) -> float:
    """Reference seconds: total raw time over total calibration time, times CAL_REF_S.

    Pooling the whole run's calibrations gave steadier figures than the
    median of per-repetition ratios.
    """
    return CAL_REF_S * sum(rep[key] for rep in reps) / sum(rep["calibration_s"] for rep in reps)


def _run_reps(args, env) -> tuple[list[dict], list[dict]]:
    """Repetitions until --seconds is used up, then enough set-up samples."""
    begin = time.monotonic()
    deadline = begin + RUN_LIMIT_S
    stop = begin + min(args.seconds, RUN_LIMIT_S)
    reps: list[dict] = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(_spawn(args, env, traced, False, len(reps), deadline))
        longest = max(rep["elapsed_s"] for rep in reps)
        enough = len(reps) >= (2 if args.trace else 1)
        if enough and time.monotonic() + longest > stop:
            break
    setups = list(reps)
    while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(_spawn(args, env, False, True, len(setups), deadline))
    return reps, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny (n <= 3) is the harness self-test size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "framecast" / "__init__.py").is_file():
        return _fail(f"no framecast sources under {ROOT / 'src'}; run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    WORKDIR.mkdir(exist_ok=True)
    if args.trace:
        _spans_path(args).write_text("", encoding="utf-8")
    try:
        reps, setups = _run_reps(args, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))

    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    problems = [p for rep in reps for p in rep["problems"]]
    count_problems = _check_counts(args, reps)
    attempted = sum(rep["attempted"] for rep in reps) + len(reps)
    failed = len(problems) + len(count_problems)

    values = {
        "setup_s": _calibrated(setups, "setup_s"),
        "wall_s": _calibrated(untraced, "wall_s"),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in untraced),
        "raw.setup_s": statistics.median(rep["setup_s"] for rep in setups),
        "raw.wall_s": statistics.median(rep["wall_s"] for rep in untraced),
        "raw.calibration_s": statistics.median(rep["calibration_s"] for rep in setups),
        "failed_ratio": failed / attempted,
    }
    if traced:
        for key in traced[0]["layers"]:
            layer = [rep["layers"][key] for rep in traced]
            # counts repeat exactly, so keep them whole numbers
            exact = all(isinstance(v, int) for v in layer)
            values[key] = (statistics.median_low if exact else statistics.median)(layer)
        values["trace.overhead_ratio"] = _calibrated(traced, "wall_s") / values["wall_s"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"metrics named in BENCHMARK.json were not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "env": reps[0]["env"], "missing_bindings": traced[0]["missing_bindings"] if traced else [],
        "problems": problems + count_problems,
        "setup_samples": [[rep["setup_s"], rep["calibration_s"]] for rep in setups], "reps": reps,
        "metrics": metrics,
    }
    (WORKDIR / f"result-{_stem(args)}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in problems + count_problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if record["missing_bindings"]:
        print(f"perfbench: bindings not traced: {record['missing_bindings']}", file=sys.stderr)
    print(json.dumps({"env": record["env"], "repetitions": len(reps),
                      "setup_samples": len(setups)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
