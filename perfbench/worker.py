"""One repetition of one workload in a fresh interpreter; started by run.py.

Prints one JSON line: the monotonic time at which the inputs were ready (the
end of set-up), the calibration time, the solve time, peak RSS, the output
check, the exact-repeat counts and, when traced, the per-layer metrics. A fresh interpreter means
every cache starts cold, as it does on each CLI call; the worker refuses to
run if the package's caches are already filled.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import workloads
from framecast import coefficients, frames
from tracer import Tracer

# calibration kernels timed on each side of the solve
CALIBRATION_RUNS = 3

# counts that must repeat exactly for a given seed and size
COUNT_KEYS = (
    "coefficients.tensor_entries",
    "coefficients.cache_misses",
    "optimizer.rounds",
    "simulator.proposals",
    "so3.d_elements",
    "quadrature.grid_nodes",
    "quadrature.d_cache_misses",
    "frames.rotation_entry_tensor.misses",
)


def _cache_infos() -> dict:
    caches = {"coefficients": coefficients.cached_tensor,
              "frames.rotation_entry_tensor": frames.rotation_entry_tensor}
    return {name: fn.cache_info() for name, fn in caches.items() if hasattr(fn, "cache_info")}


def _cache_deltas(before: dict, after: dict) -> dict:
    def delta(name, field):
        if name not in after:
            return 0
        return getattr(after[name], field) - getattr(before[name], field)

    return {
        "coefficients.cache_hits": delta("coefficients", "hits"),
        "coefficients.cache_misses": delta("coefficients", "misses"),
        "frames.rotation_entry_tensor.misses": delta("frames.rotation_entry_tensor", "misses"),
    }


def calibration_s() -> float:
    """Seconds for a fixed mix of interpreter, numpy and LAPACK work.

    It shares no code with framecast. Timed right before and after each
    solve, it measures how fast the machine runs at that moment: on a shared
    host that speed drifts by 20% and more over tens of seconds, and dividing
    the solve time by it cancels most of the drift (see run.py).
    """
    rng = np.random.default_rng(0)
    angles = rng.uniform(0.0, np.pi, 4096)
    mat = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    mat = mat + mat.conj().T
    start = time.perf_counter()
    table: dict = {}
    for i in range(150000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + math.sqrt(i)
    for _ in range(250):
        half = angles / 2.0
        np.sin(half) ** 3 * np.cos(half) ** 2 * np.exp(1j * angles)
    for _ in range(25):
        np.linalg.eigh(mat)
    return time.perf_counter() - start


def environment() -> dict:
    """Machine and library versions the numbers were taken with."""
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="JSONL file the traced run appends to")
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args(argv)

    warm = [name for name, info in _cache_infos().items() if info.currsize]
    if warm:
        print(f"caches are not cold at start: {warm}", file=sys.stderr)
        return 1
    setup, solve, check, output_counts = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed, workloads.SIZES[args.size][args.workload], args.workdir)
    summary = {"ready": time.monotonic(), "env": environment()}
    calibration = sum(calibration_s() for _ in range(CALIBRATION_RUNS))
    if args.setup_only:
        summary["calibration_s"] = calibration / CALIBRATION_RUNS
        print(json.dumps(summary))
        return 0

    before = _cache_infos()
    tracer = Tracer(args.run_id) if args.trace else None
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        outputs = solve(inputs)
        wall_s = time.perf_counter() - start
    calibration += sum(calibration_s() for _ in range(CALIBRATION_RUNS))
    calibration /= 2 * CALIBRATION_RUNS
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    deltas = _cache_deltas(before, _cache_infos())

    counts = {key: deltas[key] for key in COUNT_KEYS if key in deltas}
    if output_counts is not None:
        counts.update(output_counts(outputs))
    if tracer is not None:
        layers = tracer.layer_metrics(wall_s, deltas)
        counts.update({key: layers[key] for key in COUNT_KEYS})
        summary.update(layers=layers, missing_bindings=tracer.missing)
        if args.spans is not None:
            tracer.write_jsonl(args.spans, start)
    attempted, problems = check(inputs, outputs)
    summary.update(wall_s=wall_s, calibration_s=calibration,
                   peak_rss_mb=peak_rss_mb, attempted=attempted,
                   problems=problems, counts=counts)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
