"""Self-test of the benchmark harness at tiny sizes (n <= 3, a few hundred samples).

Runs perfbench/run.py the way the benchmark is run, so a change that breaks
the harness, a workload's output check or a traced binding fails here
without running the full benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, seed=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(seed), "--seconds", "1",
         "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_checks_outputs_and_reports_every_layer(workload):
    result = result_of(run_bench("--workload", workload, "--trace", "1"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["trace.spans"]["value"] > 0
    assert sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s")) > 0


def test_untraced_run_reports_end_to_end_metrics():
    result = result_of(run_bench("--workload", "verify", "--trace", "0"))
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())


def test_count_mismatch_fails_the_run():
    seed = 424242
    assert result_of(run_bench("--workload", "verify", "--trace", "0", seed=seed))["correct"]
    records = list((ROOT / ".bench_work").glob(f"counts-verify-tiny-seed{seed}-*.json"))
    assert records
    try:
        for record in records:
            record.write_text(json.dumps({"coefficients.cache_misses": -1}), encoding="utf-8")
        result = result_of(run_bench("--workload", "verify", "--trace", "0", seed=seed))
    finally:
        for record in records:
            record.unlink()
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "verify", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
