"""Span tracing of framecast from outside the package.

A traced run replaces each public function in the namespace of the module
that calls it (``optimizer.build_m``, ``simulator.big_d_matrix``,
``frames.coefficient_block`` and so on) with a wrapper that records a span.
The span is named after the module that defines the function, so all of a
layer's work collects under one prefix whichever module calls it. Nothing
under ``src/`` changes, and the untraced run never installs a wrapper.

Spans stay in memory as (name, start, end, parent) and are written as JSONL
when the run ends. A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import Counter, defaultdict

import numpy as np

from framecast import simulator

# (calling module, bound name, span name). A binding that a later version of
# the package no longer has is skipped and listed in Tracer.missing.
BINDINGS = (
    ("workloads", "cli_main", "cli.main"),
    ("workloads", "build_c", "frames.build_c"),
    ("workloads", "reduce_to_axes", "frames.reduce_to_axes"),
    ("workloads", "weighted_objective_expectation",
     "frames.weighted_objective_expectation"),
    ("framecast.cli", "sweep", "optimizer.sweep"),
    ("framecast.cli", "fixed_point_optimize", "optimizer.fixed_point"),
    ("framecast.cli", "cached_tensor", "coefficients.cached_tensor"),
    ("framecast.cli", "assemble_tensor", "coefficients.assemble_tensor"),
    ("framecast.cli", "fidelity_report", "objective.fidelity_report"),
    ("framecast.cli", "monte_carlo_error", "simulator.monte_carlo_error"),
    ("framecast.cli", "povm_defect", "simulator.povm_defect"),
    ("framecast.cli", "make_grid", "quadrature.make_grid"),
    ("framecast.cli", "integrate", "quadrature.integrate"),
    ("framecast.cli", "coefficient_block", "quadrature.coefficient_block"),
    ("framecast.cli", "big_d_matrix", "so3.big_d_matrix"),
    ("framecast.cli", "rotation_matrix_components", "so3.rotation_matrix_components"),
    ("framecast.cli", "rotation_matrix", "so3.rotation_matrix"),
    ("framecast.cli", "error_angles", "so3.error_angles"),
    ("framecast.optimizer", "fixed_point_optimize", "optimizer.fixed_point"),
    ("framecast.optimizer", "cached_tensor", "coefficients.cached_tensor"),
    ("framecast.optimizer", "build_m", "objective.build_m"),
    ("framecast.optimizer", "expected_value", "objective.expected_value"),
    ("framecast.coefficients", "assemble_tensor", "coefficients.assemble_tensor"),
    ("framecast.objective", "cached_tensor", "coefficients.cached_tensor"),
    ("framecast.objective", "build_m", "objective.build_m"),
    ("framecast.objective", "expected_value", "objective.expected_value"),
    ("framecast.simulator", "big_d_matrix", "so3.big_d_matrix"),
    ("framecast.simulator", "big_d_on_grid", "quadrature.big_d_on_grid"),
    ("framecast.simulator", "rotation_matrix_components", "so3.rotation_matrix_components"),
    ("framecast.quadrature", "big_d_matrix", "so3.big_d_matrix"),
    ("framecast.quadrature", "big_d_on_grid", "quadrature.big_d_on_grid"),
    ("framecast.frames", "rotation_entry_tensor", "frames.rotation_entry_tensor"),
    ("framecast.frames", "make_grid", "quadrature.make_grid"),
    ("framecast.frames", "coefficient_block", "quadrature.coefficient_block"),
    ("framecast.frames", "cached_tensor", "coefficients.cached_tensor"),
    ("framecast.frames", "build_m", "objective.build_m"),
    ("framecast.frames", "expected_value", "objective.expected_value"),
    ("framecast.frames", "rotation_matrix_components", "so3.rotation_matrix_components"),
)

MODULES = ("so3", "coefficients", "objective", "optimizer", "simulator", "quadrature", "frames")


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _count_d_elements(notes, args, kwargs, result, seconds):
    j = _arg(args, kwargs, 0, "j")
    angles = [_arg(args, kwargs, i, key) for i, key in enumerate(("alpha", "beta", "gamma"), 1)]
    notes["so3.d_elements"] += np.broadcast(*angles).size * (2 * j + 1) ** 2


def _count_tensor_entries(notes, args, kwargs, result, seconds):
    notes["coefficients.tensor_entries"] += len(result.entries)


def _count_rounds(notes, args, kwargs, result, seconds):
    notes["optimizer.rounds"] += result.iterations
    notes["optimizer.converged"] += bool(result.converged)
    notes[f"optimizer.level_s.{_arg(args, kwargs, 1, 'n')}"] += seconds


def _count_proposals(notes, args, kwargs, result, seconds):
    report = result[0] if isinstance(result, tuple) else result
    chunk = _arg(args, kwargs, 5, "chunk_size", getattr(simulator, "DEFAULT_CHUNK", 1))
    notes["simulator.samples"] += report.samples
    notes["simulator.proposals"] += round(report.samples / report.acceptance_rate)
    notes["simulator.chunks"] += math.ceil(report.samples / chunk)
    notes["simulator.n"] = _arg(args, kwargs, 0, "a").n


def _count_grid_nodes(notes, args, kwargs, result, seconds):
    notes["quadrature.grid_nodes"] += result.node_count


# per-span-name hooks that turn call arguments and results into work counts
HOOKS = {
    "so3.big_d_matrix": _count_d_elements,
    "coefficients.assemble_tensor": _count_tensor_entries,
    "optimizer.fixed_point": _count_rounds,
    "simulator.monte_carlo_error": _count_proposals,
    "quadrature.make_grid": _count_grid_nodes,
}


class Tracer:
    """Records spans for the bindings in BINDINGS while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.binding_calls: Counter = Counter()
        self.notes: defaultdict = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, span_name: str, binding: str):
        hook = HOOKS.get(span_name)

        def traced(*args, **kwargs):
            span = [span_name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self.binding_calls[binding] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.notes, args, kwargs, result, span[2] - span[1])
            return result

        return traced

    def __enter__(self):
        for module_name, attr, span_name in BINDINGS:
            module = importlib.import_module(module_name)
            binding = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            if not callable(getattr(module, attr, None)):
                self.missing.append(binding)
                continue
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, binding))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        return False

    def span_totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return totals

    def layer_metrics(self, wall_s: float, cache_deltas: dict) -> dict:
        """Per-layer metrics of one traced run of wall_s seconds."""
        totals = self.span_totals()
        notes, calls = self.notes, self.binding_calls

        def get(name, key):
            return totals[name][key] if name in totals else 0

        def ratio(num, den):
            return num / den if den else 0.0

        big_d_s = get("so3.big_d_matrix", "self_s")
        fp_calls = get("optimizer.fixed_point", "calls")
        levels = [int(key.rsplit(".", 1)[1]) for key in notes if key.startswith("optimizer.level_s.")]
        mc_s = get("simulator.monte_carlo_error", "total_s")
        lookups = calls["quadrature.big_d_on_grid"] + calls["simulator.big_d_on_grid"]
        d_misses = calls["quadrature.big_d_matrix"]
        sim_n = notes["simulator.n"]
        root_s = sum(end - start for _, start, end, parent in self.spans if parent is None)
        metrics = {
            "so3.big_d_matrix.calls": get("so3.big_d_matrix", "calls"),
            "so3.big_d_matrix.self_s": big_d_s,
            "so3.d_elements": int(notes["so3.d_elements"]),
            "so3.d_elements_per_s": ratio(notes["so3.d_elements"], big_d_s),
            "coefficients.assemble_tensor.self_s": get("coefficients.assemble_tensor", "self_s"),
            "coefficients.tensor_entries": int(notes["coefficients.tensor_entries"]),
            "coefficients.cache_hits": cache_deltas["coefficients.cache_hits"],
            "coefficients.cache_misses": cache_deltas["coefficients.cache_misses"],
            "objective.build_m.calls": get("objective.build_m", "calls"),
            "objective.build_m.self_s": get("objective.build_m", "self_s"),
            "optimizer.fixed_point.calls": fp_calls,
            "optimizer.fixed_point.self_s": get("optimizer.fixed_point", "self_s"),
            "optimizer.rounds": int(notes["optimizer.rounds"]),
            "optimizer.rounds_per_solve": ratio(notes["optimizer.rounds"], fp_calls),
            "optimizer.converged_ratio": ratio(notes["optimizer.converged"], fp_calls),
            "sweep.max_level_s": notes[f"optimizer.level_s.{max(levels)}"] if levels else 0.0,
            "simulator.monte_carlo_error.self_s": get("simulator.monte_carlo_error", "self_s"),
            "simulator.proposals": int(notes["simulator.proposals"]),
            "simulator.acceptance": ratio(notes["simulator.samples"], notes["simulator.proposals"]),
            "simulator.rejection_rounds": (
                calls["simulator.big_d_matrix"] / sim_n - notes["simulator.chunks"] if sim_n else 0.0
            ),
            "simulator.povm_defect.s": get("simulator.povm_defect", "total_s"),
            "mc.samples_per_s": ratio(notes["simulator.samples"], mc_s),
            "quadrature.make_grid.s": get("quadrature.make_grid", "total_s"),
            "quadrature.grid_nodes": int(notes["quadrature.grid_nodes"]),
            "quadrature.coefficient_block.calls": get("quadrature.coefficient_block", "calls"),
            "quadrature.coefficient_block.self_s": get("quadrature.coefficient_block", "self_s"),
            "quadrature.d_cache_misses": d_misses,
            "quadrature.d_cache_hit_ratio": ratio(lookups - d_misses, lookups),
            "frames.rotation_entry_tensor.misses": cache_deltas["frames.rotation_entry_tensor.misses"],
            "frames.rotation_entry_tensor.self_s": get("frames.rotation_entry_tensor", "self_s"),
            "frames.weighted_objective_expectation.s":
                get("frames.weighted_objective_expectation", "total_s"),
            "cli.main.self_s": get("cli.main", "self_s"),
            "trace.unattributed_s": wall_s - root_s,
            "trace.spans": len(self.spans),
        }
        for module in MODULES:
            metrics[f"{module}.self_s"] = sum(
                entry["self_s"] for name, entry in totals.items() if name.startswith(module + ".")
            )
        return metrics

    def write_jsonl(self, path, origin: float) -> None:
        """Append every span, times relative to origin, to a JSONL file."""
        with open(path, "a", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "span": index, "name": name,
                    "start": start - origin, "end": end - origin, "parent": parent,
                }) + "\n")
