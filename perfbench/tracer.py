"""Timing wrappers installed around eigentrack's layers from outside the program.

``Tracer.install()`` replaces each callable in ``TARGETS`` with a wrapper that
records a span (name, start, end, parent span) and, for some callables, a
count read from the arguments or the result.  A module that imported a
function by name holds its own reference, so every global of an
``eigentrack`` module bound to the original is replaced as well.
``restore()`` puts every original back.  Nothing under ``src/`` is edited.

The wrappers live only in the process that installs them.  Pool workers
forked by ``SnapshotProvider.ensure(jobs > 1)`` inherit them, but their
records die with the worker; in that case the pool is the single span
``eigensolver.ensure`` and solves are counted as snapshot
files created.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter


def _eigsh_k(counts, result, args, kwargs):
    counts["eigensolver.eigsh_calls"] += 1
    counts["eigensolver.eigsh_k_sum"] += int(kwargs.get("k", args[1] if len(args) > 1 else 6))


def _window_pairs(counts, result, args, kwargs):
    counts["eigensolver.window_pairs"] += len(result[0])


def _cache_hit(counts, result, args, kwargs):
    counts["eigensolver.cache_hits"] += result is not None


def _cost_entries(counts, result, args, kwargs):
    counts["matching.cost_entries"] += int(result.values.size)


def _verdict(counts, result, args, kwargs):
    counts["verification.checked"] += 1
    counts["verification.certified"] += int(result.certified)


# (module, attribute path, span name or None for a count only, observer).
# SnapshotProvider._load is counted but is not a span, so that cache reads
# stay in the self time of SnapshotProvider.get.  Misses are not counted
# here: one missing point is looked up twice (by ensure, then by get), and
# pool workers look up in their own processes.  The job counts the snapshot
# files it created instead.
TARGETS = [
    ("eigentrack.fem", "build_mesh", "fem.build_mesh", None),
    ("eigentrack.fem", "assemble_mass", "fem.assemble_mass", None),
    ("eigentrack.fem", "assemble_stiffness", "fem.assemble_stiffness", None),
    ("scipy.sparse.linalg", "eigsh", "eigensolver.eigsh", _eigsh_k),
    ("eigentrack.eigensolver", "solve_window", "eigensolver.solve_window", _window_pairs),
    ("eigentrack.eigensolver", "SnapshotProvider.get", "eigensolver.get", None),
    ("eigentrack.eigensolver", "SnapshotProvider.ensure", "eigensolver.ensure", None),
    ("eigentrack.eigensolver", "SnapshotProvider._load", None, _cache_hit),
    ("eigentrack.matching", "cost_matrix", "matching.cost_matrix", _cost_entries),
    ("eigentrack.matching", "solve_assignment", "matching.solve_assignment", None),
    ("eigentrack.matching", "apriori_match", "matching.apriori_match", None),
    ("eigentrack.verification", "verify", "verification.verify", _verdict),
    ("eigentrack.refinement", "run_adaptive", "refinement.run_adaptive", None),
    ("eigentrack.refinement", "refine_level", "refinement.refine_level", None),
    ("eigentrack.refinement", "check_subinterval", "refinement.check_subinterval", None),
    ("eigentrack.propagation", "build_match_graph", "propagation.build_match_graph", None),
    ("eigentrack.propagation", "propagate_labels", "propagation.propagate_labels", None),
    ("eigentrack.propagation", "reference_solution", "propagation.reference_solution", None),
    ("eigentrack.propagation", "compare_labelings", "propagation.compare_labelings", None),
    ("eigentrack.surrogate", "build_surrogate", "surrogate.build_surrogate", None),
    ("eigentrack.surrogate", "eval_surrogate", "surrogate.eval_surrogate", None),
    ("eigentrack.reports", "emit_reports", "reports.emit_reports", None),
    ("eigentrack.reports", "write_error_table", "reports.write_error_table", None),
]


class Tracer:
    """Spans and counters for one process; install() before the run, restore() after."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, observe):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append([name, clock(), None, stack[-1] if stack else -1])
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = clock()
            if observe is not None:
                observe(counts, result, args, kwargs)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for module_name, path, name, observe in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, observe)
            self._patch(owner, attr, wrapper)
            if outer:
                continue   # methods are looked up on the class only
            for mod_name, module in list(sys.modules.items()):
                if not mod_name.startswith("eigentrack") or module is owner:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def high_percentile(samples) -> float:
    """The highest order statistic with at least ten samples above it.

    With 20 or fewer samples no such percentile above the median exists, and
    the median is returned instead.
    """
    if len(samples) <= 20:
        return statistics.median(samples) if samples else 0.0
    return sorted(samples)[len(samples) - 11]


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer totals, self times and percentiles of one traced job."""
    durations: dict[str, list[float]] = {}
    self_time: dict[str, float] = {}
    child_sum = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_sum[parent] += end - start
    for (name, start, end, _), inner in zip(spans, child_sum):
        durations.setdefault(name, []).append(end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - inner

    def total(name):
        return sum(durations.get(name, ()))

    def calls(name):
        return len(durations.get(name, ()))

    def p50(name, scale):
        d = durations.get(name)
        return statistics.median(d) * scale if d else 0.0

    def phigh(name, scale):
        return high_percentile(durations.get(name, ())) * scale

    k_sum = counts["eigensolver.eigsh_k_sum"]
    checked = counts["verification.checked"]
    return {
        "fem.assemble_stiffness_s": total("fem.assemble_stiffness"),
        "fem.assemble_stiffness_calls": calls("fem.assemble_stiffness"),
        "fem.setup_s": total("fem.build_mesh") + total("fem.assemble_mass"),
        "eigensolver.solve_window_s": total("eigensolver.solve_window"),
        "eigensolver.solve_window_calls": calls("eigensolver.solve_window"),
        "eigensolver.solve_window_p50_ms": p50("eigensolver.solve_window", 1e3),
        "eigensolver.solve_window_phigh_ms": phigh("eigensolver.solve_window", 1e3),
        "eigensolver.eigsh_calls": counts["eigensolver.eigsh_calls"],
        "eigensolver.eigsh_k_sum": k_sum,
        "eigensolver.window_yield": counts["eigensolver.window_pairs"] / k_sum if k_sum else 0.0,
        "eigensolver.get_self_s": self_time.get("eigensolver.get", 0.0),
        "eigensolver.cache_hits": counts["eigensolver.cache_hits"],
        "eigensolver.ensure_s": self_time.get("eigensolver.ensure", 0.0),
        "matching.cost_matrix_s": total("matching.cost_matrix"),
        "matching.cost_matrix_calls": calls("matching.cost_matrix"),
        "matching.cost_entries": counts["matching.cost_entries"],
        "matching.solve_assignment_s": total("matching.solve_assignment"),
        "matching.assignment_calls": calls("matching.solve_assignment"),
        "matching.assignment_p50_ms": p50("matching.solve_assignment", 1e3),
        "matching.assignment_phigh_ms": phigh("matching.solve_assignment", 1e3),
        "verification.verify_s": total("verification.verify"),
        "verification.certified_ratio": counts["verification.certified"] / checked if checked else 0.0,
        "refinement.check_subinterval_calls": calls("refinement.check_subinterval"),
        "refinement.check_subinterval_p50_ms": p50("refinement.check_subinterval", 1e3),
        "refinement.check_subinterval_phigh_ms": phigh("refinement.check_subinterval", 1e3),
        "refinement.self_s": sum(
            self_time.get(f"refinement.{n}", 0.0)
            for n in ("run_adaptive", "refine_level", "check_subinterval")
        ),
        "propagation.propagate_s": total("propagation.propagate_labels"),
        "propagation.reference_self_s": self_time.get("propagation.reference_solution", 0.0),
        "propagation.compare_s": total("propagation.compare_labelings"),
        "surrogate.build_s": total("surrogate.build_surrogate"),
        "surrogate.eval_calls": calls("surrogate.eval_surrogate"),
        "surrogate.eval_p50_us": p50("surrogate.eval_surrogate", 1e6),
        "surrogate.eval_phigh_us": phigh("surrogate.eval_surrogate", 1e6),
        "reports.emit_s": total("reports.emit_reports") + total("reports.write_error_table"),
    }


# Counts that must repeat exactly between two traced runs of one workload.
EXACT_COUNTS = (
    "fem.assemble_stiffness_calls",
    "eigensolver.solve_window_calls",
    "eigensolver.eigsh_calls",
    "eigensolver.eigsh_k_sum",
    "eigensolver.window_yield",
    "eigensolver.cache_hits",
    "eigensolver.cache_misses",
    "matching.cost_matrix_calls",
    "matching.cost_entries",
    "matching.assignment_calls",
    "verification.certified_ratio",
    "refinement.check_subinterval_calls",
)
