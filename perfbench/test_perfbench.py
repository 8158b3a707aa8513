"""Tests of the benchmark itself.  Run with:  python3 -m pytest perfbench -q"""
from __future__ import annotations

import copy
import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
from job import ROOT, file_digests, import_eigentrack, run_pipeline, snapshot_files, traced_layers
from tracer import EXACT_COUNTS, TARGETS, Tracer, high_percentile

import_eigentrack()

from eigentrack.config import parse_config_file  # noqa: E402
from eigentrack.eigensolver import SnapshotProvider  # noqa: E402


def _bound_references():
    """Every (owner, attribute, object) through which a traced callable is reached."""
    refs = []
    for module_name, path, _, _ in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        refs.append((owner, attr, original))
        if not outer:
            for name, module in list(sys.modules.items()):
                if name.startswith("eigentrack"):
                    refs += [(module, k, v) for k, v in vars(module).items() if v is original]
    return refs


def test_wrappers_are_installed_everywhere_and_restored():
    importlib.import_module("eigentrack.cli")   # the module with the most aliases
    refs = _bound_references()
    with Tracer():
        for owner, attr, original in refs:
            assert getattr(owner, attr) is not original, f"{owner}.{attr} was not wrapped"
    for owner, attr, original in refs:
        assert getattr(owner, attr) is original, f"{owner}.{attr} was not restored"


def _run_1d(tmp_path: Path, name: str, traced: bool):
    cfg = parse_config_file(ROOT / "configs" / "paper_1d.cfg")
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        provider = SnapshotProvider(cfg, cache_dir=tmp_path / name / "cache")
        state = run_pipeline(cfg, provider, tmp_path / name / "out", jobs=1)[0]
    finally:
        if tracer is not None:
            tracer.restore()
    digests = file_digests(tmp_path / name / "out")
    if not traced:
        return digests, None
    created = snapshot_files(tmp_path / name / "cache")
    return digests, traced_layers(tracer, created, state, report_bytes=0)


def test_counts_repeat_exactly_and_tracing_leaves_reports_unchanged(tmp_path):
    plain, _ = _run_1d(tmp_path, "plain", traced=False)
    first, layers_1 = _run_1d(tmp_path, "traced_1", traced=True)
    second, layers_2 = _run_1d(tmp_path, "traced_2", traced=True)

    assert plain and plain == first == second
    for key in EXACT_COUNTS:
        assert layers_1[key] == layers_2[key], key
    assert layers_1["eigensolver.eigsh_calls"] > 0
    assert layers_1["eigensolver.cache_misses"] == 8    # 8 adaptive points, cold cache
    assert layers_1["eigensolver.cache_hits"] == 0
    assert layers_1["matching.cost_matrix_calls"] == 12  # the 12 checked subintervals
    assert 0 < layers_1["eigensolver.window_yield"] <= 1


def test_gate_accepts_solver_noise_and_rejects_changed_results():
    expected = gate.load_expected("compare_1d")
    assert gate.pinned_errors(expected, dim=1) == []
    assert gate.seed_errors(copy.deepcopy(expected), expected) == []

    key = sorted(expected["eigenvalues"])[0]
    noisy = copy.deepcopy(expected)
    noisy["eigenvalues"][key][0] *= 1 + 1e-10
    assert gate.seed_errors(noisy, expected) == []

    moved = copy.deepcopy(expected)
    moved["eigenvalues"][key][0] *= 1 + 1e-6
    assert gate.seed_errors(moved, expected)

    dropped = copy.deepcopy(expected)
    dropped["eigenvalues"][key] = dropped["eigenvalues"][key][1:]
    assert gate.seed_errors(dropped, expected)

    flipped = copy.deepcopy(expected)
    flipped["verdicts"][0][3] = "refine" if flipped["verdicts"][0][3] != "refine" else "certified"
    assert gate.seed_errors(flipped, expected)

    wrong = copy.deepcopy(expected)
    wrong["wrongly_matched"] = [2, 3, 1, 0]
    assert gate.pinned_errors(wrong, dim=1)


@pytest.mark.parametrize(
    "n, expected", [(0, 0.0), (1, 0.0), (12, 5.5), (20, 9.5), (21, 10.0), (143, 132.0)]
)
def test_high_percentile_leaves_ten_samples_above(n, expected):
    assert high_percentile([float(i) for i in range(n)]) == expected


def test_benchmark_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adaptive_2d_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
