"""Shared fixtures: the two bundled runs, their references, one disk cache.

The heavy pipeline objects (adaptive runs, dense references) are session
scoped and share a snapshot cache directory, so the full suite performs each
eigensolve exactly once.  The adaptive runs and the dense references solve
their new points in up to two worker processes.  Wall-clock times of the
heavy fixtures are recorded so the acceptance tests can enforce their
runtime budgets honestly.
"""
from __future__ import annotations

import multiprocessing
import os
import shutil
import time
from importlib import resources
from pathlib import Path

import pytest

FIXTURE_SECONDS: dict[str, float] = {}
REFERENCE_JOBS = min(2, os.cpu_count() or 1)


def _timed(name: str, build):
    t0 = time.monotonic()
    value = build()
    FIXTURE_SECONDS[name] = time.monotonic() - t0
    return value

from eigentrack.config import parse_config
from eigentrack.eigensolver import SnapshotProvider
from eigentrack.propagation import (
    build_match_graph,
    default_root,
    propagate_labels,
    reference_solution,
)
from eigentrack.refinement import run_adaptive


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail the test that leaves a live child process, such as an unclosed
    worker pool, rather than a later one; the leaked children are ended."""
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join()
    if leaked:
        pytest.fail(f"test left {len(leaked)} live child process(es): {leaked}")


@pytest.fixture()
def pool_starts(monkeypatch) -> list[int]:
    """The worker count of every pool the solver starts during the test."""
    from eigentrack import eigensolver

    started = []
    start = eigensolver._solver_pool

    def counted(jobs):
        started.append(jobs)
        return start(jobs)

    monkeypatch.setattr(eigensolver, "_solver_pool", counted)
    return started


def bundled_config_text(name: str) -> str:
    return (resources.files("eigentrack") / "configs" / name).read_text()


def partition(labeling) -> set[frozenset]:
    """The labeling's surfaces as sets of (point, index) pairs, identifier-free."""
    return {frozenset(members) for members in labeling.surfaces().values()}


def copy_snapshots(source: Path, target: Path) -> Path:
    """A cache directory holding copies of the snapshot files of ``source`` only."""
    target.mkdir(parents=True, exist_ok=True)
    for path in source.glob("snap_*.npz"):
        shutil.copyfile(path, target / path.name)
    return target


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("snapshot_cache")


@pytest.fixture(scope="session")
def cfg_1d():
    return parse_config(bundled_config_text("paper_1d.cfg"))


@pytest.fixture(scope="session")
def cfg_2d():
    return parse_config(bundled_config_text("paper_2d.cfg"))


@pytest.fixture(scope="session")
def provider_1d(cfg_1d, cache_dir):
    return SnapshotProvider(cfg_1d, cache_dir=cache_dir / "run_1d")


@pytest.fixture(scope="session")
def provider_2d(cfg_2d, cache_dir):
    return SnapshotProvider(cfg_2d, cache_dir=cache_dir / "run_2d")


@pytest.fixture(scope="session")
def run_1d(cfg_1d, provider_1d):
    return _timed(
        "run_1d", lambda: run_adaptive(cfg_1d, provider=provider_1d, jobs=REFERENCE_JOBS)
    )


@pytest.fixture(scope="session")
def run_2d(cfg_2d, provider_2d):
    return _timed(
        "run_2d", lambda: run_adaptive(cfg_2d, provider=provider_2d, jobs=REFERENCE_JOBS)
    )


@pytest.fixture(scope="session")
def labeling_1d(run_1d):
    return propagate_labels(build_match_graph(run_1d), default_root(run_1d.points))


@pytest.fixture(scope="session")
def labeling_2d(run_2d):
    return propagate_labels(build_match_graph(run_2d), default_root(run_2d.points))


@pytest.fixture(scope="session")
def reference_1d(cfg_1d, provider_1d):
    return _timed(
        "reference_1d",
        lambda: reference_solution(cfg_1d, 129, provider=provider_1d, jobs=REFERENCE_JOBS),
    )


@pytest.fixture(scope="session")
def reference_2d(cfg_2d, provider_2d):
    return _timed(
        "reference_2d",
        lambda: reference_solution(cfg_2d, 17, provider=provider_2d, jobs=REFERENCE_JOBS),
    )


@pytest.fixture(scope="session")
def snapshots_41(cfg_1d, provider_1d):
    """The two snapshots of the worked subinterval, endpoints 0.4 and 0.7."""
    from eigentrack.grid import point_of_phys

    a = provider_1d.get(point_of_phys(["0.4"], cfg_1d.box))
    b = provider_1d.get(point_of_phys(["0.7"], cfg_1d.box))
    return a, b
