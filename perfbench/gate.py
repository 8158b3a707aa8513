"""Correctness gate applied to every benchmark job.

Three kinds of check:

* the paper's pinned numbers (2D: converged, 55-73 points, final level at
  most 7; 1D: the per-level trace and the wrongly-matched column);
* the seed run's certified grids and per-subinterval verdicts, exactly, and
  its eigenvalues within ``EIGENVALUE_RTOL`` (``expected/*.json``);
* report files that are byte-identical between the jobs of one benchmark
  run (checked by ``run.py``, which sees every job).

Eigenvalues are compared with a tolerance, not a digest, because a
legitimate solver change moves their last bits.  ``EIGENVALUE_RTOL`` is the
relative residual the program itself accepts for an eigenpair
(``eigensolver._RESIDUAL_TOL``); a missed or duplicated eigenvalue shifts
the sorted list by at least the smallest relative gap the pipeline resolves
(``t_lambda`` = 1e-3), five orders of magnitude above it.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

EIGENVALUE_RTOL = 1e-8
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

PINNED_1D_TRACE = [[3, 2, 2], [5, 4, 2], [7, 4, 1], [8, 2, 0]]
PINNED_1D_WRONG = [2, 3, 0, 0]


def _ref(point) -> list[list[int]]:
    return [[c.num, c.log2_den] for c in point.ref]


def observe_run(state, provider, reference=None, error_rows=None) -> dict:
    """Everything the gate compares, taken from one finished run."""
    level_of = {p: ls.level for ls in state.levels for p in ls.new_points}
    points = set(state.points) | set(reference.labels if reference else ())
    return {
        "terminated": state.terminated,
        "final_level": state.final_level,
        "levels": state.level_records(),
        "grid": [[level_of[p], _ref(p)] for p in sorted(state.points)],
        "verdicts": [
            [s.level, _ref(s.a), _ref(s.b), s.report.verdict] for s in state.subintervals
        ],
        "eigenvalues": {
            p.key(): [float(x) for x in provider.get(p).eigenvalues] for p in sorted(points)
        },
        "wrongly_matched": (
            None if error_rows is None else [r.wrongly_matched for r in error_rows]
        ),
    }


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text())


def pinned_errors(observed: dict, dim: int) -> list[str]:
    """The paper's pinned numbers for the bundled 1D and 2D runs."""
    errors = []
    if observed["terminated"] != "converged":
        errors.append(f"run terminated with {observed['terminated']!r}, not converged")
    if dim == 2:
        n_points = observed["levels"][-1]["points_total"]
        if not 55 <= n_points <= 73:
            errors.append(f"2D run has {n_points} points, outside 55-73")
        if observed["final_level"] > 7:
            errors.append(f"2D run ended at level {observed['final_level']} > 7")
    else:
        trace = [
            [r["points_total"], r["subintervals_checked"], r["subintervals_uncertified"]]
            for r in observed["levels"]
        ]
        if trace != PINNED_1D_TRACE:
            errors.append(f"1D per-level trace {trace} != {PINNED_1D_TRACE}")
        wrong = observed["wrongly_matched"]
        if wrong is not None and wrong != PINNED_1D_WRONG:
            errors.append(f"1D wrongly-matched column {wrong} != {PINNED_1D_WRONG}")
    return errors


def seed_errors(observed: dict, expected: dict) -> list[str]:
    """Exact grids, verdicts and level records; eigenvalues within the tolerance."""
    errors = []
    for key in ("terminated", "final_level", "levels", "grid", "verdicts", "wrongly_matched"):
        if observed[key] != expected[key]:
            errors.append(f"{key} differs from the seed run")
    got, want = observed["eigenvalues"], expected["eigenvalues"]
    if sorted(got) != sorted(want):
        errors.append("eigenvalues were computed at other points than in the seed run")
        return errors
    for key in sorted(want):
        a, b = np.asarray(got[key]), np.asarray(want[key])
        if a.shape != b.shape:
            errors.append(f"point {key}: {a.size} eigenvalues in the window, seed run had {b.size}")
        elif not np.allclose(a, b, rtol=EIGENVALUE_RTOL, atol=0.0):
            worst = float(np.max(np.abs(a - b) / np.abs(b)))
            errors.append(f"point {key}: eigenvalues differ by {worst:.2e} relative")
    return errors


def check_queries(surrogate, queries, values) -> list[str]:
    """A linear interpolant stays within the range of its surface's samples."""
    errors = []
    defined = 0
    for (sid, mu), value in zip(queries, values):
        if value is None:
            continue
        defined += 1
        samples = surrogate.surfaces[sid].values
        if not samples.min() - 1e-9 * abs(samples.min()) <= value <= samples.max() * (1 + 1e-9):
            errors.append(f"surface {sid} at {mu}: {value} outside its sample range")
            break
    if defined == 0:
        errors.append("no surrogate query returned a value")
    return errors
