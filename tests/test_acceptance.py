"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear.  Every tolerance is pinned here, not computed elsewhere.
"""
import itertools
import time
from fractions import Fraction

import numpy as np
from eigentrack.eigensolver import solve_window
from eigentrack.fem import assemble_mass, assemble_stiffness, build_mesh
from eigentrack.grid import (
    ParamPoint,
    dyadic,
    forward_points,
    gamma_set,
    midpoint,
    neighbours,
    point_of_phys,
)
from eigentrack.matching import CostMatrix, apriori_match, solve_assignment
from eigentrack.propagation import compare_labelings
from eigentrack.refinement import CONVERGED
from eigentrack.verification import REFINE, verify

PI2 = np.pi**2


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


class TestCriterion1AnalyticSpectrum:
    def test_laplacian_eigenvalues_and_rate(self):
        t0 = time.monotonic()
        errors = {}
        for n in (33, 65):
            mesh = build_mesh(n)
            A = assemble_stiffness(mesh, np.eye(2))
            B = assemble_mass(mesh)
            w, _ = solve_window(A, B, (0.0, 100.0))
            exact = np.array([2.0, 5.0, 5.0, 8.0]) * PI2
            rel = np.abs(w[:4] - exact) / exact
            errors[n] = (w, rel)
        w65, rel65 = errors[65]
        within_1pct = len(w65) >= 4 and np.all(rel65 < 0.01)
        ratio = (errors[33][0][0] - 2 * PI2) / (w65[0] - 2 * PI2)
        rate_ok = 3.0 <= ratio <= 5.0
        elapsed = time.monotonic() - t0
        _criterion(
            1,
            within_1pct and rate_ok and elapsed < 30.0,
            f"four smallest vs (m^2+n^2)pi^2 max rel err {rel65.max():.4f} (<0.01), "
            f"h-halving error ratio {ratio:.2f} in [3,5], {elapsed:.1f}s (<30s)",
        )


class TestCriterion2SnapshotFixture:
    def test_window_counts_and_values(self, cfg_1d, provider_1d):
        t0 = time.monotonic()
        quoted = {
            "0.4": (80.8, 137.9, 230.6, 265.9),
            "0.7": (38.2, 81.1, 109.7, 129.4, 188.6, 189.9, 214.8, 260.9, 261.9),
        }
        ok, worst = True, 0.0
        for mu, vals in quoted.items():
            snap = provider_1d.get(point_of_phys([mu], cfg_1d.box))
            if snap.n != len(vals):
                ok = False
                break
            rel = np.abs(snap.eigenvalues - np.array(vals)) / np.array(vals)
            worst = max(worst, rel.max())
            ok = ok and bool(np.all(rel < 0.015))
        elapsed = time.monotonic() - t0
        _criterion(
            2,
            ok and elapsed < 60.0,
            f"4 and 9 window eigenvalues, max rel dev {worst:.4f} (<0.015), "
            f"{elapsed:.1f}s (<60s)",
        )


class TestCriterion3MatchingFixture:
    def test_assignment_and_reordering(self, snapshots_41, provider_1d):
        snap_a, snap_b = snapshots_41
        assignment, _, _, matched_b = apriori_match(
            snap_a, snap_b, provider_1d.mass, 1.0, 200.0
        )
        sigma_ok = tuple(s + 1 for s in assignment.sigma) == (1, 2, 5, 8)
        quoted = np.array(
            (38.2, 81.1, 188.6, 260.9, 109.7, 129.4, 189.9, 214.8, 261.9)
        )
        rel = np.abs(matched_b - quoted) / quoted
        _criterion(
            3,
            sigma_ok and bool(np.all(rel < 0.015)),
            f"sigma*=(1,2,5,8) and reordered list positional "
            f"(max rel dev {rel.max():.4f})",
        )


class TestCriterion4VerificationFixture:
    def test_truncation_and_verdict(self, snapshots_41, provider_1d):
        snap_a, snap_b = snapshots_41
        _, pi, la, lb = apriori_match(snap_a, snap_b, provider_1d.mass, 1.0, 200.0)
        quoted = {(0, 0): 0.997, (1, 1): 0.778, (1, 4): 0.622, (3, 1): 0.617}
        entries_ok = all(abs(pi[idx] - val) < 0.02 for idx, val in quoted.items())
        report = verify(pi, la, lb, 0.21, 0.001)
        first, second = report.diagnostics[0], report.diagnostics[1]
        shape_ok = (
            len(first.r1) == 1 == len(first.r2)
            and len(second.r1) == 2 == len(second.r2)
            and report.clusters == ()
            and report.verdict == REFINE
            and report.failed_at == 1
        )
        _criterion(
            4,
            entries_ok and shape_ok,
            "j=1 certifies, j=2 has |r1|=|r2|=2 with no cluster, verdict refine, "
            "projection entries within 0.02",
        )


class TestCriterion5Full1DRun:
    def test_trace_grid_and_error_table(
        self, run_1d, labeling_1d, reference_1d
    ):
        from tests.conftest import FIXTURE_SECONDS

        t0 = time.monotonic()
        recs = run_1d.level_records()
        trace = [
            (r["points_total"], r["subintervals_checked"], r["subintervals_uncertified"])
            for r in recs
        ]
        trace_ok = trace == [(3, 2, 2), (5, 4, 2), (7, 4, 1), (8, 2, 0)]
        level_ok = run_1d.terminated == CONVERGED and run_1d.final_level == 3

        want = [
            Fraction(2, 5), Fraction(11, 20), Fraction(5, 8), Fraction(7, 10),
            Fraction(31, 40), Fraction(13, 16), Fraction(17, 20), Fraction(1),
        ]
        got = sorted(
            Fraction(2, 5) + Fraction(3, 5) * (c.fraction + 1) / 2
            for c in (p.ref[0] for p in run_1d.points)
        )
        grid_ok = got == want

        rows = compare_labelings(labeling_1d, reference_1d, run_1d)
        wrong_ok = [r.wrongly_matched for r in rows] == [2, 3, 0, 0]
        elapsed = (
            time.monotonic() - t0
            + FIXTURE_SECONDS.get("run_1d", 0.0)
            + FIXTURE_SECONDS.get("reference_1d", 0.0)
        )
        _criterion(
            5,
            trace_ok and level_ok and grid_ok and wrong_ok and elapsed < 300.0,
            f"converged at level 3, exact final grid, per-level rows per the "
            f"quoted table, wrongly-matched column (2,3,0,0), {elapsed:.1f}s "
            f"including the run and the 129-point reference (<300s)",
        )


class TestCriterion6Full2DRun:
    def test_convergence_envelope_and_refinement_pattern(
        self, run_2d, provider_2d, reference_2d
    ):
        from tests.conftest import FIXTURE_SECONDS

        t0 = time.monotonic()
        recs = run_2d.level_records()
        converged_ok = (
            run_2d.terminated == CONVERGED
            and run_2d.final_level <= 7
            and recs[-1]["subintervals_uncertified"] == 0
        )
        points_ok = 55 <= len(run_2d.points) <= 73

        # structural check: every added point is the midpoint of an
        # uncertified subinterval checked at the previous level
        structural_ok = True
        for prev, cur in zip(run_2d.levels, run_2d.levels[1:]):
            marked = {
                midpoint(s.a, s.b, run_2d.cfg.box)
                for s in run_2d.checked_at(prev.level)
                if not s.certified
            }
            structural_ok = structural_ok and cur.new_points == frozenset(
                marked - prev.points
            )

        # refinement concentrates in the half-box where reference surfaces
        # 4 and 7 come closest
        def lam_of(point, sid):
            ids = reference_2d.labels[point]
            if sid not in ids:
                return None
            return provider_2d.get(point).eigenvalues[ids.index(sid)]

        split = sum(run_2d.cfg.box[0]) / 2.0
        gap_low, gap_high = np.inf, np.inf
        for p in reference_2d.labels:
            a, b = lam_of(p, 4), lam_of(p, 7)
            if a is None or b is None:
                continue
            gap = abs(a - b)
            if p.phys[0] <= split:
                gap_low = min(gap_low, gap)
            if p.phys[0] >= split:
                gap_high = min(gap_high, gap)
        added = [p for ls in run_2d.levels[1:] for p in ls.new_points]
        if gap_high < gap_low:
            inside = sum(1 for p in added if p.phys[0] >= split)
        else:
            inside = sum(1 for p in added if p.phys[0] <= split)
        fraction = inside / len(added)
        pattern_ok = fraction >= 0.70

        elapsed = (
            time.monotonic() - t0
            + FIXTURE_SECONDS.get("run_2d", 0.0)
            + FIXTURE_SECONDS.get("reference_2d", 0.0)
        )
        _criterion(
            6,
            converged_ok and points_ok and structural_ok and pattern_ok
            and elapsed < 1800.0,
            f"converged at level {run_2d.final_level} (<=7) with "
            f"{len(run_2d.points)} points (in [55,73]), all added points are "
            f"marked midpoints, {fraction:.0%} of added points in the "
            f"smaller-gap half-box (>=70%), {elapsed:.0f}s including the run "
            f"and the 17x17 reference (<1800s)",
        )


class TestCriterion7AssignmentOracle:
    def test_500_random_rectangular(self):
        rng = np.random.default_rng(2024)

        def brute_force_min(values):
            if values.shape[0] > values.shape[1]:
                values = values.T
            r, c = values.shape
            best = np.inf
            for perm in itertools.permutations(range(c), r):
                s = 0.0
                for j in range(r):
                    s += float(values[j, perm[j]])
                best = min(best, s)
            return best

        exact = 0
        for _ in range(500):
            r = int(rng.integers(1, 7))
            c = int(rng.integers(1, 9))
            vals = rng.random((r, c))
            assignment = solve_assignment(CostMatrix(values=vals, w1=1.0, w2=0.0))
            if assignment.total_cost == brute_force_min(vals):
                exact += 1
        _criterion(
            7,
            exact == 500,
            f"{exact}/500 random rectangular cost matrices up to 6x8 solved "
            "to the exact brute-force minimum",
        )


class TestCriterion8SparseGridFixtures:
    def test_gamma_fig_panels_nestedness_midpoints(self):
        gamma_ok = (
            [c.fraction for c in gamma_set(0)] == [0]
            and [c.fraction for c in gamma_set(1)] == [-1, 0, 1]
            and [c.fraction for c in gamma_set(2)]
            == [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
            and all(len(gamma_set(m)) == 2**m + 1 for m in range(1, 9))
        )
        nested_ok = all(set(gamma_set(m)) <= set(gamma_set(m + 1)) for m in range(8))

        box2 = ((-1.0, 1.0), (-1.0, 1.0))

        def p2(nd1, nd2):
            return ParamPoint.from_ref((dyadic(*nd1), dyadic(*nd2)), box2)

        def refs(points):
            return {tuple(c.fraction for c in p.ref) for p in points}

        panels_ok = (
            refs(forward_points(p2((-1, 0), (-1, 0)), box2))
            == {(Fraction(-1, 2), Fraction(-1)), (Fraction(-1), Fraction(-1, 2))}
            and refs(neighbours(p2((-1, 0), (-1, 0)), box2))
            == {(Fraction(0), Fraction(-1)), (Fraction(-1), Fraction(0))}
            and refs(forward_points(p2((-1, 1), (1, 0)), box2))
            == {
                (Fraction(-3, 4), Fraction(1)),
                (Fraction(-1, 4), Fraction(1)),
                (Fraction(-1, 2), Fraction(1, 2)),
            }
            and refs(neighbours(p2((-1, 1), (1, 1)), box2))
            == {
                (Fraction(-1), Fraction(1, 2)),
                (Fraction(0), Fraction(1, 2)),
                (Fraction(-1, 2), Fraction(0)),
                (Fraction(-1, 2), Fraction(1)),
            }
        )

        import random

        rng = random.Random(29)
        checked = 0
        midpoints_ok = True
        while checked < 1000:
            d = rng.choice((1, 2, 3))
            box = tuple((-1.0, 1.0) for _ in range(d))
            ref = []
            for _ in range(d):
                k = rng.randint(0, 5)
                ref.append(dyadic(rng.randint(-(1 << k), 1 << k), k))
            p = ParamPoint.from_ref(tuple(ref), box)
            for q in sorted(neighbours(p, box)):
                mid = midpoint(p, q, box)
                midpoints_ok = (
                    midpoints_ok and mid == midpoint(q, p, box) and mid in forward_points(p, box)
                )
                checked += 1
        _criterion(
            8,
            gamma_ok and nested_ok and panels_ok and midpoints_ok,
            f"nested point-set formula and all three panel fixtures exact, "
            f"nestedness to m=8, {checked} random midpoints are forward points",
        )


class TestCriterion9PropertySuite:
    def test_normalization_orthogonality_invariances_determinism(
        self, cfg_1d, provider_1d, run_1d, cache_dir, tmp_path
    ):
        # b-normalization and B-orthogonality over every snapshot of the run
        B = provider_1d.mass
        norm_dev, ortho_dev = 0.0, 0.0
        for point in sorted(run_1d.points):
            snap = provider_1d.get(point)
            gram = snap.eigenvectors.T @ (B @ snap.eigenvectors)
            norm_dev = max(norm_dev, float(np.abs(np.sqrt(np.diag(gram)) - 1.0).max()))
            for j in range(snap.n):
                for l in range(j):
                    lam_j, lam_l = snap.eigenvalues[j], snap.eigenvalues[l]
                    if abs(lam_j - lam_l) / lam_j > 1e-6:
                        ortho_dev = max(ortho_dev, abs(float(gram[j, l])))
        norm_ok = norm_dev <= 1e-10
        ortho_ok = ortho_dev <= 1e-8

        # sign-flip invariance of the cost matrix
        from dataclasses import replace

        from eigentrack.matching import cost_matrix

        snap_a = provider_1d.get(point_of_phys(["0.4"], cfg_1d.box))
        snap_b = provider_1d.get(point_of_phys(["0.7"], cfg_1d.box))
        rng = np.random.default_rng(6)
        signs_a = np.where(rng.random(snap_a.n) < 0.5, -1.0, 1.0)
        signs_b = np.where(rng.random(snap_b.n) < 0.5, -1.0, 1.0)
        flipped_a = replace(snap_a, eigenvectors=snap_a.eigenvectors * signs_a)
        flipped_b = replace(snap_b, eigenvectors=snap_b.eigenvectors * signs_b)
        base = cost_matrix(snap_a, snap_b, B, 1.0, 200.0)
        flip = cost_matrix(flipped_a, flipped_b, B, 1.0, 200.0)
        signs_ok = np.array_equal(base.values, flip.values)

        # positive-scaling invariance of the assignment
        scale_ok = True
        for _ in range(25):
            vals = rng.random((int(rng.integers(2, 7)), int(rng.integers(2, 9))))
            a = solve_assignment(CostMatrix(values=vals, w1=1.0, w2=0.0))
            b = solve_assignment(CostMatrix(values=7.3 * vals, w1=1.0, w2=0.0))
            scale_ok = scale_ok and a.sigma == b.sigma
        scale_ok = scale_ok and (
            solve_assignment(base).sigma
            == solve_assignment(
                CostMatrix(values=7.3 * base.values, w1=1.0, w2=0.0)
            ).sigma
        )

        # byte-identical emitted files across two identical CLI runs
        from tests.conftest import bundled_config_text
        from eigentrack.cli import main
        import io
        import os

        os.environ["EIGENTRACK_CACHE"] = str(cache_dir / "run_1d")
        try:
            outputs = []
            for name in ("rerun_a", "rerun_b"):
                out_dir = tmp_path / name
                cfg_path = tmp_path / f"{name}.cfg"
                cfg_path.write_text(
                    bundled_config_text("paper_1d.cfg").replace(
                        "output_dir = out_1d", f"output_dir = {out_dir}"
                    )
                )
                code = main(
                    ["refine", "--config", str(cfg_path)], out=io.StringIO()
                )
                assert code == 0
                outputs.append(out_dir)
        finally:
            os.environ.pop("EIGENTRACK_CACHE", None)
        first, second = outputs
        names = sorted(p.name for p in first.iterdir())
        deterministic_ok = names == sorted(p.name for p in second.iterdir()) and all(
            (first / n).read_bytes() == (second / n).read_bytes() for n in names
        )

        _criterion(
            9,
            norm_ok and ortho_ok and signs_ok and scale_ok and deterministic_ok,
            f"b-norm dev {norm_dev:.1e} (<=1e-10), orthogonality dev "
            f"{ortho_dev:.1e} (<=1e-8), sign-flip and scaling invariance, "
            f"byte-identical reruns over {len(names)} files",
        )
