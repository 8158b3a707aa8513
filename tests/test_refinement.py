import contextlib

import numpy as np
import pytest
import scipy.sparse as sp

from eigentrack.config import CoeffSpec, RunConfig
from eigentrack.eigensolver import Snapshot
from eigentrack.grid import midpoint_toward, neighbours
from eigentrack.refinement import CONVERGED, MAX_LEVEL, run_adaptive


class RotatingProvider:
    """Synthetic snapshots: two eigenpairs whose eigenvectors rotate with the
    parameter.  A subinterval certifies once the rotation across it is small
    enough for the truncation test, so refinement depth is controlled by the
    rotation rate and t_pi."""

    def __init__(self, cfg, rate=0.6):
        self.cfg = cfg
        self.mass = sp.identity(2, format="csr")
        self.rate = rate

    def get(self, point) -> Snapshot:
        theta = self.rate * (point.phys[0] + 1.0)
        c, s = np.cos(theta), np.sin(theta)
        return Snapshot(
            point=point,
            eigenvalues=np.array([1.0, 2.0]),
            eigenvectors=np.array([[c, -s], [s, c]]),
            fingerprint="synthetic",
        )

    def ensure(self, points):
        pass

    @contextlib.contextmanager
    def solving(self, jobs):
        yield


def subinterval_midpoint(sub, box):
    """Dyadic midpoint of a checked pair, from whichever endpoint sees the
    other as its neighbour."""
    if sub.b in neighbours(sub.a, box):
        return midpoint_toward(sub.a, sub.b, box)
    return midpoint_toward(sub.b, sub.a, box)


def synthetic_config(t_pi=0.3, max_level=10) -> RunConfig:
    return RunConfig(
        dim=1,
        box=((-1.0, 1.0),),
        window=(0.0, 10.0),
        coefficient=CoeffSpec.identity(1),
        mesh_n=3,
        w1=1.0,
        w2=200.0,
        t_pi=t_pi,
        t_lambda=0.001,
        initial_level=1,
        max_level=max_level,
        cache_dir="unused",
        output_dir="unused",
    )


class TestDriverBookkeeping:
    def test_refines_until_rotation_resolved(self):
        cfg = synthetic_config()
        state = run_adaptive(cfg, provider=RotatingProvider(cfg))
        assert state.terminated == CONVERGED
        # rotation difference 0.6 per unit: level-0 pairs fail, level-1 pass
        assert state.final_level == 1
        recs = state.level_records()
        assert [r["points_total"] for r in recs] == [3, 5]
        assert [r["subintervals_checked"] for r in recs] == [2, 4]
        assert [r["subintervals_uncertified"] for r in recs] == [2, 0]

    def test_no_pair_checked_twice(self):
        cfg = synthetic_config()
        state = run_adaptive(cfg, provider=RotatingProvider(cfg))
        keys = [(s.a, s.b) for s in state.subintervals]
        assert len(keys) == len(set(keys))

    def test_grids_monotone(self):
        cfg = synthetic_config()
        state = run_adaptive(cfg, provider=RotatingProvider(cfg))
        for earlier, later in zip(state.levels, state.levels[1:]):
            assert earlier.points <= later.points

    def test_every_added_point_is_marked_midpoint(self):
        cfg = synthetic_config()
        state = run_adaptive(cfg, provider=RotatingProvider(cfg))
        box = cfg.box
        for prev, cur in zip(state.levels, state.levels[1:]):
            marked = set()
            for s in state.checked_at(prev.level):
                if not s.certified:
                    marked.add(subinterval_midpoint(s, box))
            assert cur.new_points == frozenset(marked - prev.points)

    def test_max_level_cap(self):
        cfg = synthetic_config(t_pi=0.999, max_level=3)
        with pytest.warns(UserWarning, match="level cap"):
            state = run_adaptive(cfg, provider=RotatingProvider(cfg))
        assert state.terminated == MAX_LEVEL
        assert state.final_level == 3
        assert state.pending

    def test_max_level_zero_stops_after_first_level(self):
        cfg = synthetic_config(max_level=0)
        with pytest.warns(UserWarning):
            state = run_adaptive(cfg, provider=RotatingProvider(cfg))
        assert state.terminated == MAX_LEVEL
        assert state.final_level == 0
        assert len(state.points) == 3

    def test_provider_of_another_config_rejected(self):
        cfg = synthetic_config()
        provider = RotatingProvider(synthetic_config(t_pi=0.5))
        with pytest.raises(ValueError, match="different config"):
            run_adaptive(cfg, provider=provider)

    def test_deterministic_reruns(self):
        cfg = synthetic_config()
        s1 = run_adaptive(cfg, provider=RotatingProvider(cfg))
        s2 = run_adaptive(cfg, provider=RotatingProvider(cfg))
        assert [ls.points for ls in s1.levels] == [ls.points for ls in s2.levels]
        assert [(s.a, s.b, s.report.verdict) for s in s1.subintervals] == [
            (s.a, s.b, s.report.verdict) for s in s2.subintervals
        ]


class TestPaperRun1D:
    def test_trace(self, run_1d):
        assert run_1d.terminated == CONVERGED
        assert run_1d.final_level == 3
        recs = run_1d.level_records()
        assert [r["points_total"] for r in recs] == [3, 5, 7, 8]
        assert [r["subintervals_checked"] for r in recs] == [2, 4, 4, 2]
        assert [r["subintervals_uncertified"] for r in recs] == [2, 2, 1, 0]

    def test_final_grid(self, run_1d):
        got = sorted(p.phys[0] for p in run_1d.points)
        want = [0.4, 0.55, 0.625, 0.7, 0.775, 0.8125, 0.85, 1.0]
        assert got == pytest.approx(want, abs=1e-15)

    def test_level_delta_sets(self, run_1d):
        deltas = [sorted(p.phys[0] for p in ls.new_points) for ls in run_1d.levels]
        assert deltas[1] == pytest.approx([0.55, 0.85])
        assert deltas[2] == pytest.approx([0.625, 0.775])
        assert deltas[3] == pytest.approx([0.8125])

    def test_subintervals_are_neighbour_pairs(self, run_1d):
        for s in run_1d.subintervals:
            assert s.b in neighbours(s.a, run_1d.cfg.box) or s.a in neighbours(
                s.b, run_1d.cfg.box
            )
