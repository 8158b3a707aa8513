"""The adaptive driver: level-by-level checking and dyadic refinement.

Each level checks the subintervals between newly added grid points and
their in-grid neighbours (a priori matching followed by a posteriori
verification).  The midpoints of uncertified subintervals form the next
level's points.  The run terminates when a level adds nothing, or when the
level cap is reached.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from eigentrack.config import RunConfig
from eigentrack.eigensolver import SnapshotProvider
from eigentrack.grid import ParamPoint, midpoint_toward, neighbours, tensor_grid
from eigentrack.matching import Assignment, apriori_match
from eigentrack.verification import CertificationReport, verify

CONVERGED = "converged"
MAX_LEVEL = "max_level"


@dataclass(frozen=True)
class Subinterval:
    """One checked subinterval with its matching and verification outcome.

    Endpoints are stored in canonical (lexicographic) order; the assignment
    and report refer to snapshots in exactly this orientation.
    """

    a: ParamPoint
    b: ParamPoint
    level: int
    assignment: Assignment
    report: CertificationReport

    @property
    def certified(self) -> bool:
        return self.report.certified

    def clusters_original(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Clusters converted from matched positions to original indices."""
        out = []
        for c in self.report.clusters:
            rows = tuple(sorted(self.assignment.original_index("a", p) for p in c.rows))
            cols = tuple(sorted(self.assignment.original_index("b", p) for p in c.cols))
            out.append((rows, cols))
        return out


@dataclass
class LevelState:
    level: int
    points: frozenset[ParamPoint]       # grid after this level was formed
    new_points: frozenset[ParamPoint]   # points first seen at this level


@dataclass
class RunState:
    """Everything the driver accumulates over one adaptive run."""

    cfg: RunConfig
    provider: SnapshotProvider
    levels: list[LevelState] = field(default_factory=list)
    subintervals: list[Subinterval] = field(default_factory=list)
    terminated: str | None = None
    pending: frozenset[ParamPoint] = frozenset()   # midpoints never processed (cap hit)

    @property
    def points(self) -> frozenset[ParamPoint]:
        return self.levels[-1].points if self.levels else frozenset()

    @property
    def final_level(self) -> int:
        return self.levels[-1].level if self.levels else -1

    def checked_at(self, level: int) -> list[Subinterval]:
        return [s for s in self.subintervals if s.level == level]

    def level_records(self) -> list[dict]:
        """Per-level bookkeeping rows for reports and the error table."""
        rows = []
        for ls in self.levels:
            checked = self.checked_at(ls.level)
            rows.append(
                {
                    "level": ls.level,
                    "points_total": len(ls.points),
                    "points_new": len(ls.new_points),
                    "subintervals_checked": len(checked),
                    "subintervals_uncertified": sum(not s.certified for s in checked),
                }
            )
        return rows


def check_subinterval(
    state: RunState, p: ParamPoint, q: ParamPoint, level: int
) -> Subinterval:
    """Match and verify one subinterval, in canonical endpoint order."""
    a, b = (p, q) if p < q else (q, p)
    cfg = state.cfg
    snap_a, snap_b = state.provider.get(a), state.provider.get(b)
    assignment, matched_a, matched_b = apriori_match(
        snap_a, snap_b, state.provider.mass, cfg.w1, cfg.w2
    )
    report = verify(matched_a, matched_b, state.provider.mass, cfg.t_pi, cfg.t_lambda)
    return Subinterval(a=a, b=b, level=level, assignment=assignment, report=report)


def refine_level(state: RunState, jobs: int = 1) -> frozenset[ParamPoint]:
    """Process the newest level's points and return the next level's points.

    For every new point and every in-grid neighbour: skip pairs already
    checked, otherwise match and verify; the midpoints of uncertified pairs
    (deduplicated and excluded when already present) become the next level.
    """
    current = state.levels[-1]
    box = state.cfg.box
    state.provider.ensure(current.new_points, jobs=jobs)
    checked: set[tuple[ParamPoint, ParamPoint]] = set()
    marked_midpoints: set[ParamPoint] = set()
    for p in sorted(current.new_points):
        for q in sorted(neighbours(p, box)):
            if q not in current.points:
                continue
            key = (p, q) if p < q else (q, p)
            if key in checked:
                continue
            checked.add(key)
            sub = check_subinterval(state, p, q, current.level)
            state.subintervals.append(sub)
            if not sub.certified:
                marked_midpoints.add(midpoint_toward(p, q, box))
    return frozenset(marked_midpoints - current.points)


def run_adaptive(
    cfg: RunConfig, provider: SnapshotProvider | None = None, jobs: int = 1
) -> RunState:
    """Run the full adaptive loop from the initial tensor lattice.

    All levels share one solving block, so ``jobs > 1`` starts one worker
    pool for the whole run.
    """
    provider = provider if provider is not None else SnapshotProvider(cfg)
    state = RunState(cfg=cfg, provider=provider)
    initial = frozenset(tensor_grid(cfg.initial_level, cfg.box))
    state.levels.append(LevelState(level=0, points=initial, new_points=initial))
    with provider.solving(jobs):
        while True:
            fresh = refine_level(state, jobs=jobs)
            level = state.levels[-1].level
            if not fresh:
                state.terminated = CONVERGED
                return state
            if level + 1 > cfg.max_level:
                state.terminated = MAX_LEVEL
                state.pending = fresh
                warnings.warn(
                    f"refinement stopped at the level cap ({cfg.max_level}) with "
                    f"{len(fresh)} midpoint(s) still marked"
                )
                return state
            state.levels.append(
                LevelState(
                    level=level + 1,
                    points=state.levels[-1].points | fresh,
                    new_points=fresh,
                )
            )
