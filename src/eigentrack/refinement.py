"""The adaptive driver: level-by-level checking and dyadic refinement.

Each level checks the subintervals between newly added grid points and
their in-grid neighbours (a priori matching followed by a posteriori
verification), each once as its canonical pair.  The exact midpoints of
uncertified subintervals, ``grid.midpoint`` of the pair, form the next
level's points.  The run terminates when a level adds nothing, or when the
level cap is reached.

Checked outcomes are a pure function of the snapshots and of w1, w2, t_pi
and t_lambda, so ``check_pairs`` keeps one record per list of subintervals
beside the snapshots: ``level_<n>_<digest>.npz`` per adaptive level and
``reference_<points>_<digest>.npz`` for the dense reference's lattice
edges.  ``record_name``'s digest hashes the snapshots' fingerprint and
those four tolerances, so two configs never share a record file.  A
record holds each subinterval's ``sigma``, total cost and the fields of
``verify``'s report, a named tuple, as JSON, and no matrix.  Its
fingerprint hashes the endpoint pairs, the snapshots' fingerprint, those
four tolerances, the numpy and scipy versions and the source of the
modules that decide a verdict (matching, verification and this one), so an
edit to any of them, the report's field order included, invalidates every
record.  A rerun replays a record found under its fingerprint, rebuilding
each assignment and its matched orders with ``Assignment.from_sigma`` for
the eigenpair counts of the endpoints' snapshots; a missing, stale or
malformed one (diagnostics not one per position ``verify`` inspects
included) is recomputed and rewritten.

``check_pairs`` is the one place that holds eigenvectors, each snapshot from
its first pair to its last, so the working set follows the matching frontier
rather than the whole grid.  An adaptive run carries the endpoints of a
level's uncertified pairs to the next level, and the provider solves each
point ahead in a pool or at its first matching: a cold serial 1D run reads
no snapshot back.
"""
from __future__ import annotations

import functools
import hashlib
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from eigentrack import matching, verification
from eigentrack.config import RunConfig
from eigentrack.eigensolver import CacheMismatch, Snapshot, SnapshotProvider
from eigentrack.grid import ParamPoint, midpoint, neighbours, tensor_grid
from eigentrack.matching import Assignment, apriori_match
from eigentrack.verification import CertificationReport, Cluster, Diagnostic, verify

CONVERGED = "converged"
MAX_LEVEL = "max_level"
Pairs = list[tuple[ParamPoint, ParamPoint]]


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
        order_a, order_b = self.assignment.order_a, self.assignment.order_b
        return [
            (tuple(sorted(order_a[p] for p in c.rows)), tuple(sorted(order_b[p] for p in c.cols)))
            for c in self.report.clusters
        ]


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
    provider: SnapshotProvider, snap_a: Snapshot, snap_b: Snapshot, level: int
) -> Subinterval:
    """Match and verify the subinterval between two snapshots whose points are
    in canonical order, ``snap_a.point < snap_b.point``."""
    cfg = provider.cfg
    assignment, projection, la, lb = apriori_match(snap_a, snap_b, provider.mass, cfg.w1, cfg.w2)
    report = verify(projection, la, lb, cfg.t_pi, cfg.t_lambda)
    return Subinterval(
        a=snap_a.point, b=snap_b.point, level=level, assignment=assignment, report=report
    )


@functools.cache
def _code_digest() -> str:
    """sha256 of the source of the modules that decide a verdict, read once per process."""
    digest = hashlib.sha256()
    for path in (matching.__file__, verification.__file__, __file__):
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _config_key(provider: SnapshotProvider) -> list:
    """What the config contributes to a record: its snapshots' fingerprint and tolerances."""
    cfg = provider.cfg
    return [provider.fingerprint, cfg.w1, cfg.w2, cfg.t_pi, cfg.t_lambda]


def record_name(provider: SnapshotProvider, stem: str) -> str:
    """The file of the record ``stem`` (``level_<n>``, ``reference_<points>``) of
    ``provider``'s config, ``<stem>_<digest>.npz``: configs never share one."""
    digest = hashlib.sha256(json.dumps(_config_key(provider)).encode()).hexdigest()[:8]
    return f"{stem}_{digest}.npz"


def _level_fingerprint(provider: SnapshotProvider, pairs: Pairs) -> str:
    payload = json.dumps(
        {
            "pairs": [[a.key(), b.key()] for a, b in pairs],
            "config": _config_key(provider),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "code": _code_digest(),
        }
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _record_arrays(subs: list[Subinterval]) -> dict[str, np.ndarray]:
    """A record's outcomes as one JSON array (floats round-trip exactly)."""
    outcomes = [[s.assignment.sigma, s.assignment.total_cost, *s.report] for s in subs]
    return {"outcomes": np.frombuffer(json.dumps(outcomes).encode(), dtype=np.uint8)}


def _indices(values, bound: int) -> tuple[int, ...]:
    """``values`` as a tuple; ValueError unless it is a list of ints in ``range(bound)``."""
    if not (isinstance(values, list) and all(type(i) is int and 0 <= i < bound for i in values)):
        raise ValueError(f"{values!r} is not a list of positions in range({bound})")
    return tuple(values)


def _replay(data, provider: SnapshotProvider, pairs: Pairs, level: int) -> list[Subinterval]:
    """The Subintervals a record holds, each checked against its endpoints' eigenpair
    counts and holding a diagnostic for exactly the positions ``verify`` inspects."""
    outcomes = json.loads(data["outcomes"].tobytes())
    if not isinstance(outcomes, list) or len(outcomes) != len(pairs):
        raise CacheMismatch(f"holds no list of {len(pairs)} subintervals")
    subs = []
    for (a, b), outcome in zip(pairs, outcomes):
        n_a, n_b = len(provider.eigenvalues(a)), len(provider.eigenvalues(b))
        short = min(n_a, n_b)
        try:
            sigma, total, diags, clusters, failed_at = outcome
            lists = isinstance(diags, list) and isinstance(clusters, list)
            if type(total) is not float or not lists:
                raise TypeError("a total cost, diagnostics or clusters of the wrong JSON type")
            report = CertificationReport(
                tuple(Diagnostic(j, _indices(r1, n_b), _indices(r2, n_a)) for j, r1, r2 in diags),
                tuple(Cluster(_indices(rows, n_a), _indices(cols, n_b)) for rows, cols in clusters),
                failed_at,
            )
            inspected = short if failed_at is None else _indices([failed_at], short)[0] + 1
            if _indices([d.j for d in report.diagnostics], short) != tuple(range(inspected)):
                raise ValueError(f"diagnostics not of exactly the positions 0 to {inspected - 1}")
            assignment = Assignment.from_sigma(sigma, total, n_a, n_b)
        except (TypeError, ValueError) as exc:
            raise CacheMismatch(f"does not fit the snapshots {a.key()}, {b.key()}: {exc}") from None
        subs.append(Subinterval(a=a, b=b, level=level, assignment=assignment, report=report))
    return subs


Held = dict[ParamPoint, Snapshot]


def _check_in_order(
    provider: SnapshotProvider, pairs: Pairs, level: int, held: Held | None
) -> list[Subinterval]:
    """``check_subinterval`` of each canonical pair in turn, fetching and
    releasing snapshots as ``check_pairs`` describes."""
    carry = held is not None
    held = held if carry else {}
    last_use = {p: i for i, pair in enumerate(pairs) for p in pair}
    for p in held.keys() - last_use.keys():
        del held[p]
    refined: set[ParamPoint] = set()   # endpoints of uncertified pairs, when carrying
    subs = []
    for i, (a, b) in enumerate(pairs):
        for p in (a, b):
            if p not in held:
                held[p] = provider.get(p)
        sub = check_subinterval(provider, held[a], held[b], level)
        subs.append(sub)
        if carry and not sub.certified:
            refined.update((a, b))
        for p in (a, b):
            if last_use[p] == i and p not in refined:
                del held[p]
    return subs


def check_pairs(
    provider: SnapshotProvider, pairs, stem: str, level: int, held: Held | None = None
) -> list[Subinterval]:
    """The Subintervals of ``pairs``, in canonical endpoint order: replayed from
    the record ``<cache_dir>/<record_name(provider, stem)>`` or, without a valid
    one, matched, verified and written to it.  Warnings name the record by the part
    of ``stem`` before its first underscore: "level record", "reference record".

    Matching fetches each endpoint's snapshot with ``provider.get`` once, at
    its first pair in the order of ``pairs``, and releases it after the last
    pair that uses it: a 1D lattice holds two snapshots at a time, a 2D one
    about a row.  ``held``, a dict that the caller keeps from one list to the
    next, lends its snapshots to this list and drops those the list does not
    use; on return it holds the endpoints of the uncertified pairs, which the
    next list pairs with their midpoints.
    """
    canonical = [(p, q) if p < q else (q, p) for p, q in pairs]
    path = provider.cache_dir / record_name(provider, stem)
    fingerprint = _level_fingerprint(provider, canonical)
    subs = provider.read_record(
        path, fingerprint, lambda data: _replay(data, provider, canonical, level),
        f"{stem.partition('_')[0]} record",
    )
    if subs is None:
        subs = _check_in_order(provider, canonical, level, held)
        provider.write_record(path, fingerprint, **_record_arrays(subs))
    return subs


def refine_level(state: RunState, held: Held) -> frozenset[ParamPoint]:
    """Process the newest level's points and return the next level's points.

    Hands the new points to ``provider.ensure``, pairs every new point with
    each of its in-grid neighbours, as the grid's own objects so that lookups
    keyed by them match by identity, lists each canonical pair once, and
    checks them through the level's record ``level_<n>``, carrying
    snapshots in ``held`` as ``check_pairs`` does.  The midpoints of
    uncertified pairs (deduplicated and excluded when already present) become
    the next level.
    """
    current = state.levels[-1]
    box = state.cfg.box
    state.provider.ensure(current.new_points)
    grid = {p: p for p in current.points}
    pairs = dict.fromkeys(   # canonical (a < b) pairs, an ordered set
        (p, q) if p < q else (q, p)
        for p in sorted(current.new_points)
        for q in map(grid.get, sorted(neighbours(p, box)))
        if q is not None
    )
    subs = check_pairs(state.provider, list(pairs), f"level_{current.level}", current.level, held)
    state.subintervals.extend(subs)
    marked = {midpoint(s.a, s.b, box) for s in subs if not s.certified}
    return frozenset(marked - current.points)


def run_adaptive(
    cfg: RunConfig, provider: SnapshotProvider | None = None, jobs: int = 1
) -> RunState:
    """Run the full adaptive loop from the initial tensor lattice.

    All levels share one solving block of ``jobs`` workers, so the run starts
    at most one worker pool, and each level hands its carried snapshots to
    the next.  A given ``provider`` must serve ``cfg``.
    """
    provider = provider if provider is not None else SnapshotProvider(cfg)
    if provider.cfg != cfg:
        raise ValueError("provider was built for a different config")
    state = RunState(cfg=cfg, provider=provider)
    initial = frozenset(tensor_grid(cfg.initial_level, cfg.box))
    state.levels.append(LevelState(level=0, points=initial, new_points=initial))
    held: Held = {}
    with provider.solving(jobs):
        while True:
            fresh = refine_level(state, held)
            level = state.levels[-1].level
            if not fresh:
                state.terminated = CONVERGED
                return state
            if level + 1 > cfg.max_level:
                state.terminated = MAX_LEVEL
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
