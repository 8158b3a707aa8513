import contextlib
import hashlib
import json
import re
import shutil
import warnings
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from eigentrack import matching, refinement, verification
from eigentrack.config import CoeffSpec, RunConfig, parse_config_file
from eigentrack.eigensolver import CacheMismatch, Snapshot, SnapshotProvider
from eigentrack.grid import ParamPoint, dyadic, midpoint, neighbours
from eigentrack.matching import Assignment
from eigentrack.propagation import (
    build_match_graph,
    default_root,
    propagate_labels,
    reference_solution,
)
from eigentrack.refinement import CONVERGED, MAX_LEVEL, run_adaptive
from eigentrack.reports import emit_reports
from eigentrack.surrogate import build_surrogate
from eigentrack.verification import CertificationReport, Cluster, Diagnostic
from tests.conftest import (
    REFERENCE_JOBS,
    bundled_config_text,
    copy_snapshots,
    header_fingerprint,
    partition,
    read_back,
)


class RotatingProvider:
    """Synthetic snapshots: two eigenpairs whose eigenvectors rotate with the
    parameter.  A subinterval certifies once the rotation across it is small
    enough for the truncation test, so refinement depth is controlled by the
    rotation rate and t_pi."""

    fingerprint = "synthetic"
    cache_dir = Path("unused")

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

    def eigenvalues(self, point):
        return self.get(point).eigenvalues

    def ensure(self, points):
        pass

    def read_record(self, path, fingerprint, read, what):
        return None   # no cache: every level is matched and verified

    def write_record(self, path, fingerprint, **arrays):
        pass

    @contextlib.contextmanager
    def solving(self, jobs):
        yield


def synthetic_config(t_pi=0.3, max_level=10) -> RunConfig:
    return RunConfig(
        dim=1,
        box=((-1.0, 1.0),),
        window=(0.0, 10.0),
        coefficient=CoeffSpec.from_sources(1, "1", "0", "0", "1"),
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
            checked = state.checked_at(prev.level)
            marked = {midpoint(s.a, s.b, box) for s in checked if not s.certified}
            assert cur.new_points == frozenset(marked - prev.points)

    def test_max_level_cap(self):
        cfg = synthetic_config(t_pi=0.999, max_level=3)
        with pytest.warns(UserWarning, match="level cap") as caught:
            state = run_adaptive(cfg, provider=RotatingProvider(cfg))
        assert state.terminated == MAX_LEVEL
        assert state.final_level == 3
        (message,) = [str(w.message) for w in caught if "level cap" in str(w.message)]
        marked = re.search(r"with ([0-9]+) midpoint\(s\) still marked", message)
        assert marked is not None and int(marked[1]) > 0

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


@pytest.mark.parametrize("dim, pairs", [("1d", 94), ("2d", 1447)])
def test_matching_keeps_point_reflection_parity(request, dim, pairs):
    # The mesh, its diagonal split included, and any constant coefficient are
    # invariant under (x, y) -> (1 - x, 1 - y), which on the interior dofs is
    # the index reversal R.  So every simple eigenvector is even or odd,
    # (R v)^T B v = +-1, and a correct matching pairs equal parities only.
    state = request.getfixturevalue(f"run_{dim}")
    mass = state.provider.mass
    parity = {}
    for p in sorted(state.points):
        v = state.provider.get(p).eigenvectors
        overlap = np.einsum("ij,ij->j", v[::-1], mass @ v)
        assert np.allclose(np.abs(overlap), 1.0, rtol=0.0, atol=1e-8), p
        parity[p] = np.sign(overlap)
    matched = [
        parity[s.a][j] == parity[s.b][l]
        for s in state.subintervals
        for j, l in s.assignment.pairs()
    ]
    assert (len(matched), matched.count(False)) == (pairs, 0)


def test_axis_mirror_run_is_the_transposed_run(run_2d, labeling_2d, tmp_path):
    # The mesh splits every cell along the (0,0)-(1,1) diagonal, so it is
    # invariant under (x, y) -> (y, x).  With c12 = c21 = 0.8/mu1, the problem
    # at (mu1, mu2) is the bundled 2D one at (mu2, mu1) with x and y swapped,
    # on the same symmetric box; a cold run of it must be the bundled run
    # transposed point for point, up to the labels' names.
    text = bundled_config_text("paper_2d.cfg")
    mirrored = text.replace("0.8/mu2\nc21 = 0.8/mu2", "0.8/mu1\nc21 = 0.8/mu1")
    assert mirrored != text
    (tmp_path / "paper_2d.cfg").write_text(mirrored)
    cfg = parse_config_file(tmp_path / "paper_2d.cfg")
    provider = SnapshotProvider(cfg, cache_dir=tmp_path / "cache")
    mirror = run_adaptive(cfg, provider=provider, jobs=REFERENCE_JOBS)

    def t(p):
        return ParamPoint.from_ref(p.ref[::-1], cfg.box)

    assert mirror.terminated == run_2d.terminated == CONVERGED
    assert [len(ls.new_points) for ls in mirror.levels] == [9, 6, 9, 12, 11, 8, 1, 1]
    assert [{t(p) for p in ls.new_points} for ls in mirror.levels] == [
        set(ls.new_points) for ls in run_2d.levels
    ]
    assert len(mirror.points) == 57
    verdicts = {frozenset((t(s.a), t(s.b))): s.report.verdict for s in mirror.subintervals}
    assert len(verdicts) == len(mirror.subintervals) == 143
    assert verdicts == {frozenset((s.a, s.b)): s.report.verdict for s in run_2d.subintervals}
    for p in mirror.points:
        got, want = provider.eigenvalues(p), run_2d.provider.eigenvalues(t(p))
        assert got.shape == want.shape, p
        assert np.max(np.abs(got - want) / want) <= 1e-13, p   # 2.1e-14 measured
    labeling = propagate_labels(build_match_graph(mirror), default_root(mirror.points))
    assert {
        frozenset((t(p), i) for p, i in surface) for surface in partition(labeling)
    } == partition(labeling_2d)


@pytest.mark.parametrize("dim, checked", [("1d", 12), ("2d", 143)])
def test_projection_is_the_matched_gram_of_the_snapshots(request, dim, checked):
    # an independent recomputation of every projection the run verified: each
    # side's eigenvectors are permuted into matched order first, and only then
    # multiplied through the mass matrix
    state = request.getfixturevalue(f"run_{dim}")
    cfg, mass = state.cfg, state.provider.mass
    for s in state.subintervals:
        snap_a, snap_b = state.provider.get(s.a), state.provider.get(s.b)
        assignment, got, _, _ = matching.apriori_match(snap_a, snap_b, mass, cfg.w1, cfg.w2)
        assert assignment == s.assignment, (s.a, s.b)
        va = snap_a.eigenvectors[:, list(s.assignment.order_a)]
        vb = snap_b.eigenvectors[:, list(s.assignment.order_b)]
        want = np.abs(va.T @ (mass @ vb))
        assert got.shape == want.shape, (s.a, s.b)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-14, (s.a, s.b)
    assert len(state.subintervals) == checked


@pytest.fixture()
def layer_calls(monkeypatch) -> Counter:
    """Calls of cost_matrix, solve_assignment and verify during the test."""
    calls = Counter()
    for owner, name in (
        (matching, "cost_matrix"),
        (matching, "solve_assignment"),
        (verification, "verify"),
    ):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (matching, verification, refinement):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def assert_same_subintervals(got, want):
    """Equal in every field, floats exactly."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.a, g.b, g.level) == (w.a, w.b, w.level)
        assert g.assignment == w.assignment
        assert type(g.assignment.total_cost) is float
        orders = g.assignment.order_a + g.assignment.order_b
        assert all(type(i) is int for i in g.assignment.sigma + orders)
        gr, wr = g.report, w.report
        assert (gr.verdict, gr.diagnostics, gr.clusters, gr.failed_at) == (
            wr.verdict, wr.diagnostics, wr.clusters, wr.failed_at
        )


def report_digests(state, provider, out: Path) -> dict[str, str]:
    labeling = propagate_labels(build_match_graph(state), default_root(state.points))
    emit_reports(state, labeling, build_surrogate(labeling, provider), out)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.fixture()
def cache_1d(run_1d, provider_1d, tmp_path) -> Path:
    """A cache holding the bundled 1D run's snapshots and no level record."""
    return copy_snapshots(provider_1d.cache_dir, tmp_path / "cache")


def rerun(cfg, cache: Path):
    return run_adaptive(cfg, provider=SnapshotProvider(cfg, cache_dir=cache))


def reference_9(cfg, cache: Path):
    return reference_solution(cfg, 9, provider=SnapshotProvider(cfg, cache_dir=cache))


def record_path(cfg, cache: Path, stem: str) -> Path:
    """The path of ``cfg``'s record ``stem`` (``level_<n>``, ``reference_<points>``)."""
    return cache / refinement.record_name(SnapshotProvider(cfg, cache_dir=cache), stem)


def change_key(cfg, change: str, monkeypatch, cache: Path, stems):
    """``cfg`` with one record-key input changed and the outcomes not: the
    next float of a tolerance, or another digest of the deciding code.

    A tolerance is part of a record's name and the code is not, so ``cfg``'s
    records ``stems`` are first copied to the names the changed config looks
    up: only their stored fingerprint then tells the two apart."""
    if change == "code":
        monkeypatch.setattr(refinement, "_code_digest", lambda: "0" * 64)
        return cfg
    changed = replace(cfg, **{change: np.nextafter(getattr(cfg, change), np.inf)})
    for stem in stems:
        source, target = record_path(cfg, cache, stem), record_path(changed, cache, stem)
        assert source != target
        shutil.copyfile(source, target)
    return changed


def damage_record(path: Path, damage: str) -> str:
    """Damage the record at ``path``; returns the warning it then raises."""
    raw = path.read_bytes()
    if damage == "flipped byte":
        middle = len(raw) // 2
        path.write_bytes(raw[:middle] + bytes([raw[middle] ^ 0xFF]) + raw[middle + 1 :])
    elif damage == "truncated":
        path.write_bytes(raw[:100])
    elif damage == "empty":
        path.write_bytes(b"")
    else:
        fingerprint = header_fingerprint(path)
        arrays = read_back(path, fingerprint)
        outcomes = json.loads(arrays["outcomes"].tobytes())
        # the first subinterval's outcome: sigma first, failed_at last
        first, message = OUTCOME_DAMAGES[damage]
        outcomes[0] = first(outcomes[0])
        arrays["outcomes"] = np.frombuffer(json.dumps(outcomes).encode(), dtype=np.uint8)
        SnapshotProvider.write_record(path, fingerprint, **arrays)
        return f"does not fit the snapshots .*: .*{message}"
    return f"unreadable {path.name.partition('_')[0]} record"


NOT_INSPECTED = "diagnostics not of exactly the positions"
# damage -> (damaged outcome of the first subinterval, part of the warning)
OUTCOME_DAMAGES = {
    "short sigma": (lambda o: [o[0][:-1], *o[1:]], "sigma .* is not an injection of"),
    "repeated sigma": (lambda o: [o[0][:-1] + o[0][:1], *o[1:]], "sigma .* is not an injection of"),
    "sigma past the longer side": (
        lambda o: [o[0][:-1] + [10**6], *o[1:]], "sigma .* is not an injection of"
    ),
    "sigma not a list": (lambda o: [o[0][0], *o[1:]], "sigma .* is not an injection of"),
    "failed_at past the shorter side": (
        lambda o: [*o[:-1], len(o[0])], "is not a list of positions in range"
    ),
    "outcome of the wrong arity": (lambda o: o[:-1], "not enough values to unpack"),
    "diagnostics not a list": (lambda o: [o[0], o[1], {}, *o[3:]], "of the wrong JSON type"),
    "diagnostics cut to the first": (lambda o: [o[0], o[1], o[2][:1], *o[3:]], NOT_INSPECTED),
}
DAMAGES = ["flipped byte", "truncated", "empty", *OUTCOME_DAMAGES]
KEY_CHANGES = ["w1", "w2", "t_pi", "t_lambda", "code"]


class TestLevelRecords:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_warm_rerun_replays_without_matching(self, request, dim, tmp_path, layer_calls):
        cfg = request.getfixturevalue(f"cfg_{dim}d")
        request.getfixturevalue(f"run_{dim}d")   # every snapshot of the run is cached
        source = request.getfixturevalue(f"provider_{dim}d").cache_dir
        cache = copy_snapshots(source, tmp_path / "cache")
        layer_calls.clear()

        cold = SnapshotProvider(cfg, cache_dir=cache)
        first = run_adaptive(cfg, provider=cold)
        checked = len(first.subintervals)
        assert dict(layer_calls) == {
            "cost_matrix": checked, "solve_assignment": checked, "verify": checked
        }
        assert sorted(cache.glob("level_*.npz")) == [
            record_path(cfg, cache, f"level_{ls.level}") for ls in first.levels
        ]

        layer_calls.clear()
        warm = SnapshotProvider(cfg, cache_dir=cache)
        second = run_adaptive(cfg, provider=warm)
        assert sum(layer_calls.values()) == 0
        assert [ls.points for ls in second.levels] == [ls.points for ls in first.levels]
        assert second.terminated == first.terminated
        assert_same_subintervals(second.subintervals, first.subintervals)
        assert report_digests(second, warm, tmp_path / "warm") == report_digests(
            first, cold, tmp_path / "cold"
        )

    @pytest.mark.parametrize("change", KEY_CHANGES)
    def test_served_only_under_its_fingerprint(
        self, cfg_1d, cache_1d, change, monkeypatch, layer_calls
    ):
        first = rerun(cfg_1d, cache_1d)
        layer_calls.clear()
        stems = [f"level_{ls.level}" for ls in first.levels]
        cfg = change_key(cfg_1d, change, monkeypatch, cache_1d, stems)
        with pytest.warns(UserWarning, match="level record .* has fingerprint") as caught:
            second = rerun(cfg, cache_1d)
        assert len(caught) == len(first.levels)
        assert layer_calls["verify"] == len(first.subintervals)
        assert [(s.a, s.b, s.assignment.sigma, s.report.verdict) for s in second.subintervals] == [
            (s.a, s.b, s.assignment.sigma, s.report.verdict) for s in first.subintervals
        ]

        layer_calls.clear()
        rerun(cfg, cache_1d)   # the rewritten records serve the changed key
        assert sum(layer_calls.values()) == 0

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_damaged_record_warns_and_recomputes(self, cfg_1d, cache_1d, damage, layer_calls):
        first = rerun(cfg_1d, cache_1d)
        match = damage_record(record_path(cfg_1d, cache_1d, "level_1"), damage)
        layer_calls.clear()
        with pytest.warns(UserWarning, match=match):
            second = rerun(cfg_1d, cache_1d)
        assert layer_calls["verify"] == len(first.checked_at(1))
        assert_same_subintervals(second.subintervals, first.subintervals)

        layer_calls.clear()
        rerun(cfg_1d, cache_1d)   # the record was rewritten
        assert sum(layer_calls.values()) == 0


def test_configs_sharing_a_cache_keep_their_own_records(
    cfg_1d, cfg_2d, provider_1d, provider_2d, run_1d, run_2d, tmp_path, layer_calls
):
    # both bundled configs name the same cache directory; a 2D run between
    # two 1D runs must leave the 1D records to replay
    cache = copy_snapshots(provider_1d.cache_dir, tmp_path / "cache")
    copy_snapshots(provider_2d.cache_dir, cache)
    first = rerun(cfg_1d, cache)
    rerun(cfg_2d, cache)
    layer_calls.clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        third = rerun(cfg_1d, cache)
    assert [str(w.message) for w in caught] == []
    assert layer_calls["verify"] == 0
    assert_same_subintervals(third.subintervals, first.subintervals)


def test_records_hold_fingerprint_and_outcomes_only(cfg_1d, cache_1d):
    levels = len(rerun(cfg_1d, cache_1d).levels)
    reference_9(cfg_1d, cache_1d)
    records = sorted(cache_1d.glob("level_*.npz")) + [record_path(cfg_1d, cache_1d, "reference_9")]
    assert len(records) == levels + 1
    for path in records:
        fingerprint = header_fingerprint(path)
        assert re.fullmatch("[0-9a-f]{16}", fingerprint), path.name
        assert list(read_back(path, fingerprint)) == ["outcomes"], path.name


class CountsProvider:
    """Answers ``eigenvalues`` with as many zeros as each point's eigenpair count."""

    def __init__(self, counts: dict):
        self.counts = counts

    def eigenvalues(self, point):
        return np.zeros(self.counts[point])


def hand_built_record():
    """Two subintervals of 3 to 4 eigenpairs, one certified with a cluster and
    one marked at position 1, with the provider and pairs that replay them."""
    box = ((0.0, 1.0),)
    p, q, r = (ParamPoint.from_ref((dyadic(n),), box) for n in (-1, 0, 1))
    reports = [
        CertificationReport(
            tuple(Diagnostic(j, ps, ps) for j, ps in enumerate([(0, 1), (0, 1), (2,)])),
            (Cluster((0, 1), (0, 1)),),
            None,
        ),
        CertificationReport((Diagnostic(0, (0,), (0,)), Diagnostic(1, (1, 3), (1,))), (), 1),
    ]
    pairs = [(p, q), (p, r)]
    subs = [
        refinement.Subinterval(a, b, 0, Assignment.from_sigma([1, 0, 2], 0.25, 3, 4), report)
        for (a, b), report in zip(pairs, reports)
    ]
    return subs, CountsProvider({p: 3, q: 4, r: 4}), pairs


def test_record_is_the_json_of_sigma_cost_and_report_fields():
    # the record layout, pinned byte for byte without a run
    subs, provider, pairs = hand_built_record()
    raw = refinement._record_arrays(subs)["outcomes"].tobytes()
    assert raw == (
        b"[[[1, 0, 2], 0.25, [[0, [0, 1], [0, 1]], [1, [0, 1], [0, 1]], [2, [2], [2]]], "
        b"[[[0, 1], [0, 1]]], null], "
        b"[[1, 0, 2], 0.25, [[0, [0], [0]], [1, [1, 3], [1]]], [], 1]]"
    )
    replayed = refinement._replay({"outcomes": np.frombuffer(raw, np.uint8)}, provider, pairs, 0)
    assert_same_subintervals(replayed, subs)
    assert replayed == subs


# damage -> (outcome index, damage to its diagnostics, part of the message)
DIAGNOSTIC_DAMAGES = {
    "certified, last dropped": (0, lambda d: d[:-1], NOT_INSPECTED),
    "certified, two swapped": (0, lambda d: [d[1], d[0], *d[2:]], NOT_INSPECTED),
    "marked, first only": (1, lambda d: d[:1], NOT_INSPECTED),
    "marked, one past failed_at": (1, lambda d: [*d, [2, [2], [2]]], NOT_INSPECTED),
    "marked, first repeated": (1, lambda d: [d[0], *d], NOT_INSPECTED),
    "marked, an empty diagnostic": (1, lambda d: [d[0], []], "not enough values to unpack"),
}


@pytest.mark.parametrize("damage", DIAGNOSTIC_DAMAGES)
def test_replay_rejects_diagnostics_not_of_the_inspected_positions(damage):
    # verify inspects 0..failed_at of a marked subinterval, every position of
    # the shorter side of a certified one, and records one diagnostic each
    subs, provider, pairs = hand_built_record()
    outcomes = json.loads(refinement._record_arrays(subs)["outcomes"].tobytes())
    index, cut, message = DIAGNOSTIC_DAMAGES[damage]
    outcomes[index][2] = cut(outcomes[index][2])
    data = {"outcomes": np.frombuffer(json.dumps(outcomes).encode(), np.uint8)}
    with pytest.raises(CacheMismatch, match=message):
        refinement._replay(data, provider, pairs, 0)


class TestReferenceRecord:
    """The dense reference checks its lattice edges through the same record code."""

    EDGES = 8   # of the 9-point 1D lattice

    @pytest.mark.parametrize("change", KEY_CHANGES)
    def test_served_only_under_its_fingerprint(
        self, cfg_1d, cache_1d, change, monkeypatch, layer_calls
    ):
        first = reference_9(cfg_1d, cache_1d)
        layer_calls.clear()
        cfg = change_key(cfg_1d, change, monkeypatch, cache_1d, ["reference_9"])
        with pytest.warns(UserWarning, match="reference record .* has fingerprint") as caught:
            second = reference_9(cfg, cache_1d)
        assert len(caught) == 1
        assert layer_calls["verify"] == self.EDGES
        assert (second.labels, second.root) == (first.labels, first.root)

        layer_calls.clear()
        reference_9(cfg, cache_1d)   # the rewritten record serves the changed key
        assert sum(layer_calls.values()) == 0

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_damaged_record_warns_and_recomputes(self, cfg_1d, cache_1d, damage, layer_calls):
        first = reference_9(cfg_1d, cache_1d)
        match = damage_record(record_path(cfg_1d, cache_1d, "reference_9"), damage)
        layer_calls.clear()
        with pytest.warns(UserWarning, match=match):
            second = reference_9(cfg_1d, cache_1d)
        assert layer_calls["verify"] == self.EDGES
        assert (second.labels, second.root) == (first.labels, first.root)

        layer_calls.clear()
        reference_9(cfg_1d, cache_1d)   # the record was rewritten
        assert sum(layer_calls.values()) == 0


@pytest.fixture()
def live_snapshots(monkeypatch) -> dict:
    """The ids of the snapshots that ``SnapshotProvider.get`` handed out during
    the test and that are still alive, and the most of them alive at once."""
    seen = {"live": set(), "peak": 0}
    get = SnapshotProvider.get

    def counted(self, point):
        snap = get(self, point)
        if id(snap) not in seen["live"]:
            seen["live"].add(id(snap))
            weakref.finalize(snap, seen["live"].discard, id(snap))
        seen["peak"] = max(seen["peak"], len(seen["live"]))
        return snap

    monkeypatch.setattr(SnapshotProvider, "get", counted)
    return seen


class TestWorkingSet:
    """Matching holds each snapshot from its fetch to its last pair, not for the run."""

    @pytest.mark.parametrize("dim, points_per_axis, most", [(1, 9, 2), (2, 5, 5 + 2)])
    def test_reference_holds_about_one_row(
        self, request, tmp_path, live_snapshots, dim, points_per_axis, most
    ):
        cfg = request.getfixturevalue(f"cfg_{dim}d")
        reference_solution(cfg, points_per_axis, provider=SnapshotProvider(cfg, tmp_path))
        assert 2 <= live_snapshots["peak"] <= most
        assert not live_snapshots["live"]

    def test_cold_serial_run_solves_each_point_once_and_reads_none_back(
        self, cfg_1d, tmp_path, live_snapshots, monkeypatch
    ):
        # a level keeps the endpoints of its uncertified pairs for the next
        # level, which pairs them with their midpoints: in 1D that is every
        # snapshot the next level needs
        loads = []
        load = SnapshotProvider._load

        def logged(self, point, vectors=True):
            snap = load(self, point, vectors)
            loads.append((point, snap is not None))
            return snap

        monkeypatch.setattr(SnapshotProvider, "_load", logged)
        state = run_adaptive(cfg_1d, provider=SnapshotProvider(cfg_1d, tmp_path))
        assert len(state.levels) > 2
        assert sorted(loads) == [(p, False) for p in sorted(state.points)]
        widest = max(
            len({p for s in state.checked_at(ls.level) for p in (s.a, s.b)})
            for ls in state.levels
        )
        assert live_snapshots["peak"] <= widest < len(state.points)
        assert not live_snapshots["live"]
