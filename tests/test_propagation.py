import dataclasses
import warnings

import numpy as np
import pytest

from eigentrack import propagation, refinement
from eigentrack.eigensolver import SnapshotProvider
from eigentrack.grid import ParamPoint, axis_moves, dyadic
from eigentrack.propagation import (
    Edge,
    GraphDisconnectedError,
    MatchGraph,
    build_match_graph,
    compare_labelings,
    default_root,
    level_labelings,
    minimum_spanning_tree,
    propagate_labels,
    reference_solution,
    uniform_lattice,
)
from eigentrack.refinement import run_adaptive
from tests.conftest import partition

def make_points(count):
    # dyadic points -1, -1/2, 0, 1/2, 1 ... enough distinct 1D points
    table = [(-1, 0), (-1, 1), (0, 0), (1, 1), (1, 0), (-3, 2), (3, 2)]
    return [ParamPoint.from_ref((dyadic(n, d),), ((-1.0, 1.0),)) for n, d in table[:count]]


def make_edge(a, b, pairs, clusters=()):
    weight = abs(a.phys[0] - b.phys[0])
    return Edge(a=a, b=b, weight=weight, pairs=tuple(pairs), clusters=tuple(clusters))


class TestPropagateLabels:
    def test_identity_assignments(self):
        a, b, c = make_points(3)
        edges = [
            make_edge(a, b, [(0, 0), (1, 1)]),
            make_edge(b, c, [(0, 0), (1, 1)]),
        ]
        g = MatchGraph(nodes=(a, b, c), edges=edges, node_sizes={a: 2, b: 2, c: 2})
        lab = propagate_labels(g, a)
        assert lab.labels == {a: (1, 2), b: (1, 2), c: (1, 2)}

    def test_single_transposition(self):
        a, b = make_points(2)
        g = MatchGraph(
            nodes=(a, b),
            edges=[make_edge(a, b, [(0, 1), (1, 0)])],
            node_sizes={a: 2, b: 2},
        )
        lab = propagate_labels(g, a)
        assert lab.labels[a] == (1, 2)
        assert lab.labels[b] == (2, 1)

    def test_window_entry_gets_fresh_id(self):
        a, b = make_points(2)
        g = MatchGraph(
            nodes=(a, b),
            edges=[make_edge(a, b, [(0, 0)])],
            node_sizes={a: 1, b: 3},
        )
        lab = propagate_labels(g, a)
        assert lab.labels[a] == (1,)
        assert lab.labels[b] == (1, 2, 3)

    def test_cluster_shares_ids_in_order(self):
        a, b = make_points(2)
        edge = make_edge(
            a, b,
            pairs=[(0, 1), (1, 0)],          # the pairing the cluster overrides
            clusters=[((0, 1), (0, 1))],
        )
        g = MatchGraph(nodes=(a, b), edges=[edge], node_sizes={a: 2, b: 2})
        lab = propagate_labels(g, a)
        # within the cluster, identifiers are handed out in ascending order
        assert lab.labels[b] == (1, 2)

    def test_disconnected_raises(self):
        a, b, c = make_points(3)
        g = MatchGraph(
            nodes=(a, b, c),
            edges=[make_edge(a, b, [(0, 0)])],
            node_sizes={a: 1, b: 1, c: 1},
        )
        with pytest.raises(GraphDisconnectedError, match=r"sizes \[2, 1\]") as err:
            propagate_labels(g, a)
        assert sorted(err.value.components, key=len) == [{c}, {a, b}]

    def test_gap_in_match_graph_raises_at_propagation(self, run_1d):
        # dropping one certified edge of the final 1D path splits the grid
        # at that edge; the graph still holds every point, and propagation's
        # error lists both sides
        cut = next(s for s in run_1d.subintervals if s.certified)
        gapped = dataclasses.replace(
            run_1d, subintervals=[s for s in run_1d.subintervals if s is not cut]
        )
        graph = build_match_graph(gapped)
        assert set(graph.nodes) == set(run_1d.points)
        with pytest.raises(GraphDisconnectedError) as err:
            propagate_labels(graph, default_root(gapped.points))
        components = err.value.components
        assert len(components) == 2
        assert set().union(*components) == set(run_1d.points)
        left = {p for p in run_1d.points if p.phys <= min(cut.a.phys, cut.b.phys)}
        assert left in components
        sizes = sorted((len(c) for c in components), reverse=True)
        assert f"sizes {sizes}" in str(err.value)

    def test_one_union_find_per_labeling(self, run_2d, labeling_2d, monkeypatch):
        # the spanning tree's union-find also decides connectivity
        calls = []
        real = propagation._union

        def counting(nodes, edges):
            calls.append(len(nodes))
            return real(nodes, edges)

        monkeypatch.setattr(propagation, "_union", counting)
        labeling = propagate_labels(build_match_graph(run_2d), default_root(run_2d.points))
        assert calls == [len(run_2d.points)]
        assert labeling == labeling_2d

    def test_unknown_root_rejected(self):
        a, b = make_points(2)
        g = MatchGraph(nodes=(a,), edges=[], node_sizes={a: 1})
        with pytest.raises(ValueError):
            propagate_labels(g, b)

    def test_single_point_graph(self):
        (a,) = make_points(1)
        g = MatchGraph(nodes=(a,), edges=[], node_sizes={a: 3})
        lab = propagate_labels(g, a)
        assert lab.labels == {a: (1, 2, 3)}


class TestMst:
    def test_prefers_short_edges(self):
        a, b, c = make_points(3)
        edges = [
            make_edge(a, b, [(0, 0)]),
            make_edge(b, c, [(0, 0)]),
            make_edge(a, c, [(0, 0)]),  # long stale edge
        ]
        g = MatchGraph(nodes=(a, b, c), edges=edges, node_sizes={a: 1, b: 1, c: 1})
        tree = minimum_spanning_tree(g)
        assert len(tree) == 2
        assert all(e.weight == 0.5 for e in tree)

    def test_deterministic_tie_break(self):
        a, b, c = make_points(3)
        edges = [
            make_edge(a, b, [(0, 0)]),
            make_edge(b, c, [(0, 0)]),
        ]
        g = MatchGraph(nodes=(a, b, c), edges=edges, node_sizes={a: 1, b: 1, c: 1})
        t1 = minimum_spanning_tree(g)
        t2 = minimum_spanning_tree(MatchGraph(g.nodes, list(reversed(edges)), g.node_sizes))
        assert [(e.a, e.b) for e in t1] == [(e.a, e.b) for e in t2]


class TestPaperRun1D:
    def test_final_graph_is_a_path(self, run_1d):
        graph = build_match_graph(run_1d)
        assert len(graph.nodes) == 8
        assert len(graph.edges) == 7
        xs = sorted(p.phys[0] for p in graph.nodes)
        spans = {(min(e.a.phys[0], e.b.phys[0]), max(e.a.phys[0], e.b.phys[0])) for e in graph.edges}
        assert spans == {(xa, xb) for xa, xb in zip(xs, xs[1:])}

    def test_surface_through_crossing(self, run_1d, labeling_1d, provider_1d):
        # the lowest surface at 0.4 (eigenvalue near 80.8) continues to the
        # lowest eigenvalue near 38.2 at 0.7
        root = default_root(run_1d.points)
        assert labeling_1d.labels[root][0] == 1
        seven = next(p for p in run_1d.points if abs(p.phys[0] - 0.7) < 1e-12)
        idx = labeling_1d.labels[seven].index(1)
        lam = provider_1d.get(seven).eigenvalues[idx]
        assert abs(lam - 38.2) / 38.2 < 0.015

    def test_root_invariance_of_partition(self, run_1d):
        graph = build_match_graph(run_1d)
        roots = sorted(run_1d.points)
        part_left = partition(propagate_labels(graph, roots[0]))
        part_right = partition(propagate_labels(graph, roots[-1]))
        assert part_left == part_right

    def test_transport_consistency_along_path(self, run_1d, labeling_1d):
        # composing the matchings along the path reproduces the labeling,
        # so every certified edge is consistent with its neighbours
        graph = build_match_graph(run_1d)
        for e in graph.edges:
            la, lb = labeling_1d.labels[e.a], labeling_1d.labels[e.b]
            for ia, ib in e.pairs:
                assert la[ia] == lb[ib]


class TestSurfaces:
    @pytest.mark.parametrize("name", ["labeling_1d", "labeling_2d"])
    def test_agree_with_a_scan_per_surface(self, name, request):
        labeling = request.getfixturevalue(name)
        surfaces = labeling.surfaces()
        ids = sorted({sid for ids in labeling.labels.values() for sid in ids})
        assert list(surfaces) == ids
        for sid in ids:
            scan = [
                (p, labeling.labels[p].index(sid))
                for p in sorted(labeling.labels)
                if sid in labeling.labels[p]
            ]
            assert surfaces[sid] == scan, sid
        by_label = {
            frozenset(
                (p, idx) for p, labels in labeling.labels.items()
                for idx, s in enumerate(labels) if s == sid
            )
            for sid in ids
        }
        assert partition(labeling) == by_label


@pytest.fixture(scope="module")
def identity_run_2d(tmp_path_factory):
    from eigentrack.config import parse_config
    from eigentrack.eigensolver import SnapshotProvider
    from eigentrack.refinement import run_adaptive

    cfg = parse_config(
        """
        [problem]
        box = -1, 1; -1, 1
        window = 0, 100
        c11 = 1
        c12 = 0
        c21 = 0
        c22 = 1
        mesh_n = 9
        [tolerances]
        w1 = 1
        w2 = 200
        t_pi = 0.5
        t_lambda = 0.001
        """
    )
    provider = SnapshotProvider(cfg, cache_dir=tmp_path_factory.mktemp("ident"))
    return run_adaptive(cfg, provider=provider)


class TestCycleConsistency:
    def test_constant_problem_certifies_level_zero(self, identity_run_2d):
        assert identity_run_2d.terminated == "converged"
        assert identity_run_2d.final_level == 0
        assert len(identity_run_2d.points) == 9

    def test_lattice_graph_has_twelve_edges(self, identity_run_2d):
        graph = build_match_graph(identity_run_2d)
        assert len(graph.nodes) == 9
        assert len(graph.edges) == 12

    def test_composition_around_every_unit_square(self, identity_run_2d):
        # transporting indices around each 4-cycle of certified lattice
        # edges must come back to the identity on non-cluster indices
        graph = build_match_graph(identity_run_2d)
        by_pair = {}
        for e in graph.edges:
            by_pair[(e.a, e.b)] = dict(e.pairs)
            by_pair[(e.b, e.a)] = {j: i for i, j in e.pairs}
        cluster_members = {
            (e.a, idx) for e in graph.edges for rows, _ in e.clusters for idx in rows
        } | {(e.b, idx) for e in graph.edges for _, cols in e.clusters for idx in cols}

        nodes = sorted(graph.nodes)
        lattice = {}
        for p in nodes:
            i = round((p.phys[0] + 1) / 1.0)
            j = round((p.phys[1] + 1) / 1.0)
            lattice[(i, j)] = p
        for i in range(2):
            for j in range(2):
                cycle = [
                    lattice[(i, j)], lattice[(i + 1, j)],
                    lattice[(i + 1, j + 1)], lattice[(i, j + 1)], lattice[(i, j)],
                ]
                start = cycle[0]
                n_start = graph.node_sizes[start]
                for idx in range(n_start):
                    if (start, idx) in cluster_members:
                        continue
                    current = idx
                    alive = True
                    for a, b in zip(cycle, cycle[1:]):
                        mapping = by_pair[(a, b)]
                        if current not in mapping:
                            alive = False
                            break
                        current = mapping[current]
                    if alive:
                        assert current == idx

    def test_single_point_grid_run(self, tmp_path):
        from eigentrack.config import parse_config
        from eigentrack.eigensolver import SnapshotProvider
        from eigentrack.refinement import run_adaptive

        cfg = parse_config(
            """
            [problem]
            box = -1, 1
            window = 0, 100
            c11 = 1
            c12 = 0
            c21 = 0
            c22 = 1
            mesh_n = 9
            [tolerances]
            w1 = 1
            w2 = 200
            t_pi = 0.5
            t_lambda = 0.001
            [grid]
            initial_level = 0
            """
        )
        provider = SnapshotProvider(cfg, cache_dir=tmp_path)
        state = run_adaptive(cfg, provider=provider)
        assert state.terminated == "converged"
        assert len(state.points) == 1
        graph = build_match_graph(state)
        assert graph.edges == []
        lab = propagate_labels(graph, default_root(state.points))
        (only,) = lab.labels.values()
        assert only == tuple(range(1, len(only) + 1))


class TestReferenceSolution:
    def test_lattice_sizes(self, cfg_1d):
        assert len(uniform_lattice(cfg_1d, 129)) == 129
        assert len(uniform_lattice(cfg_1d, 2)) == 2
        with pytest.raises(ValueError):
            uniform_lattice(cfg_1d, 100)

    def test_two_point_reference(self, cfg_1d, provider_1d):
        lab = reference_solution(cfg_1d, 2, provider=provider_1d)
        assert len(lab.labels) == 2
        left = min(lab.labels, key=lambda p: p.phys)
        assert lab.labels[left] == tuple(range(1, len(lab.labels[left]) + 1))

    def test_provider_of_another_config_rejected(self, cfg_2d, provider_1d):
        with pytest.raises(ValueError, match="different config"):
            reference_solution(cfg_2d, 2, provider=provider_1d)

    def test_reference_129_left_to_right(self, reference_1d, cfg_1d):
        assert len(reference_1d.labels) == 129
        assert reference_1d.root.phys[0] == pytest.approx(0.4)

    def test_2d_reference_lattice(self, reference_2d):
        assert len(reference_2d.labels) == 17 * 17
        assert reference_2d.root.phys == pytest.approx((0.8, 0.8))

    @pytest.mark.parametrize(
        "dim, points, edges, uncertified", [(1, 129, 128, 0), (2, 17, 544, 49)]
    )
    def test_indicator_verdicts_on_the_reference_edges(
        self, request, monkeypatch, dim, points, edges, uncertified
    ):
        # The labeling uses every lattice edge; the paper's indicator leaves
        # the 2D ones along mu1 uncertified in two bands of mu1, and no 1D one.
        request.getfixturevalue(f"reference_{dim}d")   # writes the record
        cfg = request.getfixturevalue(f"cfg_{dim}d")
        provider = request.getfixturevalue(f"provider_{dim}d")
        lattice = uniform_lattice(cfg, points)
        steps = [(points - 1).bit_length() - 2] * dim
        pairs = [(p, q) for p in lattice for q in sorted(axis_moves(p, cfg.box, steps)) if p < q]

        def unexpected(*args):
            raise AssertionError("the reference record was not replayed")

        monkeypatch.setattr(refinement, "check_subinterval", unexpected)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            subs = refinement.check_pairs(provider, pairs, f"reference_{points}", 0)
        failed = [s for s in subs if not s.certified]
        assert (len(subs), len(failed)) == (edges, uncertified)
        bands = [(0.925, 0.9875), (1.003125, 1.05)]
        for s in failed:
            assert s.a.phys[1:] == s.b.phys[1:]   # a step along mu1
            assert any(
                lo - 1e-12 <= s.a.phys[0] < s.b.phys[0] <= hi + 1e-12 for lo, hi in bands
            ), (s.a, s.b)


class TestJobsIndependence:
    def test_pool_and_streamed_matching_give_the_one_job_bits(self, cfg_1d, tmp_path):
        # a pool's workers solve while this process matches behind them; every
        # snapshot, level and reference record and labeling must still carry
        # the bits of a one-job run
        runs = {}
        for jobs in (2, 1):
            provider = SnapshotProvider(cfg_1d, tmp_path / f"jobs_{jobs}")
            state = run_adaptive(cfg_1d, provider=provider, jobs=jobs)
            labeling = propagate_labels(build_match_graph(state), default_root(state.points))
            reference = reference_solution(cfg_1d, 9, provider=provider, jobs=jobs)
            files = {}
            for path in sorted(provider.cache_dir.iterdir()):
                with np.load(path, allow_pickle=False) as data:
                    files[path.name] = {
                        k: (data[k].dtype, data[k].shape, data[k].tobytes()) for k in data.files
                    }
            runs[jobs] = files, labeling, reference
        files = runs[1][0]
        names = [refinement.record_name(provider, stem) for stem in ("reference_9", "level_0")]
        assert all(name in files for name in names)
        assert sum(name.startswith("snap_") for name in files) > 9
        assert runs[2] == runs[1]


class TestCompare:
    def test_error_table_matches_quoted_rows(self, labeling_1d, reference_1d, run_1d):
        rows = compare_labelings(labeling_1d, reference_1d, run_1d)
        table = [
            (r.level, r.points_total, r.wrongly_matched, r.subintervals_checked,
             r.subintervals_uncertified)
            for r in rows
        ]
        assert table == [
            (0, 3, 2, 2, 2),
            (1, 5, 3, 4, 2),
            (2, 7, 0, 4, 1),
            (3, 8, 0, 2, 0),
        ]

    def test_self_comparison_is_clean(self, labeling_1d, run_1d, reference_1d):
        rows = compare_labelings(labeling_1d, labeling_1d, run_1d)
        assert rows[-1].wrongly_matched == 0


def level_graph_from_scratch(state, level):
    """A level's graph built on its own: over the level's grid, one new edge
    per subinterval checked by then, in the order checked."""
    ls = next(ls for ls in state.levels if ls.level == level)
    edges = []
    for s in state.subintervals:
        if s.level <= level:
            weight = float(np.sqrt(sum((x - y) ** 2 for x, y in zip(s.a.phys, s.b.phys))))
            pairs, clusters = tuple(s.assignment.pairs()), tuple(s.clusters_original())
            edges.append(Edge(a=s.a, b=s.b, weight=weight, pairs=pairs, clusters=clusters))
    return MatchGraph(
        nodes=tuple(sorted(ls.points)),
        edges=edges,
        node_sizes={p: len(state.provider.eigenvalues(p)) for p in ls.points},
    )


class TestLevelLabelings:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_equal_to_labeling_each_level_from_scratch(self, dim, request):
        state = request.getfixturevalue(f"run_{dim}d")
        final = request.getfixturevalue(f"labeling_{dim}d")
        want = [
            propagate_labels(level_graph_from_scratch(state, ls.level), default_root(ls.points))
            for ls in state.levels[:-1]
        ]
        got = level_labelings(state, final)
        assert got[-1] is final and len(got) == len(state.levels)
        assert got[:-1] == want
        for g, w in zip(got, want):   # the same labels, reached in the same order
            assert list(g.labels.items()) == list(w.labels.items())

    def test_each_edge_built_once(self, run_2d, labeling_2d, monkeypatch):
        built = []
        real = propagation._edge

        def counting(*args, **kwargs):
            built.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(propagation, "_edge", counting)
        level_labelings(run_2d, labeling_2d)
        # one edge per subinterval of a relabeled level; the last level takes
        # the delivered labeling, so its 2 subintervals get none
        earlier = [(s.a, s.b) for s in run_2d.subintervals if s.level < run_2d.final_level]
        assert built == earlier
        assert (len(built), len(run_2d.subintervals)) == (141, 143)
