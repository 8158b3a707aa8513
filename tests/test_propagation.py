import dataclasses

import pytest

from eigentrack.grid import ParamPoint, dyadic
from eigentrack.propagation import (
    Edge,
    GraphDisconnectedError,
    MatchGraph,
    build_match_graph,
    compare_labelings,
    default_root,
    minimum_spanning_tree,
    propagate_labels,
    reference_solution,
    uniform_lattice,
)

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

    def test_build_match_graph_rejects_gap(self, run_1d):
        # dropping one certified edge of the final 1D path splits the grid
        # at that edge; the error lists both sides
        cut = next(s for s in run_1d.subintervals if s.certified)
        gapped = dataclasses.replace(
            run_1d, subintervals=[s for s in run_1d.subintervals if s is not cut]
        )
        with pytest.raises(GraphDisconnectedError) as err:
            build_match_graph(gapped)
        components = err.value.components
        assert len(components) == 2
        assert set().union(*components) == set(run_1d.points)
        left = {p for p in run_1d.points if p.phys <= min(cut.a.phys, cut.b.phys)}
        assert left in components
        sizes = sorted((len(c) for c in components), reverse=True)
        assert f"sizes {sizes}" in str(err.value)

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
        part_left = propagate_labels(graph, roots[0]).as_partition()
        part_right = propagate_labels(graph, roots[-1]).as_partition()
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
        partition = {
            frozenset(
                (p, idx) for p, labels in labeling.labels.items()
                for idx, s in enumerate(labels) if s == sid
            )
            for sid in ids
        }
        assert labeling.as_partition() == partition


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
