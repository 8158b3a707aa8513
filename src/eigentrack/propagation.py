"""Global labeling of eigenvalue surfaces from locally matched subintervals.

Checked subintervals form a graph on the grid points.  A minimum spanning
tree (edge weight: physical distance, ties broken lexicographically) is
traversed breadth-first from a root; surface identifiers are assigned in
ascending-eigenvalue order at the root and transported across each tree edge
through its matching.  Eigenpairs that appear on the far side of an edge
without a partner (the surface entered the window there) are given fresh
identifiers; members of a cluster share the transported identifiers as a
group, handed out in ascending-eigenvalue order on the far side.

Every edge, of the adaptive graphs and of the dense reference alike, comes
from one constructor, and one union-find serves both the tree and the
connectivity check.  For reports and the error table each level before the
last is labeled once, from the subintervals checked up to that level.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from eigentrack.config import RunConfig
from eigentrack.eigensolver import SnapshotProvider
from eigentrack.grid import ParamPoint, dyadic
from eigentrack.matching import cost_matrix, solve_assignment
from eigentrack.refinement import RunState

import numpy as np


class GraphDisconnectedError(RuntimeError):
    """The matching graph does not connect all grid points."""

    def __init__(self, components):
        self.components = components
        sizes = sorted((len(c) for c in components), reverse=True)
        super().__init__(
            f"matching graph has {len(components)} components of sizes {sizes}; "
            "refusing to propagate labels across gaps"
        )


@dataclass(frozen=True)
class Edge:
    """A usable matching between two grid points.

    ``pairs`` are matched eigenpair indices in original ascending order on
    each side, ``clusters`` the indistinguishable groups, also in original
    indices.
    """

    a: ParamPoint
    b: ParamPoint
    weight: float
    pairs: tuple[tuple[int, int], ...]
    clusters: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _edge(a: ParamPoint, b: ParamPoint, pairs, clusters=()) -> Edge:
    """The edge between two grid points, weighted by their physical distance."""
    weight = float(np.sqrt(sum((xa - xb) ** 2 for xa, xb in zip(a.phys, b.phys))))
    return Edge(a=a, b=b, weight=weight, pairs=tuple(pairs), clusters=tuple(clusters))


def _union(nodes, edges) -> tuple[list[Edge], dict[ParamPoint, ParamPoint]]:
    """Union-find over ``nodes``, fed ``edges`` in order.

    Returns the edges that joined two separate trees, and each node's root.
    """
    parent = {p: p for p in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = []
    for e in edges:
        ra, rb = find(e.a), find(e.b)
        if ra != rb:
            parent[ra] = rb
            joined.append(e)
    return joined, {p: find(p) for p in nodes}


@dataclass
class MatchGraph:
    nodes: tuple[ParamPoint, ...]
    edges: list[Edge]
    node_sizes: dict[ParamPoint, int]

    def components(self) -> list[set[ParamPoint]]:
        groups: dict[ParamPoint, set[ParamPoint]] = {}
        for p, root in _union(self.nodes, self.edges)[1].items():
            groups.setdefault(root, set()).add(p)
        return list(groups.values())


@dataclass
class SurfaceLabeling:
    """Globally consistent surface identifiers per (grid point, eigenindex)."""

    labels: dict[ParamPoint, tuple[int, ...]]
    root: ParamPoint

    def surface_ids(self) -> list[int]:
        return sorted({sid for ids in self.labels.values() for sid in ids})

    def surfaces(self) -> dict[int, list[tuple[ParamPoint, int]]]:
        """Each surface, in ascending identifier order, with the grid points
        where it is present, in ascending order, and its local index there."""
        out: dict[int, list[tuple[ParamPoint, int]]] = {}
        for point in sorted(self.labels):
            for idx, sid in enumerate(self.labels[point]):
                out.setdefault(sid, []).append((point, idx))
        return dict(sorted(out.items()))

    def as_partition(self) -> set[frozenset]:
        """Surfaces as sets of (point, index) pairs, identifier-free."""
        return {frozenset(members) for members in self.surfaces().values()}


def _graph(state: RunState, points, subintervals) -> MatchGraph:
    return MatchGraph(
        nodes=tuple(sorted(points)),
        edges=[
            _edge(s.a, s.b, s.assignment.pairs(), s.clusters_original()) for s in subintervals
        ],
        node_sizes={p: state.provider.get(p).n for p in points},
    )


def build_match_graph(state: RunState) -> MatchGraph:
    """Graph over the final grid with one edge per certified subinterval."""
    if state.terminated is None:
        raise ValueError("run has not terminated")
    graph = _graph(state, state.points, [s for s in state.subintervals if s.certified])
    comps = graph.components()
    if len(comps) > 1:
        raise GraphDisconnectedError(comps)
    return graph


def level_graph(state: RunState, level: int) -> MatchGraph:
    """Graph over the level's grid using every subinterval checked so far.

    Uncertified edges are included: mid-run, the a priori matching is the
    algorithm's current belief, and early levels may have nothing else.
    """
    level_state = next(ls for ls in state.levels if ls.level == level)
    return _graph(state, level_state.points, [s for s in state.subintervals if s.level <= level])


def minimum_spanning_tree(graph: MatchGraph) -> list[Edge]:
    """Kruskal's method; ties broken by lexicographic endpoint order so the
    tree, and with it every labeling, is reproducible."""
    order = sorted(graph.edges, key=lambda e: (e.weight, e.a.ref, e.b.ref))
    return _union(graph.nodes, order)[0]


def _transport(edge: Edge, labels_parent, parent_is_a: bool, n_child: int, next_id):
    """Labels on the child side of one tree edge."""
    if parent_is_a:
        pairs = edge.pairs
        clusters = edge.clusters
    else:
        pairs = tuple((jb, ja) for ja, jb in edge.pairs)
        clusters = tuple((cols, rows) for rows, cols in edge.clusters)

    child = [0] * n_child
    in_cluster_parent = {i for rows, _ in clusters for i in rows}
    in_cluster_child = {i for _, cols in clusters for i in cols}

    for rows, cols in clusters:
        ids = [labels_parent[i] for i in sorted(rows)]
        for idx, sid in zip(sorted(cols), ids):
            child[idx] = sid
    for ip, ic in pairs:
        if ip in in_cluster_parent or ic in in_cluster_child:
            continue
        child[ic] = labels_parent[ip]
    for idx in range(n_child):
        if child[idx] == 0 and idx not in in_cluster_child:
            child[idx] = next_id()
    return tuple(child)


def propagate_labels(graph: MatchGraph, root: ParamPoint) -> SurfaceLabeling:
    """Assign surface identifiers over the whole grid from a root point."""
    tree = minimum_spanning_tree(graph)
    if len(tree) < len(graph.nodes) - 1:
        raise GraphDisconnectedError(graph.components())
    if root not in graph.node_sizes:
        raise ValueError(f"root {root} is not a grid point")

    adjacency: dict[ParamPoint, list[Edge]] = {p: [] for p in graph.nodes}
    for e in tree:
        adjacency[e.a].append(e)
        adjacency[e.b].append(e)

    next_id = itertools.count(1).__next__
    labels = {root: tuple(next_id() for _ in range(graph.node_sizes[root]))}

    queue = [root]
    while queue:
        current = queue.pop(0)
        for e in sorted(adjacency[current], key=lambda e: (e.a.ref, e.b.ref)):
            other = e.b if e.a == current else e.a
            if other in labels:
                continue
            labels[other] = _transport(
                e, labels[current], e.a == current, graph.node_sizes[other], next_id
            )
            queue.append(other)
    return SurfaceLabeling(labels=labels, root=root)


def default_root(points) -> ParamPoint:
    """Lexicographically smallest grid point in physical coordinates."""
    return min(points, key=lambda p: p.phys)


# ---------------------------------------------------------------------------
# Dense reference solution
# ---------------------------------------------------------------------------

def uniform_lattice(cfg: RunConfig, points_per_axis: int) -> list[ParamPoint]:
    k = (points_per_axis - 1).bit_length() - 1
    if points_per_axis < 2 or points_per_axis != (1 << k) + 1:
        raise ValueError("points_per_axis must be 2**k + 1 so lattice points are dyadic")
    axis = [dyadic(2 * j - (1 << k), k) for j in range(points_per_axis)]
    return sorted(
        ParamPoint.from_ref(ref, cfg.box) for ref in itertools.product(axis, repeat=cfg.dim)
    )


def reference_solution(
    cfg: RunConfig,
    points_per_axis: int,
    provider: SnapshotProvider | None = None,
    jobs: int = 1,
) -> SurfaceLabeling:
    """Labeling on a dense uniform lattice: a priori matching on every
    axis-consecutive subinterval, no verification, same tree propagation.
    A given ``provider`` must serve ``cfg``."""
    provider = provider if provider is not None else SnapshotProvider(cfg)
    if provider.cfg != cfg:
        raise ValueError("provider was built for a different config")
    points = uniform_lattice(cfg, points_per_axis)
    with provider.solving(jobs):
        provider.ensure(points)

    lattice = set(points)
    log2_step = (points_per_axis - 1).bit_length() - 2  # spacing 2**(1-k), may be -1
    edges = []
    for p in points:
        for axis in range(cfg.dim):
            c = p.ref[axis].shifted(1, log2_step)
            if c is None:
                continue
            ref = p.ref[:axis] + (c,) + p.ref[axis + 1 :]
            q = ParamPoint.from_ref(ref, cfg.box)
            if q not in lattice:
                continue
            assignment = solve_assignment(
                cost_matrix(provider.get(p), provider.get(q), provider.mass, cfg.w1, cfg.w2)
            )
            edges.append(_edge(p, q, assignment.pairs()))
    sizes = {p: provider.get(p).n for p in points}
    graph = MatchGraph(nodes=tuple(points), edges=edges, node_sizes=sizes)
    return propagate_labels(graph, default_root(points))


# ---------------------------------------------------------------------------
# Error table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorRow:
    level: int
    points_total: int
    wrongly_matched: int
    subintervals_checked: int
    subintervals_uncertified: int


def _nearest_reference_point(p: ParamPoint, reference: SurfaceLabeling) -> ParamPoint:
    if p in reference.labels:
        return p
    return min(
        reference.labels, key=lambda q: max(abs(xa - xb) for xa, xb in zip(p.phys, q.phys))
    )


def _wrong_points(level_labeling: SurfaceLabeling, reference: SurfaceLabeling) -> int:
    """Count grid points whose surface assignment disagrees with the reference.

    Identifier namespaces are aligned canonically: the bijection is fixed at
    the root and extended greedily, walking the grid in sorted order, the
    first time an unaligned identifier meets an unclaimed reference
    identifier at the same local index (surfaces are nameless until they
    first appear, so their first co-appearance defines the correspondence).
    A point is wrong when any of its indices contradicts the alignment.
    """
    root = level_labeling.root
    ref_root = _nearest_reference_point(root, reference)
    to_ref = dict(zip(level_labeling.labels[root], reference.labels[ref_root]))
    taken = set(to_ref.values())

    wrong = 0
    for p in sorted(level_labeling.labels):
        ids = level_labeling.labels[p]
        ref_ids = reference.labels[_nearest_reference_point(p, reference)]
        ok = len(ids) == len(ref_ids)
        if ok:
            for a, r in zip(ids, ref_ids):
                if a not in to_ref and r not in taken:
                    to_ref[a] = r
                    taken.add(r)
            ok = all(to_ref.get(a) == r for a, r in zip(ids, ref_ids))
        if not ok:
            wrong += 1
    return wrong


def level_labelings(state: RunState, final: SurfaceLabeling) -> list[SurfaceLabeling]:
    """One labeling per level of ``state.levels``.

    The last level gets ``final``, the labeling actually delivered; each
    earlier level is labeled once from the subintervals checked by then.
    """
    return [
        final
        if ls.level == state.final_level
        else propagate_labels(level_graph(state, ls.level), default_root(ls.points))
        for ls in state.levels
    ]


def score_levels(
    labelings: list[SurfaceLabeling], reference: SurfaceLabeling, state: RunState
) -> list[ErrorRow]:
    """Error table rows for per-level labelings as ``level_labelings`` returns them."""
    return [
        ErrorRow(
            level=rec["level"],
            points_total=rec["points_total"],
            wrongly_matched=_wrong_points(labeling, reference),
            subintervals_checked=rec["subintervals_checked"],
            subintervals_uncertified=rec["subintervals_uncertified"],
        )
        for rec, labeling in zip(state.level_records(), labelings)
    ]


def compare_labelings(
    adaptive: SurfaceLabeling, reference: SurfaceLabeling, state: RunState
) -> list[ErrorRow]:
    """Level-by-level error table of the adaptive run against a reference."""
    return score_levels(level_labelings(state, adaptive), reference, state)
