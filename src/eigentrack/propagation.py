"""Global labeling of eigenvalue surfaces from locally matched subintervals.

Checked subintervals form a graph on the grid points.  A minimum spanning
tree (edge weight: physical distance, ties broken lexicographically) is
traversed breadth-first from a root; surface identifiers are assigned in
ascending-eigenvalue order at the root and transported across each tree edge
through its matching.  Eigenpairs that appear on the far side of an edge
without a partner (the surface entered the window there) are given fresh
identifiers; members of a cluster share the transported identifiers as a
group, handed out in ascending-eigenvalue order on the far side.

Every edge and every graph, of the adaptive run and of the dense reference
alike, comes from one builder.  A match graph may leave the grid disconnected: the
union-find that builds the tree then names the components, and
``propagate_labels`` raises ``GraphDisconnectedError``.  For reports and the
error table each level before the last is labeled once, from the
subintervals checked up to that level; each subinterval's edge is built once
and serves every level from its own on.
The tree and the traversal sort edges by their endpoints' exact keys
(``ParamPoint.exact``), so those sorts compare tuples of numbers.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

from eigentrack.config import RunConfig
from eigentrack.eigensolver import SnapshotProvider
from eigentrack.grid import ParamPoint, axis_moves, dyadic
from eigentrack.refinement import RunState, Subinterval, check_pairs


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
    weight = math.sqrt(sum((xa - xb) ** 2 for xa, xb in zip(a.phys, b.phys)))
    return Edge(a=a, b=b, weight=weight, pairs=tuple(pairs), clusters=tuple(clusters))


def _union(nodes, edges) -> tuple[list[Edge], dict[ParamPoint, ParamPoint]]:
    """Union-find over ``nodes``, fed ``edges`` in order.

    Returns the edges that joined two separate trees, and each node's root.
    """
    parent = {p: p for p in nodes}   # values are node objects: a root is its own parent

    def find(x):
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = []
    for e in edges:
        ra, rb = find(e.a), find(e.b)
        if ra is not rb:
            parent[ra] = rb
            joined.append(e)
    return joined, {p: find(p) for p in nodes}


@dataclass
class MatchGraph:
    nodes: tuple[ParamPoint, ...]
    edges: list[Edge]
    node_sizes: dict[ParamPoint, int]


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


def _sub_edge(sub: Subinterval) -> Edge:
    return _edge(sub.a, sub.b, sub.assignment.pairs(), sub.clusters_original())


def _graph(points, edges: list[Edge], provider: SnapshotProvider) -> MatchGraph:
    """The match graph over ``points``, in sorted order, with their eigenpair counts."""
    nodes = tuple(sorted(points))
    return MatchGraph(nodes, edges, {p: len(provider.eigenvalues(p)) for p in nodes})


def build_match_graph(state: RunState) -> MatchGraph:
    """Graph over the final grid with one edge per certified subinterval.

    The graph may be disconnected; ``propagate_labels`` raises
    ``GraphDisconnectedError`` on it."""
    if state.terminated is None:
        raise ValueError("run has not terminated")
    edges = [_sub_edge(s) for s in state.subintervals if s.certified]
    return _graph(state.points, edges, state.provider)


def minimum_spanning_tree(graph: MatchGraph) -> list[Edge]:
    """Kruskal's method; ties broken by lexicographic endpoint order so the
    tree, and with it every labeling, is reproducible.  A graph the tree
    cannot span raises ``GraphDisconnectedError`` with its components."""
    order = sorted(graph.edges, key=lambda e: (e.weight, e.a.exact, e.b.exact))
    tree, roots = _union(graph.nodes, order)
    if len(tree) < len(graph.nodes) - 1:
        components: dict[ParamPoint, set[ParamPoint]] = {}
        for p, root in roots.items():
            components.setdefault(root, set()).add(p)
        raise GraphDisconnectedError(list(components.values()))
    return tree


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
    """Assign surface identifiers over the whole grid from a root point;
    raises ``GraphDisconnectedError`` if the graph leaves the grid disconnected."""
    tree = minimum_spanning_tree(graph)
    if root not in graph.node_sizes:
        raise ValueError(f"root {root} is not a grid point")

    adjacency: dict[ParamPoint, list[Edge]] = {p: [] for p in graph.nodes}
    for e in tree:
        adjacency[e.a].append(e)
        adjacency[e.b].append(e)

    next_id = itertools.count(1).__next__
    labels = {root: tuple(next_id() for _ in range(graph.node_sizes[root]))}

    queue = deque([root])
    while queue:
        current = queue.popleft()
        for e in sorted(adjacency[current], key=lambda e: (e.a.exact, e.b.exact)):
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
    """Labeling on a dense uniform lattice from the matching of every
    axis-consecutive subinterval, certified or not and without clusters, by
    the same tree propagation.  The subintervals are checked as an adaptive
    level's are, through the record ``reference_<points_per_axis>_<digest>.npz``
    that ``refinement.record_name`` names.
    A given ``provider`` must serve ``cfg``."""
    provider = provider if provider is not None else SnapshotProvider(cfg)
    if provider.cfg != cfg:
        raise ValueError("provider was built for a different config")
    points = uniform_lattice(cfg, points_per_axis)
    log2_step = (points_per_axis - 1).bit_length() - 2  # spacing 2**(1-k), may be -1
    pairs = [
        (p, q) for p in points for q in sorted(axis_moves(p, cfg.box, [log2_step] * cfg.dim))
        if p < q
    ]
    with provider.solving(jobs):   # check_pairs matches behind the pool's workers, if any
        provider.ensure(points)
        subs = check_pairs(provider, pairs, f"reference_{points_per_axis}", 0)
    graph = _graph(points, [_edge(s.a, s.b, s.assignment.pairs()) for s in subs], provider)
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
    earlier level is labeled once, over its grid, from every subinterval
    checked by then.  Uncertified ones are included: mid-run, the a priori
    matching is the algorithm's current belief, and early levels may have
    nothing else.  Subintervals are listed level by level, so those checked
    by a level are a prefix of them, and each one's edge is built once.
    """
    subs = [s for s in state.subintervals if s.level < state.final_level]
    edges = [_sub_edge(s) for s in subs]
    labelings = []
    for ls in state.levels[:-1]:
        graph = _graph(ls.points, edges[: sum(s.level <= ls.level for s in subs)], state.provider)
        labelings.append(propagate_labels(graph, default_root(ls.points)))
    return labelings + [final]


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
