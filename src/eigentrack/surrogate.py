"""Piecewise-linear surrogate of the parameter-to-eigenvalue map.

Each labeled surface is interpolated over the grid points where it is
present: sorted breakpoints with linear interpolation in one parameter
dimension, an exact Delaunay triangulation with linear interpolation per
simplex in higher dimensions.  Queries where a surface has no coverage (it
exited the window, or sits between presence gaps) evaluate to None.

``build_surrogate`` gathers each surface's samples and their lookup; in one
dimension it also lays out the segments.  A query first looks its point up
among the surface's samples, so an exact sample returns its stored value bit
for bit in O(1) and builds nothing.  In one dimension the enclosing segment
is found by bisection on the segment starts.  In higher dimensions a surface
is triangulated and indexed at its first query that is not a sample, and
keeps both; a command that only writes the samples triangulates nothing.

In higher dimensions the samples are triangulated in reference coordinates,
which are dyadic: scaled by ``2**D`` they are integers, and ``delaunay``
decides every orientation and in-sphere test exactly.  It inserts the points
in lexicographic order of their reference coordinates and replaces a simplex
only when the new point lies strictly inside its circumsphere.  That order is
the tie rule where four or more samples are cospherical, so the
triangulation, and every query value, is the same for any order of the
samples.  With equal box lengths, as in the bundled 2D config, reference and
physical coordinates differ by one scale and a shift, and the triangulation
is a Delaunay triangulation of the physical samples; for unequal box lengths
it is Delaunay in reference coordinates, not in physical ones.

The value at a query point is that of the first simplex, in the order of
their sorted vertex ranks, whose barycentric coordinates ``c_i`` there are
all at least ``-TAU``, ``TAU = 2**-26``; with no such simplex the query
returns None.  TAU lies far above the rounding of the coordinates (about
1e-13 on the bundled grids), so a point on a facet shared by two simplices
finds one of them, and a point on the hull is covered.  Each affine map
comes from ``numpy.linalg.inv`` of the simplex's edge matrix, which is
invertible because every simplex is exactly positively oriented.

Each surface has a bucket index: a uniform grid over its samples' bounding
box, with about four buckets per simplex, each listing in simplex order the
simplices whose coordinates can all reach ``-2 TAU`` somewhere in it (see
``_build_index``).  A query finds its bucket by arithmetic and takes the
first listed simplex that accepts it, which is the first of all simplices
that does: the index never leaves such a simplex out.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from eigentrack.delaunay import delaunay
from eigentrack.eigensolver import SnapshotProvider
from eigentrack.grid import ParamPoint
from eigentrack.propagation import SurfaceLabeling

TAU = 2.0**-26   # a simplex takes a query whose barycentric coordinates are all >= -TAU
_BUCKETS_PER_SIMPLEX = 4


@dataclass
class _SurfaceData:
    points: list[ParamPoint]
    values: np.ndarray                 # one eigenvalue per sample point
    segments: list[tuple[float, float, float, float]] = field(default_factory=list)
    simplices: np.ndarray | None = None   # (n, d+1) indices into points (d >= 2), once built
    point_only: bool = False
    # derived: physical sample point -> value, the 1D segment starts, per
    # simplex its affine map rows, origin and vertex values, and the bucket
    # index: grid corners, buckets per unit length and per axis, and bucket
    # k's simplices entries[bounds[k]:bounds[k + 1]] (see _build_index)
    exact: dict[tuple[float, ...], float] = field(init=False, repr=False)
    starts: list[float] = field(init=False, repr=False, default_factory=list)
    cells: list = field(init=False, repr=False, default_factory=list)
    lo: tuple[float, ...] = field(init=False, repr=False, default=())
    hi: tuple[float, ...] = field(init=False, repr=False, default=())
    scale: tuple[float, ...] = field(init=False, repr=False, default=())
    per_axis: int = field(init=False, repr=False, default=0)
    entries: tuple = field(init=False, repr=False, default=())
    bounds: list[int] = field(init=False, repr=False, default_factory=list)

    def __post_init__(self) -> None:
        self.exact = {}
        for point, value in zip(self.points, self.values.tolist()):
            self.exact.setdefault(point.phys, value)


@dataclass
class Surrogate:
    dim: int
    box: tuple[tuple[float, float], ...]
    surfaces: dict[int, _SurfaceData]
    # sorted sample points -> simplices, shared by the surfaces built so far
    triangulations: dict = field(default_factory=dict, compare=False, repr=False)

    def surface_ids(self) -> list[int]:
        return sorted(self.surfaces)

    def samples(self, surface_id: int) -> list[tuple[ParamPoint, float]]:
        data = self.surfaces[surface_id]
        return list(zip(data.points, data.values.tolist()))


def build_surrogate(labeling: SurfaceLabeling, provider: SnapshotProvider) -> Surrogate:
    """One interpolant per surface over the points where it is present.

    A surface sampled at fewer than two points (or, in two or more
    dimensions, at too few affinely independent points to triangulate) is
    marked point-only and evaluates only at its own samples.  In two or more
    dimensions that is decided, and the surface triangulated, at its first
    off-sample query (see ``eval_surrogate``).
    """
    cfg = provider.cfg
    grid_order = sorted(labeling.labels)
    surfaces: dict[int, _SurfaceData] = {}
    for sid, members in labeling.surfaces().items():
        data = _SurfaceData(
            points=[point for point, _ in members],
            values=np.array([float(provider.eigenvalues(point)[i]) for point, i in members]),
        )
        if cfg.dim == 1:
            _build_1d(data, grid_order)
        surfaces[sid] = data
    return Surrogate(dim=cfg.dim, box=cfg.box, surfaces=surfaces)


def _build_1d(data: _SurfaceData, grid_order: list[ParamPoint]) -> None:
    """Linear segments between consecutive present grid points.

    Presence gaps (the surface left the window at an intermediate grid
    point) split the surface into separate runs; the surrogate is undefined
    inside a gap.
    """
    if len(data.points) < 2:
        data.point_only = True
        return
    position = {p: i for i, p in enumerate(grid_order)}
    values = data.values.tolist()
    for (pa, va), (pb, vb) in zip(zip(data.points, values), zip(data.points[1:], values[1:])):
        if position[pb] - position[pa] == 1:  # consecutive in the full grid
            data.segments.append((pa.phys[0], pb.phys[0], va, vb))
    if not data.segments:
        data.point_only = True
    data.starts = [xa for xa, _, _, _ in data.segments]


def _triangulate(points: tuple[ParamPoint, ...]) -> list[tuple[int, ...]]:
    """The exact Delaunay simplices of sorted ``points``, as sorted rank tuples, sorted.

    The reference coordinates, scaled by ``2**D`` (D their largest dyadic
    exponent), are integers, and go to ``delaunay`` in lexicographic order.
    """
    scale = max(c.log2_den for p in points for c in p.ref)
    coords = [tuple(c.num << (scale - c.log2_den) for c in p.ref) for p in points]
    return sorted(tuple(sorted(s)) for s in delaunay(coords))


def _build_nd(data: _SurfaceData, triangulations: dict) -> None:
    """Triangulate the surface's samples exactly and index the simplices.

    The simplices are numbered by their sorted vertex ranks, so the result
    does not depend on the order of ``data.points``.  They depend on the
    sample set alone, so ``triangulations`` (sorted points -> simplices)
    lets surfaces with the same samples share one triangulation.
    """
    d = len(data.points[0].ref) if data.points else 0
    if len(data.points) < d + 1:   # also no points at all
        data.point_only = True
        return
    order = sorted(range(len(data.points)), key=data.points.__getitem__)
    key = tuple(data.points[i] for i in order)
    if key not in triangulations:
        triangulations[key] = _triangulate(key)
    simplices = triangulations[key]
    if not simplices:   # the samples lie in a flat
        data.point_only = True
        return
    data.simplices = np.array([[order[v] for v in s] for s in simplices])
    _build_index(data)


def _build_index(data: _SurfaceData) -> None:
    """Per simplex its cell, and the surface's bucket index; see the module docstring.

    The grid covers the samples' bounding box widened by ``pad``, more than
    any simplex's region ``c >= -TAU`` reaches beyond its vertices.  A bucket
    lists, in simplex order, every simplex whose barycentric coordinates can
    all reach ``-2 TAU`` inside it: each ``c_i`` is affine, so its largest
    value over the bucket is its value at the centre plus half the bucket's
    widths times its gradient's absolute entries.  The list stops after the
    first simplex whose coordinates stay above ``2 TAU`` over the whole bucket,
    because a query there never looks further.

    Simplices, and (simplex, bucket) entries, run along the last axis: numpy
    reduces a short leading axis much faster than a short last one.
    """
    simplices = data.simplices
    n, d = simplices.shape[0], simplices.shape[1] - 1
    points = np.array([p.phys for p in data.points])
    corners = points[simplices]                        # (n, d+1, d)
    origin = corners[:, d]
    transform = np.linalg.inv((corners[:, :d] - origin[:, None]).transpose(0, 2, 1))
    # gradient of c_i, (d+1, d, n), with c_i = gradient . (x - origin) + [i == d]
    gradients = np.concatenate([transform, -transform.sum(axis=1, keepdims=True)], axis=1)
    gradients = gradients.transpose(1, 2, 0)
    pad = 2 * (d + 1) * TAU * (points.max(axis=0) - points.min(axis=0))
    lo, hi = points.min(axis=0) - pad, points.max(axis=0) + pad
    g = int(np.ceil((_BUCKETS_PER_SIMPLEX * n) ** (1 / d)))   # buckets per axis
    width = (hi - lo) / g
    reach = (np.abs(gradients) * width[:, None] / 2).sum(axis=1)   # (d+1, n)
    # the buckets each simplex's bounding box, widened by pad, meets
    box = corners.transpose(2, 1, 0) - lo[:, None, None]
    widened = (box.min(axis=1) - pad[:, None], box.max(axis=1) + pad[:, None])
    first, last = (np.minimum((x / width[:, None]).astype(int).clip(0), g - 1) for x in widened)
    # one entry per (simplex, bucket) pair, with its coordinates at the bucket's centre
    span = last - first + 1
    count = span.prod(axis=0)
    simplex = np.repeat(np.arange(n), count)
    offset = np.arange(len(simplex)) - np.repeat(np.cumsum(count) - count, count)
    key = np.zeros(len(simplex), dtype=int)
    coord = np.zeros((d + 1, len(simplex)))
    coord[d] = 1.0
    for j in reversed(range(d)):   # offset counts through the simplex's buckets
        offset, index = np.divmod(offset, span[j, simplex])
        index += first[j, simplex]
        key += index * g ** (d - 1 - j)
        centre = lo[j] + (index + 0.5) * width[j]
        coord += gradients[:, j, simplex] * (centre - origin[simplex, j])
    reach = reach[:, simplex]
    keep = (coord + reach >= -2 * TAU).all(axis=0)
    settled = (coord - reach > 2 * TAU).all(axis=0)
    key, simplex, settled = key[keep], simplex[keep], settled[keep]
    order = np.lexsort((simplex, key))
    key, simplex, settled = key[order], simplex[order], settled[order]
    # drop what follows a settled simplex in its bucket
    before = np.cumsum(settled) - settled
    start = np.searchsorted(key, key)
    listed = before == before[start]

    values = data.values.tolist()
    data.cells = [
        (rows, tuple(base), [values[m] for m in vertices])
        for rows, base, vertices in zip(transform.tolist(), origin.tolist(), simplices.tolist())
    ]
    data.lo, data.hi = tuple(lo.tolist()), tuple(hi.tolist())
    data.scale, data.per_axis = tuple((1 / width).tolist()), g
    data.entries = tuple(data.cells[m] for m in simplex[listed].tolist())
    data.bounds = np.searchsorted(key[listed], np.arange(g**d + 1)).tolist()


def _barycentric(cell, mu: tuple[float, ...]) -> float | None:
    """The linear interpolant on one simplex at mu, or None unless every
    barycentric coordinate of mu is at least ``-TAU``.

    The coordinates are ``c_i = sum_j T_ij (x_j - r_j)`` and
    ``c_d = 1 - c_0 - ... - c_{d-1}``; the value is ``sum_i c_i v_i``, each
    sum accumulated from zero in index order.
    """
    rows, origin, vals = cell
    last, out = 1.0, 0.0
    for row, v in zip(rows, vals):
        c = 0.0
        for t, x, r in zip(row, mu, origin):
            c += t * (x - r)
        if c < -TAU:
            return None
        last -= c
        out += c * v
    if last < -TAU:
        return None
    return out + last * vals[-1]


def query_point(mu, dim: int, box) -> tuple[float, ...]:
    """``mu`` as a tuple of floats; ValueError unless it is a point of ``box``,
    which has ``dim`` axes.

    ``eval_surrogate`` makes the same checks inline: a call costs about 2 %
    of a 2D query and 3.5 % of a 1D one.
    """
    mu = tuple(float(x) for x in mu)
    if len(mu) != dim:
        raise ValueError(f"query has dimension {len(mu)}, expected {dim}")
    for x, (a, b) in zip(mu, box):
        if not a <= x <= b:
            raise ValueError(f"query {mu} is outside the parameter box")
    return mu


def eval_surrogate(s: Surrogate, surface_id: int, mu) -> float | None:
    """Interpolated eigenvalue of one surface at a physical point.

    Returns None where the surface has no coverage.  Unknown surface
    identifiers raise KeyError; queries outside the parameter box, or of
    another dimension, raise ValueError; both before anything is built.
    Exact sample points reproduce their stored value bit for bit.
    """
    if surface_id not in s.surfaces:
        raise KeyError(f"unknown surface id {surface_id}")
    mu = tuple(float(x) for x in mu)   # as query_point(mu, s.dim, s.box)
    if len(mu) != s.dim:
        raise ValueError(f"query has dimension {len(mu)}, expected {s.dim}")
    for x, (a, b) in zip(mu, s.box):
        if not a <= x <= b:
            raise ValueError(f"query {mu} is outside the parameter box")
    data = s.surfaces[surface_id]
    value = data.exact.get(mu)
    if value is not None or data.point_only:
        return value
    if s.dim == 1:
        x = mu[0]
        i = bisect_right(data.starts, x) - 1
        if i < 0:
            return None
        xa, xb, va, vb = data.segments[i]
        return va + (vb - va) * (x - xa) / (xb - xa) if x <= xb else None
    if data.simplices is None:   # the surface's first off-sample query
        _build_nd(data, s.triangulations)
        if data.point_only:
            return None
    g, key = data.per_axis, 0
    for x, lo, hi, scale in zip(mu, data.lo, data.hi, data.scale):
        if not lo <= x <= hi:   # no simplex's coordinates reach -TAU there
            return None
        key = key * g + min(int((x - lo) * scale), g - 1)
    for cell in data.entries[data.bounds[key] : data.bounds[key + 1]]:
        value = _barycentric(cell, mu)
        if value is not None:
            return value
    return None
