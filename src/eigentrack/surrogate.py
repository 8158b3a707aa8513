"""Piecewise-linear surrogate of the parameter-to-eigenvalue map.

Each labeled surface is interpolated over the grid points where it is
present: sorted breakpoints with linear interpolation in one parameter
dimension, a Qhull Delaunay triangulation with linear interpolation per
simplex in higher dimensions.  Queries where a surface has no coverage (it
exited the window, or sits between presence gaps) evaluate to None.

A query first looks its point up among the surface's samples, so an exact
sample returns its stored value bit for bit in O(1).  In one dimension the
enclosing segment is found by bisection on the segment starts.  In higher
dimensions the value is the barycentric combination of the vertex values of
the simplex that ``Delaunay.find_simplex`` returns, evaluated with the affine
maps of ``Delaunay.transform`` in the order of scipy's compiled
``LinearNDInterpolator`` kernel, so that both agree bit for bit.  (Both use
the same directed walk and tolerance.  Only their brute-force fallbacks after
a failed walk differ: ``find_simplex`` accepts a point up to about 1e-7 in
barycentric coordinates outside the hull, the interpolator up to 1e-8.)

Most queries get that simplex without calling ``find_simplex``, whose
per-call overhead is most of its cost.  Each surface has a bucket index: a
uniform grid over its samples' bounding box, with about four buckets per
simplex, each listing the simplices a point in it may lie in.  The query
finds its bucket by arithmetic and computes the barycentric coordinates
``c_i`` of each listed simplex; ``c_i`` times the height of facet i over the
opposite vertex is the signed distance from that facet.  Then:

- a simplex the point lies more than ``delta`` inside (every facet distance
  above delta) gives the value;
- a point more than ``delta`` outside every listed simplex gives None;
- a point within ``delta`` of a facet is left to ``find_simplex``.

``find_simplex`` accepts a simplex only where every coordinate is at least
``-tol``, ``tol = sqrt(100 DBL_EPSILON)`` (its widest tolerance, that of its
brute-force search), which reaches at most ``(d+1) tol D`` out of the
simplex, ``D`` the diameter of the bounding box; ``delta = 4 (d+1) tol D``.
The simplices tile the hull, so a point more than delta inside one is at
least delta away from every other: ``find_simplex`` returns that one.  A facet
distance below ``-delta`` makes ``c_i < -delta / D < -tol``, and a simplex
that a bucket leaves out is, over the whole bucket, more than ``2 delta``
away or outside a facet, or the bucket lies more than ``2 delta`` inside the
one simplex it lists (see ``_build_index``): ``find_simplex`` returns -1 where
the index says None.  So every answer, None included, has the bits of the
``find_simplex`` path.  A simplex whose affine map is not finite never
answers from the index.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from eigentrack.eigensolver import SnapshotProvider
from eigentrack.grid import ParamPoint
from eigentrack.propagation import SurfaceLabeling

# find_simplex's widest acceptance of a simplex: every barycentric coordinate
# at least -sqrt(100 * DBL_EPSILON), the tolerance of its brute-force search
_FIND_SIMPLEX_TOL = math.sqrt(100 * np.finfo(float).eps)
_SAFETY = 4.0   # delta over the farthest that tolerance reaches out of a simplex
_BUCKETS_PER_SIMPLEX = 4


@dataclass
class _SurfaceData:
    points: list[ParamPoint]
    values: np.ndarray                 # one eigenvalue per sample point
    segments: list[tuple[float, float, float, float]] = field(default_factory=list)
    triangulation: object | None = None   # scipy.spatial.Delaunay (d >= 2)
    point_only: bool = False
    # derived: physical sample point -> value, the 1D segment starts, per
    # simplex its affine map rows, origin, vertex values and the coordinates
    # at distance delta from its facets, and the bucket index: grid corner,
    # buckets per unit length and per axis, and bucket k's simplices
    # entries[bounds[k]:bounds[k + 1]] (see _build_index)
    exact: dict[tuple[float, ...], float] = field(init=False, repr=False)
    starts: list[float] = field(init=False, repr=False, default_factory=list)
    cells: list = field(init=False, repr=False, default_factory=list)
    lo: tuple[float, ...] = field(init=False, repr=False, default=())
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

    def surface_ids(self) -> list[int]:
        return sorted(self.surfaces)

    def samples(self, surface_id: int) -> list[tuple[ParamPoint, float]]:
        data = self.surfaces[surface_id]
        return list(zip(data.points, data.values))


def build_surrogate(labeling: SurfaceLabeling, provider: SnapshotProvider) -> Surrogate:
    """One interpolant per surface over the points where it is present.

    A surface sampled at fewer than two points (or, in two or more
    dimensions, at too few affinely independent points to triangulate) is
    marked point-only and evaluates only at its own samples.
    """
    cfg = provider.cfg
    grid_order = sorted(labeling.labels)
    surfaces: dict[int, _SurfaceData] = {}
    for sid, members in labeling.surfaces().items():
        data = _SurfaceData(
            points=[point for point, _ in members],
            values=np.array([float(provider.get(point).eigenvalues[i]) for point, i in members]),
        )
        if cfg.dim == 1:
            _build_1d(data, grid_order)
        else:
            _build_nd(data)
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


def _build_nd(data: _SurfaceData) -> None:
    """Triangulate the surface's samples and index the simplices."""
    from scipy.spatial import Delaunay, QhullError

    coords = np.array([p.phys for p in data.points])
    if len(data.points) < coords.shape[-1] + 1:   # also no points at all
        data.point_only = True
        return
    try:
        data.triangulation = Delaunay(coords)
    except (QhullError, ValueError):  # collinear or otherwise degenerate samples
        data.point_only = True
        return
    _build_index(data)


def _build_index(data: _SurfaceData) -> None:
    """Per simplex its cell, and the surface's bucket index; see the module docstring.

    A bucket lists the simplices whose bounding box, widened by ``2 delta``,
    meets it, except those more than ``2 delta`` outside one facet over the
    whole bucket; a simplex more than ``2 delta`` inside over the whole bucket
    is all the bucket lists.  Otherwise the simplex deepest inside at the
    bucket's centre comes first.  A query outside the bounding box takes the
    nearest bucket.  Either it lies within delta of that bucket, so that what
    holds for the bucket with ``2 delta`` holds for the query with delta, or it
    lies more than delta outside the box, and so outside every simplex.

    Simplices, and (simplex, bucket) entries, run along the last axis: numpy
    reduces a short leading axis much faster than a short last one.
    """
    tri = data.triangulation
    d, n = tri.ndim, len(tri.simplices)
    lo, hi = tri.min_bound, tri.max_bound
    delta = _SAFETY * (d + 1) * _FIND_SIMPLEX_TOL * np.sqrt(((hi - lo) ** 2).sum())
    g = int(np.ceil((_BUCKETS_PER_SIMPLEX * n) ** (1 / d)))   # buckets per axis
    width = (hi - lo) / g
    normals, base, heights = _facet_planes(tri.transform, lo)
    reach = (np.abs(normals) * width[:, None] / 2).sum(axis=1)   # the most a distance moves in a bucket
    # the buckets each simplex's bounding box, widened by 2 delta, meets
    corners = tri.points[tri.simplices].transpose(2, 1, 0) - lo[:, None, None]
    widened = (corners.min(axis=1) - 2 * delta, corners.max(axis=1) + 2 * delta)
    first, last = (np.minimum((x / width[:, None]).astype(int).clip(0), g - 1) for x in widened)
    # one entry per (simplex, bucket) pair, with the simplex's facet distances
    # at the bucket's centre
    span = last - first + 1
    count = span.prod(axis=0)
    simplex = np.repeat(np.arange(n), count)
    offset = np.arange(len(simplex)) - np.repeat(np.cumsum(count) - count, count)
    key = np.zeros(len(simplex), dtype=int)
    dist = base[:, simplex]
    for j in reversed(range(d)):   # offset counts through the simplex's buckets
        offset, index = np.divmod(offset, span[j, simplex])
        index += first[j, simplex]
        key += index * g ** (d - 1 - j)
        dist += normals[:, j, simplex] * ((index + 0.5) * width[j])
    reach = reach[:, simplex]
    outside = (dist + reach < -2 * delta).any(axis=0)
    inside = (dist - reach > 2 * delta).all(axis=0)
    key, simplex, depth, inside = (x[~outside] for x in (key, simplex, dist.min(axis=0), inside))
    held = np.zeros(g**d, dtype=bool)
    held[key[inside]] = True
    keep = inside | ~held[key]
    key, simplex, depth = key[keep], simplex[keep], depth[keep]
    rank = np.empty(len(depth), dtype=int)
    rank[np.argsort(-depth)] = np.arange(len(depth))   # NaN sorts last
    order = np.argsort(key * len(depth) + rank)

    values = data.values.tolist()
    data.cells = [
        (rows[:d], rows[d], [values[m] for m in vertices], limits)
        for rows, vertices, limits in zip(
            tri.transform.tolist(), tri.simplices.tolist(), (delta / heights).T.tolist()
        )   # limits: c_i at distance delta from facet i
    ]
    data.lo, data.scale, data.per_axis = tuple(lo.tolist()), tuple((1 / width).tolist()), g
    data.entries = tuple(data.cells[m] for m in simplex[order].tolist())
    data.bounds = np.searchsorted(key[order], np.arange(g**d + 1)).tolist()


def _facet_planes(transform: np.ndarray, lo: np.ndarray):
    """Each simplex's signed facet distances as affine maps ``normal . (x - lo) + base``.

    ``transform`` is ``Delaunay.transform``, shape (n, d+1, d), and ``lo`` a
    point, shape (d,).  The distance to facet i is ``c_i`` times the facet's
    height ``1 / |grad c_i|``, with ``grad c_d = -(grad c_0 + ... +
    grad c_{d-1})``; it is NaN for a simplex whose affine map is not finite.
    Returns normals (d+1, d, n), bases (d+1, n) and heights (d+1, n).
    """
    d = transform.shape[2]
    transform = transform.transpose(1, 2, 0).copy()
    transform[:, :, ~np.isfinite(transform).all(axis=(0, 1))] = np.nan
    gradients = np.concatenate([transform[:d], -transform[:d].sum(axis=0, keepdims=True)])
    heights = 1.0 / np.sqrt((gradients * gradients).sum(axis=1))
    normals = gradients * heights[:, None]
    base = (normals * (lo[:, None] - transform[d])).sum(axis=1)
    base[d] += heights[d]
    return normals, base, heights


def _barycentric(cell, mu: tuple[float, ...]) -> float:
    """Linear interpolant on one simplex, in the operation order of scipy's kernel.

    The barycentric coordinates are ``c_i = sum_j T_ij (x_j - r_j)`` and
    ``c_d = 1 - c_0 - ... - c_{d-1}``; the value is ``sum_i c_i v_i``, each
    sum accumulated from zero in index order.
    """
    rows, origin, vals, _ = cell
    dx = [x - r for x, r in zip(mu, origin)]
    last, out = 1.0, 0.0
    for row, v in zip(rows, vals):
        c = 0.0
        for t, dxj in zip(row, dx):
            c += t * dxj
        last -= c
        out += c * v
    return out + last * vals[-1]


def _inside(cell, mu: tuple[float, ...]) -> float | None:
    """``_barycentric(cell, mu)`` if mu lies more than delta inside every facet
    of the simplex, None if it lies more than delta outside one, else NaN.

    The coordinates and the value are computed as in ``_barycentric``.  Facet
    i is delta away where ``c_i`` equals the cell's limit i, which is NaN (so
    the answer is NaN) for a simplex whose affine map is not finite.
    """
    rows, origin, vals, limits = cell
    last, out, near = 1.0, 0.0, False
    for row, v, limit in zip(rows, vals, limits):
        c = 0.0
        for t, x, r in zip(row, mu, origin):
            c += t * (x - r)
        if c < -limit:
            return None
        if not c > limit:
            near = True
        last -= c
        out += c * v
    limit = limits[-1]
    if last < -limit:
        return None
    return math.nan if near or not last > limit else out + last * vals[-1]


def eval_surrogate(s: Surrogate, surface_id: int, mu) -> float | None:
    """Interpolated eigenvalue of one surface at a physical point.

    Returns None where the surface has no coverage.  Queries outside the
    parameter box raise ValueError; unknown surface identifiers raise
    KeyError.  Exact sample points reproduce their stored value bit for bit.
    """
    if surface_id not in s.surfaces:
        raise KeyError(f"unknown surface id {surface_id}")
    mu = tuple(float(x) for x in mu)
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
    g, key = data.per_axis, 0
    for x, lo, scale in zip(mu, data.lo, data.scale):
        i = int((x - lo) * scale)
        key = key * g + (i if 0 <= i < g else 0 if i < 0 else g - 1)
    near = False
    for cell in data.entries[data.bounds[key] : data.bounds[key + 1]]:
        value = _inside(cell, mu)
        if value is None:
            continue
        if value == value:
            return value
        near = True
    if not near:
        return None
    simplex = int(data.triangulation.find_simplex(mu))   # within delta of a facet
    return None if simplex < 0 else _barycentric(data.cells[simplex], mu)
