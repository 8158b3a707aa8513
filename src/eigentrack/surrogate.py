"""Piecewise-linear surrogate of the parameter-to-eigenvalue map.

Each labeled surface is interpolated over the grid points where it is
present: sorted breakpoints with linear interpolation in one parameter
dimension, a Qhull Delaunay triangulation with linear interpolation per
simplex in higher dimensions.  Queries where a surface has no coverage (it
exited the window, or sits between presence gaps) evaluate to None.

A query first looks its point up among the surface's samples, so an exact
sample returns its stored value bit for bit in O(1).  In one dimension the
enclosing segment is found by bisection on the segment starts.  In higher
dimensions ``Delaunay.find_simplex`` locates the simplex, and the value is
the barycentric combination of its vertex values, evaluated with the affine
maps of ``Delaunay.transform`` in the order of scipy's compiled
``LinearNDInterpolator`` kernel, so that both agree bit for bit.  (Both use
the same directed walk and tolerance.  Only their brute-force fallbacks after
a failed walk differ: ``find_simplex`` accepts a point up to about 1e-7 in
barycentric coordinates outside the hull, the interpolator up to 1e-8.)
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from eigentrack.eigensolver import SnapshotProvider
from eigentrack.grid import ParamPoint
from eigentrack.propagation import SurfaceLabeling


@dataclass
class _SurfaceData:
    points: list[ParamPoint]
    values: np.ndarray                 # one eigenvalue per sample point
    segments: list[tuple[float, float, float, float]] = field(default_factory=list)
    triangulation: object | None = None   # scipy.spatial.Delaunay (d >= 2)
    point_only: bool = False
    # derived: physical sample point -> value, the 1D segment starts, and per
    # simplex its affine map rows, its origin and its vertex values
    exact: dict[tuple[float, ...], float] = field(init=False, repr=False)
    starts: list[float] = field(init=False, repr=False, default_factory=list)
    cells: list = field(init=False, repr=False, default_factory=list)

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
    for sid in labeling.surface_ids():
        pts, vals = [], []
        for point in grid_order:
            ids = labeling.labels[point]
            if sid in ids:
                pts.append(point)
                vals.append(float(provider.get(point).eigenvalues[ids.index(sid)]))
        data = _SurfaceData(points=pts, values=np.asarray(vals))
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
    from scipy.spatial import Delaunay, QhullError

    if not data.points:
        data.point_only = True
        return
    coords = np.array([p.phys for p in data.points])
    if len(data.points) < coords.shape[1] + 1:
        data.point_only = True
        return
    try:
        tri = Delaunay(coords)
    except (QhullError, ValueError):  # collinear or otherwise degenerate samples
        data.point_only = True
        return
    data.triangulation = tri
    values = data.values.tolist()
    d = coords.shape[1]
    data.cells = [
        (rows[:d], rows[d], [values[m] for m in simplex])
        for rows, simplex in zip(tri.transform.tolist(), tri.simplices.tolist())
    ]


def _barycentric(cell, mu: tuple[float, ...]) -> float:
    """Linear interpolant on one simplex, in the operation order of scipy's kernel.

    The barycentric coordinates are ``c_i = sum_j T_ij (x_j - r_j)`` and
    ``c_d = 1 - c_0 - ... - c_{d-1}``; the value is ``sum_i c_i v_i``, each
    sum accumulated from zero in index order.
    """
    rows, origin, vals = cell
    dx = [x - r for x, r in zip(mu, origin)]
    last, out = 1.0, 0.0
    for row, v in zip(rows, vals):
        c = 0.0
        for t, dxj in zip(row, dx):
            c += t * dxj
        last -= c
        out += c * v
    return out + last * vals[-1]


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
    simplex = int(data.triangulation.find_simplex(mu))
    return None if simplex < 0 else _barycentric(data.cells[simplex], mu)
