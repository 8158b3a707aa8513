"""Structured P1 triangular mesh of the unit square and assembly of the
parametric stiffness and mass matrices.

Every cell of the n x n nodal grid is split along the same diagonal into two
triangles.  Homogeneous Dirichlet conditions are imposed by eliminating the
boundary rows and columns, which keeps both matrices symmetric positive
definite.  The coefficient matrix is spatially constant, so all element
integrals are exact.  The stiffness matrix is therefore affine in the
coefficient's three independent entries and is assembled as a combination of
three fixed matrices that share one sparsity pattern.  scipy.sparse is
imported by the functions that assemble, not by the module.

``operators(mesh_n)`` caches, per process and per ``mesh_n``, one mesh and
the mass matrix and stiffness parts assembled on it, each built on first use
and read-only.  A process forked after they are built inherits them, so a
pool worker forked then assembles only each point's stiffness matrix.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class Mesh:
    """Nodes, connectivity and the interior-dof map of the structured grid."""

    n: int                    # nodes per side
    coords: np.ndarray        # (n*n, 2) node coordinates
    triangles: np.ndarray     # (2*(n-1)**2, 3) vertex indices, positively oriented
    interior: np.ndarray      # (n*n,) global node -> interior dof index, or -1
    n_interior: int


def build_mesh(mesh_n: int) -> Mesh:
    """Structured triangulation of [0, 1]^2 with mesh_n nodes per side; its
    arrays are read-only, as the mesh may be shared."""
    if mesh_n < 3:
        raise ValueError("mesh_n must be at least 3 (one interior node)")
    n = mesh_n
    xs = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    coords = np.column_stack([xx.ravel(), yy.ravel()])
    # node (i, j) is i * n + j; cell (i, j) gives (v00, v10, v11), (v00, v11, v01)
    node = np.arange(n * n, dtype=np.int64).reshape(n, n)
    v00, v10, v01, v11 = (
        c.ravel() for c in (node[:-1, :-1], node[1:, :-1], node[:-1, 1:], node[1:, 1:])
    )
    triangles = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
    interior = np.full((n, n), -1, dtype=np.int64)
    interior[1:-1, 1:-1] = np.arange((n - 2) ** 2).reshape(n - 2, n - 2)
    interior = interior.reshape(-1)
    for arr in (coords, triangles, interior):
        arr.flags.writeable = False
    return Mesh(
        n=n, coords=coords, triangles=triangles, interior=interior, n_interior=(n - 2) ** 2
    )


def _element_geometry(mesh: Mesh):
    """Per-triangle areas and P1 basis gradients (T, 3, 2)."""
    pts = mesh.coords[mesh.triangles]            # (T, 3, 2)
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(area2 <= 0):
        raise ValueError("mesh contains non-positively oriented triangles")
    # grad of barycentric i is the inward normal of the opposite edge / 2|T|
    grads = np.empty((len(pts), 3, 2))
    for i in range(3):
        a, b = pts[:, (i + 1) % 3], pts[:, (i + 2) % 3]
        grads[:, i, 0] = a[:, 1] - b[:, 1]
        grads[:, i, 1] = b[:, 0] - a[:, 0]
    grads /= area2[:, None, None]
    return area2 / 2.0, grads


def _scatter(mesh: Mesh, local: np.ndarray) -> sp.csr_matrix:
    import scipy.sparse as sp

    dof = mesh.interior[mesh.triangles]          # (T, 3), -1 on boundary
    rows = np.repeat(dof, 3, axis=1).ravel()
    cols = np.tile(dof, (1, 3)).ravel()
    vals = local.reshape(len(dof), 9).ravel()
    keep = (rows >= 0) & (cols >= 0)
    size = mesh.n_interior
    mat = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(size, size))
    return mat.tocsr()


def _stiffness_parts(mesh: Mesh):
    """CSR pattern and data of K11, K12 + K21 and K22 on ``mesh``.

    K_de is the stiffness form of the coefficient with a single 1 at (d, e).
    The three matrices share ``indptr`` and ``indices``.  Every array is
    returned read-only: the parts are cached, and every assembled stiffness
    matrix shares the pattern.
    """
    area, grads = _element_geometry(mesh)
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    a = area[:, None, None]
    # each local matrix is exactly symmetric, bit for bit: the products and
    # the sum in the mixed term commute, and area multiplies last
    local = (
        gx[:, :, None] * gx[:, None, :] * a,
        (gx[:, :, None] * gy[:, None, :] + gy[:, :, None] * gx[:, None, :]) * a,
        gy[:, :, None] * gy[:, None, :] * a,
    )
    mats = [_scatter(mesh, m) for m in local]
    indptr, indices = mats[0].indptr, mats[0].indices
    if not all(
        np.array_equal(m.indptr, indptr) and np.array_equal(m.indices, indices) for m in mats
    ):
        raise RuntimeError("stiffness parts do not share one sparsity pattern")
    parts = tuple(m.data for m in mats)
    for arr in (indptr, indices, *parts):
        arr.flags.writeable = False
    return indptr, indices, parts


def assemble_stiffness(mesh: Mesh, cmat: np.ndarray) -> sp.csr_matrix:
    """Assemble the diffusion form with a constant 2x2 SPD coefficient.

    ``mesh`` must come from ``build_mesh``: the form is combined from the
    parts ``operators(mesh.n)`` caches, and every result shares their
    read-only sparsity pattern.
    """
    import scipy.sparse as sp

    cmat = np.asarray(cmat, dtype=float)
    if cmat.shape != (2, 2) or not np.array_equal(cmat, cmat.T):
        raise ValueError("coefficient must be a symmetric 2x2 matrix")
    if not (np.trace(cmat) > 0 and np.linalg.det(cmat) > 0):
        raise ValueError("coefficient matrix is not SPD")
    indptr, indices, (k11, k12, k22) = operators(mesh.n).stiffness_parts
    data = cmat[0, 0] * k11 + cmat[0, 1] * k12 + cmat[1, 1] * k22
    size = len(indptr) - 1
    return sp.csr_matrix((data, indices, indptr), shape=(size, size))


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Assemble the L2 mass matrix (exact P1 element integrals)."""
    area, _ = _element_geometry(mesh)
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = base[None, :, :] * area[:, None, None]
    return _scatter(mesh, local)


class Operators:
    """The mesh of one ``mesh_n``, and the mass matrix and stiffness parts
    assembled on it, each built on first use."""

    def __init__(self, mesh_n: int):
        self.mesh_n = mesh_n

    @functools.cached_property
    def mesh(self) -> Mesh:
        return build_mesh(self.mesh_n)

    @functools.cached_property
    def mass(self) -> sp.csr_matrix:
        mass = assemble_mass(self.mesh)
        for arr in (mass.data, mass.indices, mass.indptr):
            arr.flags.writeable = False
        return mass

    @functools.cached_property
    def stiffness_parts(self):
        return _stiffness_parts(self.mesh)


@functools.lru_cache(maxsize=4)
def operators(mesh_n: int) -> Operators:
    """This process's shared operators of the ``build_mesh(mesh_n)`` grid."""
    return Operators(mesh_n)
