"""Structured P1 triangular mesh of the unit square and assembly of the
parametric stiffness and mass matrices.

Every cell of the n x n nodal grid is split along the same diagonal into two
triangles.  Homogeneous Dirichlet conditions are imposed by eliminating the
boundary rows and columns, which keeps both matrices symmetric positive
definite.  The coefficient matrix is spatially constant, so the stiffness
matrix is affine in the coefficient's three independent entries and is
combined from three fixed parts.  On this mesh every interior node couples to
the same 7 neighbours with the same weights, so the parts and the mass matrix
are written directly as 7-point stencils on one CSR pattern: K11 and K22
are the second differences along x and y, K12 + K21 is the one along the
cells' diagonal minus both, and the mass matrix holds the exact P1 element
integrals.  Where h = 1/(n-1) is a power of two, element-by-element assembly
gives the same bits; elsewhere it rounds each triangle's integrals, and its
entries stray from the stencil's by a few ulps.  scipy.sparse is imported
by the functions that assemble, not by the module.

A ``Mesh`` is the grid's size alone, as the stencils need no node array.
``operators(mesh_n)`` caches, per process and per ``mesh_n``, the mesh and
the stencils and mass matrix built on it, each built on first use and
read-only.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class Mesh:
    """The structured grid's size: nodes per side and interior dofs."""

    n: int
    n_interior: int


def build_mesh(mesh_n: int) -> Mesh:
    """The triangulation of [0, 1]^2 with mesh_n nodes per side, which must
    be an integer of at least 3 (one interior node)."""
    if mesh_n < 3:
        raise ValueError("mesh_n must be at least 3 (one interior node)")
    n = operator.index(mesh_n)   # TypeError for a float, as the comparison gives for a string
    return Mesh(n=n, n_interior=(n - 2) ** 2)


# the 7-point stencil of an interior node (i, j): its steps (di, dj) in
# ascending column order, and the second differences along the mesh's three
# edge directions (x, y and the cells' diagonal) at those steps
_STEPS = np.array([(-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1)])
_E_X = np.array([0.0, -1.0, 0.0, 2.0, 0.0, -1.0, 0.0])
_E_Y = np.array([0.0, 0.0, -1.0, 2.0, -1.0, 0.0, 0.0])
_E_D = np.array([-1.0, 0.0, 0.0, 2.0, 0.0, 0.0, -1.0])


def _stencils(mesh: Mesh):
    """CSR pattern of the 7-point stencil on ``mesh``'s interior dofs, and
    the data of K11, K12 + K21, K22 and the mass matrix on it.

    K_de is the stiffness form of the coefficient with a single 1 at (d, e).
    A row stores every step whose node is interior, explicit zeros included,
    as element assembly does.  Every array is returned read-only: they are
    cached, and every assembled matrix shares the pattern.
    """
    m = mesh.n - 2
    i, j = np.divmod(np.arange(m * m), m)        # dof i * m + j is node (i + 1, j + 1)
    ni, nj = i[:, None] + _STEPS[:, 0], j[:, None] + _STEPS[:, 1]
    keep = (ni >= 0) & (ni < m) & (nj >= 0) & (nj < m)
    indptr = np.zeros(m * m + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    indices = (ni * m + nj)[keep].astype(np.int32)
    # an edge lies in 2 triangles of area h^2 / 2, each adding area / 12 to
    # its entry; a node lies in 6, each adding 2 area / 12 to its centre,
    # summed left to right as element assembly sums them
    h = 1.0 / (mesh.n - 1)
    d = 2 / 12 * (h * h / 2)
    mass = np.full(len(_STEPS), d)
    mass[3] = d + d + d + d + d + d
    data = tuple(
        np.broadcast_to(row, keep.shape)[keep]
        for row in (_E_X, _E_D - _E_X - _E_Y, _E_Y, mass)
    )
    for arr in (indptr, indices, *data):
        arr.flags.writeable = False
    return indptr, indices, data


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
    indptr, indices, (k11, k12, k22, _) = operators(mesh.n).stencils
    data = cmat[0, 0] * k11 + cmat[0, 1] * k12 + cmat[1, 1] * k22
    return sp.csr_matrix((data, indices, indptr), shape=(mesh.n_interior,) * 2)


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """The L2 mass matrix (exact P1 element integrals) on the read-only
    arrays ``operators(mesh.n)`` caches; ``mesh`` must come from
    ``build_mesh``."""
    import scipy.sparse as sp

    indptr, indices, (*_, mass) = operators(mesh.n).stencils
    return sp.csr_matrix((mass, indices, indptr), shape=(mesh.n_interior,) * 2)


class Operators:
    """The mesh of one ``mesh_n``, the stencils built on it and the mass
    matrix, each built on first use."""

    def __init__(self, mesh_n: int):
        self.mesh_n = mesh_n

    @functools.cached_property
    def mesh(self) -> Mesh:
        return build_mesh(self.mesh_n)

    @functools.cached_property
    def stencils(self):
        """``_stencils(self.mesh)``: the pattern, the stiffness parts and the mass data."""
        return _stencils(self.mesh)

    @functools.cached_property
    def mass(self) -> sp.csr_matrix:
        return assemble_mass(self.mesh)


@functools.lru_cache(maxsize=4)
def operators(mesh_n: int) -> Operators:
    """This process's shared operators of the ``build_mesh(mesh_n)`` grid."""
    return Operators(mesh_n)
