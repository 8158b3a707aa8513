import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from eigentrack.fem import assemble_mass, assemble_stiffness, build_mesh


def einsum_stiffness(mesh, cmat):
    """Per-element reference: local (grad phi_i)^T C (grad phi_j) |T|, summed into COO."""
    p = mesh.coords[mesh.triangles]                       # (T, 3, 2)
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    nxt, prv = p[:, [1, 2, 0]], p[:, [2, 0, 1]]
    grads = np.stack([nxt[..., 1] - prv[..., 1], prv[..., 0] - nxt[..., 0]], axis=-1)
    grads /= area2[:, None, None]
    local = np.einsum("tid,de,tje->tij", grads, cmat, grads) * (area2 / 2)[:, None, None]
    dof = mesh.interior[mesh.triangles]
    size = mesh.n_interior
    rows, cols = np.repeat(dof, 3, axis=1).ravel(), np.tile(dof, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix(
        (local.ravel()[keep], (rows[keep], cols[keep])), shape=(size, size)
    ).tocsr()


class TestBuildMesh:
    def test_smallest_grid(self):
        mesh = build_mesh(3)
        assert mesh.n_interior == 1
        inner = np.flatnonzero(mesh.interior >= 0)
        assert mesh.coords[inner[0]] == pytest.approx([0.5, 0.5])

    @pytest.mark.parametrize("n,expected", [(4, 4), (5, 9), (65, 3969)])
    def test_interior_count(self, n, expected):
        assert build_mesh(n).n_interior == expected

    def test_triangle_count(self):
        mesh = build_mesh(7)
        assert len(mesh.triangles) == 2 * 6 * 6

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            build_mesh(2)

    def test_positive_areas(self):
        mesh = build_mesh(6)
        pts = mesh.coords[mesh.triangles]
        e1 = pts[:, 1] - pts[:, 0]
        e2 = pts[:, 2] - pts[:, 0]
        areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        assert np.all(areas > 0)


class TestStiffness:
    def test_single_interior_node(self):
        # hand assembly over the 6 incident triangles gives exactly 4.0
        A = assemble_stiffness(build_mesh(3), np.eye(2))
        assert A.toarray() == pytest.approx(np.array([[4.0]]), abs=1e-14)

    def test_bilinear_in_coefficient(self):
        mesh = build_mesh(9)
        A1 = assemble_stiffness(mesh, np.eye(2))
        A2 = assemble_stiffness(mesh, 2 * np.eye(2))
        assert np.allclose(A2.toarray(), 2 * A1.toarray(), rtol=0, atol=1e-14)

    def test_symmetric_with_off_diagonal(self):
        mesh = build_mesh(9)
        A = assemble_stiffness(mesh, np.array([[1.0, 0.8], [0.8, 1.0]]))
        diff = (A - A.T).toarray()
        assert np.max(np.abs(diff)) == 0.0
        Aref = assemble_stiffness(mesh, np.eye(2))
        assert np.array_equal(A.indices, Aref.indices)
        assert np.array_equal(A.indptr, Aref.indptr)

    @pytest.mark.parametrize("n", [9, 33])
    def test_affine_assembly_matches_einsum_reference(self, n):
        mesh = build_mesh(n)
        rng = np.random.default_rng(n)
        mats = [np.array([[mu**-2, 1.0], [1.0, 0.7**-2]]) for mu in rng.uniform(0.4, 1.0, 3)]
        mats += [
            np.array([[m1**-2, 0.8 / m2], [0.8 / m2, m2**-2]])
            for m1, m2 in rng.uniform(0.8, 1.05, (3, 2))
        ]
        for _ in range(4):
            r = rng.standard_normal((2, 2))
            mats.append(r @ r.T + 0.1 * np.eye(2))
        results = [assemble_stiffness(mesh, cmat) for cmat in mats]
        first = results[0]
        for cmat, A in zip(mats, results):
            ref = einsum_stiffness(mesh, cmat)
            assert np.array_equal(A.indptr, ref.indptr)
            assert np.array_equal(A.indices, ref.indices)
            assert abs(A - ref).max() <= 1e-13 * abs(ref).max()
            assert np.shares_memory(A.indptr, first.indptr)
            assert np.shares_memory(A.indices, first.indices)
        assert not first.indices.flags.writeable

    def test_rejects_non_spd(self):
        mesh = build_mesh(4)
        with pytest.raises(ValueError):
            assemble_stiffness(mesh, np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            assemble_stiffness(mesh, np.array([[1.0, 0.5], [0.4, 1.0]]))

    @pytest.mark.parametrize("n", [5, 9, 17])
    def test_spd_for_sampled_families(self, n):
        mesh = build_mesh(n)
        rng = np.random.default_rng(2)
        mats = [np.array([[mu**-2, 1.0], [1.0, 0.7**-2]]) for mu in rng.uniform(0.4, 1.0, 3)]
        mats += [
            np.array([[m1**-2, 0.8 / m2], [0.8 / m2, m2**-2]])
            for m1, m2 in rng.uniform(0.8, 1.05, (3, 2))
        ]
        B = assemble_mass(mesh)
        for cmat in mats:
            A = assemble_stiffness(mesh, cmat)
            for M in (A, B):
                smallest = np.linalg.eigvalsh(M.toarray())[0]
                assert smallest > 0

    def test_galerkin_energy_of_linear_interpolant(self):
        # nodal values x on interior nodes, 0 on the boundary; energy by
        # direct per-triangle quadrature, independent of the assembly code
        mesh = build_mesh(5)
        nodal = np.where(mesh.interior >= 0, mesh.coords[:, 0], 0.0)
        energy = 0.0
        for tri in mesh.triangles:
            p = mesh.coords[tri]
            e1, e2 = p[1] - p[0], p[2] - p[0]
            area2 = e1[0] * e2[1] - e1[1] * e2[0]
            grads = np.array(
                [
                    [p[1][1] - p[2][1], p[2][0] - p[1][0]],
                    [p[2][1] - p[0][1], p[0][0] - p[2][0]],
                    [p[0][1] - p[1][1], p[1][0] - p[0][0]],
                ]
            ) / area2
            g = nodal[tri] @ grads
            energy += 0.5 * area2 * float(g @ g)
        A = assemble_stiffness(mesh, np.eye(2))
        v = nodal[mesh.interior >= 0]
        assert v @ (A @ v) == pytest.approx(energy, rel=1e-12)


class TestMass:
    def test_single_interior_node(self):
        # h = 1/2: diagonal entry h^2/2 over the 6 incident triangles
        B = assemble_mass(build_mesh(3))
        assert B.toarray() == pytest.approx(np.array([[0.125]]), abs=1e-15)

    @pytest.mark.parametrize("n", [5, 7, 33])
    def test_rows_away_from_boundary_sum_to_cell_area(self, n):
        # the hat function of a node whose neighbours are all interior has
        # integral h^2 (a third of its six-triangle support), and its mass
        # row keeps every entry
        mesh = build_mesh(n)
        h = 1.0 / (n - 1)
        rows = assemble_mass(mesh).sum(axis=1).A1
        ij = np.arange(n * n).reshape(n, n)[2 : n - 2, 2 : n - 2].ravel()
        inner = mesh.interior[ij]
        assert len(inner) == (n - 4) ** 2
        assert np.abs(rows[inner] - h * h).max() <= 1e-16

    def test_positive_diagonal(self):
        B = assemble_mass(build_mesh(33))
        assert np.all(B.diagonal() > 0)

    def test_independent_of_coefficient(self):
        mesh = build_mesh(9)
        assert np.array_equal(assemble_mass(mesh).toarray(), assemble_mass(mesh).toarray())
