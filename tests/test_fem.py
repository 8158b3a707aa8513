import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from eigentrack import eigensolver, fem
from eigentrack.fem import assemble_mass, assemble_stiffness, build_mesh


def loop_mesh(n):
    """The structured mesh built node by node and cell by cell, as an oracle:
    node coordinates, positively oriented triangles, the map of a node to its
    interior dof or -1, and the number of interior dofs."""
    xs = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    coords = np.column_stack([xx.ravel(), yy.ravel()])
    tris = []
    for i in range(n - 1):
        for j in range(n - 1):
            v00, v10, v01, v11 = i * n + j, (i + 1) * n + j, i * n + j + 1, (i + 1) * n + j + 1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    interior = np.full(n * n, -1, dtype=np.int64)
    count = 0
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            interior[i * n + j] = count
            count += 1
    return coords, np.array(tris, dtype=np.int64), interior, count


def element_scatter(n, local):
    """Sum per-triangle local matrices (T, 3, 3) of ``loop_mesh(n)`` into COO
    on the interior dofs."""
    _, triangles, interior, size = loop_mesh(n)
    dof = interior[triangles]
    rows, cols = np.repeat(dof, 3, axis=1).ravel(), np.tile(dof, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix(
        (local.ravel()[keep], (rows[keep], cols[keep])), shape=(size, size)
    ).tocsr()


def element_areas(n):
    coords, triangles, _, _ = loop_mesh(n)
    p = coords[triangles]                                 # (T, 3, 2)
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return p, e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]


def einsum_stiffness(n, cmat):
    """Per-element reference: local (grad phi_i)^T C (grad phi_j) |T|, summed into COO."""
    p, area2 = element_areas(n)
    nxt, prv = p[:, [1, 2, 0]], p[:, [2, 0, 1]]
    grads = np.stack([nxt[..., 1] - prv[..., 1], prv[..., 0] - nxt[..., 0]], axis=-1)
    grads /= area2[:, None, None]
    local = np.einsum("tid,de,tje->tij", grads, cmat, grads) * (area2 / 2)[:, None, None]
    return element_scatter(n, local)


def einsum_mass(n):
    """Per-element reference: local |T| / 12 (1 + delta_ij), summed into COO."""
    _, area2 = element_areas(n)
    return element_scatter(n, (area2 / 2 / 12)[:, None, None] * (1 + np.eye(3)))


class TestBuildMesh:
    @pytest.mark.parametrize("n", [3, 5, 65])
    def test_matches_loop_construction(self, n):
        # the mesh is its size: the nodes per side and the interior dofs
        # the loop construction numbers
        *_, count = loop_mesh(n)
        assert build_mesh(n) == fem.Mesh(n=n, n_interior=count)

    def test_smallest_grid(self):
        # one interior dof, whose stencil keeps only its centre
        assert build_mesh(3).n_interior == 1
        indptr, indices, _ = fem.operators(3).stencils
        assert (indptr.tolist(), indices.tolist()) == ([0, 1], [0])

    @pytest.mark.parametrize("n,expected", [(4, 4), (5, 9), (65, 3969)])
    def test_interior_count(self, n, expected):
        assert build_mesh(n).n_interior == expected

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            build_mesh(2)

    @pytest.mark.parametrize(
        "size,error",
        [(65.0, TypeError), ("9", TypeError), (2, ValueError), (True, ValueError),
         (np.int64(9), None)],
    )
    def test_size_must_be_an_integer_of_at_least_three(self, size, error):
        # the exceptions numpy's linspace raised when it built the node array
        if error is None:
            assert build_mesh(size) == fem.Mesh(n=9, n_interior=49)
        else:
            with pytest.raises(error):
                build_mesh(size)


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

    # h is a power of two on 9 and 33 only: on 6 and 21 element assembly
    # rounds each triangle's integrals, and the stencils do not
    @pytest.mark.parametrize("n", [6, 9, 21, 33])
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
            ref = einsum_stiffness(n, cmat)
            assert np.array_equal(A.indptr, ref.indptr)
            assert np.array_equal(A.indices, ref.indices)
            assert abs(A - ref).max() <= 1e-13 * abs(ref).max()
            assert np.shares_memory(A.indptr, first.indptr)
            assert np.shares_memory(A.indices, first.indices)
        assert not first.indices.flags.writeable
        B, ref = assemble_mass(mesh), einsum_mass(n)
        assert np.array_equal(B.indptr, ref.indptr)
        assert np.array_equal(B.indices, ref.indices)
        assert abs(B - ref).max() <= 1e-13 * abs(ref).max()
        assert np.shares_memory(B.indices, first.indices)

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
        coords, triangles, interior, _ = loop_mesh(5)
        nodal = np.where(interior >= 0, coords[:, 0], 0.0)
        energy = 0.0
        for tri in triangles:
            p = coords[tri]
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
        A = assemble_stiffness(build_mesh(5), np.eye(2))
        v = nodal[interior >= 0]
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
        h = 1.0 / (n - 1)
        rows = assemble_mass(build_mesh(n)).sum(axis=1).A1
        ij = np.arange(n * n).reshape(n, n)[2 : n - 2, 2 : n - 2].ravel()
        inner = loop_mesh(n)[2][ij]
        assert len(inner) == (n - 4) ** 2
        assert np.abs(rows[inner] - h * h).max() <= 1e-16

    def test_positive_diagonal(self):
        B = assemble_mass(build_mesh(33))
        assert np.all(B.diagonal() > 0)

    def test_independent_of_coefficient(self):
        mesh = build_mesh(9)
        assert np.array_equal(assemble_mass(mesh).toarray(), assemble_mass(mesh).toarray())


def test_operators_share_one_mesh_per_process(monkeypatch):
    # the cached mesh, mass and every stiffness assembly on one grid, even
    # on a mesh built elsewhere, build the mesh and the stencils once each
    built = []
    for name in ("build_mesh", "_stencils"):
        monkeypatch.setattr(
            fem, name, lambda *a, _f=getattr(fem, name), _n=name: built.append(_n) or _f(*a)
        )
    fem.operators.cache_clear()
    eigensolver._stencil_plan.cache_clear()
    ops = fem.operators(11)
    assert built == []   # each operator is built on first use
    for _ in range(2):
        assemble_stiffness(ops.mesh, np.eye(2))
        assemble_stiffness(build_mesh(11), np.eye(2))
        assert fem.operators(11).mass is ops.mass
    assert fem.operators(11) is ops
    assert sorted(built) == ["_stencils", "build_mesh"]
    for arr in (ops.mass.data, ops.mass.indices, ops.mass.indptr):
        assert not arr.flags.writeable


def assert_same_bits(got, M):
    for a, b in zip(got, (M.indptr, M.indices, M.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


UNIT_COEFFICIENTS = (   # the coefficients of K11, K12 + K21 and K22
    np.array([[1.0, 0.0], [0.0, 0.0]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, 0.0], [0.0, 1.0]]),
)


@pytest.mark.parametrize("n", [3, 5, 9, 17, 33, 65])
def test_stencils_equal_element_assembly_where_h_is_a_power_of_two(n):
    # every element integral is exact there, so the stencils and the
    # element oracles agree bit for bit, explicit zeros and dtypes included
    mesh = build_mesh(n)
    indptr, indices, (*parts, _) = fem.operators(n).stencils
    for got, cmat in zip(parts, UNIT_COEFFICIENTS):
        assert_same_bits((indptr, indices, got), einsum_stiffness(n, cmat))
    B = assemble_mass(mesh)
    assert_same_bits((B.indptr, B.indices, B.data), einsum_mass(n))


def reflected(M):
    """CSR arrays of R M R, where R reverses the dof order."""
    counts = np.diff(M.indptr)[::-1]
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(M.indptr.dtype)
    return indptr, (M.shape[0] - 1 - M.indices)[::-1], M.data[::-1]


def transposed(M, m):
    """CSR arrays of T M T, where T swaps interior node (i, j) with (j, i)."""
    swap = np.arange(m * m).reshape(m, m).T.ravel()
    coo = M.tocoo()
    out = sp.csr_matrix((coo.data, (swap[coo.row], swap[coo.col])), shape=M.shape)
    out.sort_indices()
    return out.indptr, out.indices, out.data


@pytest.mark.parametrize("n", [5, 6, 7, 21, 65])
def test_mesh_symmetries_hold_bit_for_bit(n):
    # the point reflection (x, y) -> (1 - x, 1 - y) maps the mesh onto itself
    # and reverses the dof order; the transpose (x, y) -> (y, x) swaps the
    # x and y edges and keeps the diagonal ones
    mesh = build_mesh(n)
    A = assemble_stiffness(mesh, np.array([[1.3, 0.4], [0.4, 0.9]]))
    B = assemble_mass(mesh)
    for M in (A, B):
        assert_same_bits(reflected(M), M)
    indptr, indices, data = fem.operators(n).stencils
    k11, k12, k22, mass = (sp.csr_matrix((d, indices, indptr), shape=B.shape) for d in data)
    for before, after in ((k11, k22), (k22, k11), (k12, k12), (mass, mass)):
        assert_same_bits(transposed(before, n - 2), after)


@pytest.mark.parametrize("n", [5, 9, 17, 33])
def test_mass_eigenvalues_bounded_below(n):
    # an element mass matrix's smallest eigenvalue is |T| / 12 = h^2 / 24,
    # and every interior node lies in 6 triangles: lambda_min(B) >= h^2 / 4
    h = 1.0 / (n - 1)
    smallest = np.linalg.eigvalsh(assemble_mass(build_mesh(n)).toarray())[0]
    assert smallest >= h * h / 4
