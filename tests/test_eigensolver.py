import contextlib
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from eigentrack import eigensolver, fem
from eigentrack.config import eval_coefficient, parse_config
from eigentrack.eigensolver import (
    SnapshotProvider,
    SolverError,
    _band_cholesky,
    _check_pairs,
    _dense_window,
    _openblas_thread_controls,
    _solver_pool,
    b_normalize,
    solve_window,
)
from eigentrack.fem import assemble_mass, assemble_stiffness, build_mesh
from eigentrack.grid import point_of_phys
from eigentrack.propagation import reference_solution, uniform_lattice
from eigentrack.refinement import CONVERGED, run_adaptive
from tests.conftest import bundled_config_text

PI2 = np.pi**2


@pytest.fixture(scope="module")
def mesh65():
    return build_mesh(65)


@pytest.fixture(scope="module")
def mass65(mesh65):
    return assemble_mass(mesh65)


def blas_thread_counts():
    return [get_threads() for get_threads, _ in _openblas_thread_controls()]


def laplacian_window(mesh, B, window):
    A = assemble_stiffness(mesh, np.eye(2))
    return solve_window(A, B, window)


class TestSolveWindow:
    def test_laplacian_spectrum(self, mesh65, mass65):
        w, v = laplacian_window(mesh65, mass65, (0.0, 100.0))
        exact = np.array([2, 5, 5, 8, 10, 10]) * PI2
        assert len(w) == len(exact)
        assert np.all(np.abs(w - exact) / exact < 0.01)
        assert np.all(np.diff(w) >= 0)

    def test_paper_values_at_both_endpoints(self, mesh65, mass65):
        expected = {
            0.4: (80.8, 137.9, 230.6, 265.9),
            0.7: (38.2, 81.1, 109.7, 129.4, 188.6, 189.9, 214.8, 260.9, 261.9),
        }
        for mu, vals in expected.items():
            A = assemble_stiffness(mesh65, np.array([[mu**-2, 1.0], [1.0, 0.7**-2]]))
            w, _ = solve_window(A, mass65, (0.0, 270.0))
            assert len(w) == len(vals)
            assert np.all(np.abs(w - np.array(vals)) / np.array(vals) < 0.015)

    def test_empty_window(self):
        mesh = build_mesh(5)
        A = assemble_stiffness(mesh, np.eye(2))
        B = assemble_mass(mesh)
        w, v = solve_window(A, B, (1e6, 2e6))
        assert len(w) == 0 and v.shape[1] == 0

    def test_window_monotone(self, mesh65, mass65):
        w_small, _ = laplacian_window(mesh65, mass65, (0.0, 100.0))
        w_large, _ = laplacian_window(mesh65, mass65, (0.0, 200.0))
        for lam in w_small:
            assert np.min(np.abs(w_large - lam)) < 1e-9 * max(1.0, lam)

    def test_mesh_convergence_rate(self):
        errs = []
        for n in (33, 65):
            mesh = build_mesh(n)
            w, _ = laplacian_window(mesh, assemble_mass(mesh), (0.0, 30.0))
            errs.append(abs(w[0] - 2 * PI2))
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.0

    def test_b_orthonormal(self, mesh65, mass65):
        w, v = laplacian_window(mesh65, mass65, (0.0, 100.0))
        gram = v.T @ (mass65 @ v)
        for j in range(len(w)):
            assert abs(gram[j, j] - 1.0) < 1e-8
            for l in range(j):
                if abs(w[j] - w[l]) / w[j] > 1e-6:
                    assert abs(gram[j, l]) < 1e-8

    def test_dense_and_sparse_paths_agree(self):
        mesh = build_mesh(17)  # N = 225, above the dense cutoff
        A = assemble_stiffness(mesh, np.eye(2))
        B = assemble_mass(mesh)
        w_sparse, _ = solve_window(A, B, (0.0, 150.0))
        w_dense = scipy.linalg.eigh(
            A.toarray(), B.toarray(), eigvals_only=True
        )[: len(w_sparse)]
        assert np.allclose(w_sparse, w_dense, rtol=1e-7)

    @pytest.mark.parametrize("name", ["paper_1d.cfg", "paper_2d.cfg"])
    def test_residual_margin_at_arpack_tol(self, name):
        """ARPACK stops at _ARPACK_TOL, not at machine precision: on seeded points
        of each bundled family the pairs keep a tenfold margin below the residual
        check, and on a mesh just above the dense cutoff the count is the dense one."""
        cfg = parse_config(bundled_config_text(name))
        rng = np.random.default_rng(20)
        points = rng.uniform(*np.transpose(cfg.box), size=(20, cfg.dim))
        fine, coarse = build_mesh(cfg.mesh_n), build_mesh(17)   # 225 dofs > _DENSE_CUTOFF
        B, B17 = assemble_mass(fine), assemble_mass(coarse)
        for mu in points:
            cmat = eval_coefficient(cfg.coefficient, mu)
            A = assemble_stiffness(fine, cmat)
            w, v = solve_window(A, B, cfg.window)
            assert len(w) > 0
            Av = A @ v
            residual = np.linalg.norm(Av - (B @ v) * w, axis=0) / np.linalg.norm(Av, axis=0)
            assert residual.max() <= eigensolver._RESIDUAL_TOL / 10
            A17 = assemble_stiffness(coarse, cmat)
            count = len(solve_window(A17, B17, cfg.window)[0])
            assert count == len(_dense_window(A17, B17, cfg.window)[0])


@pytest.fixture(scope="module")
def laplacian21():
    mesh = build_mesh(21)  # 361 dofs: above the dense cutoff
    return assemble_stiffness(mesh, np.eye(2)), assemble_mass(mesh)


@pytest.fixture(scope="module")
def doubled21(laplacian21):
    # The diagonal split keeps only the x<->y swap and the point reflection,
    # whose representations are all one-dimensional, so the mesh problem has
    # no exactly double eigenvalue (the continuum's 5 pi^2 pair splits by
    # 0.6 %).  Two uncoupled copies give every eigenvalue multiplicity 2.
    A, B = laplacian21
    return sp.block_diag((A, A), format="csr"), sp.block_diag((B, B), format="csr")


@pytest.fixture(scope="module")
def shuffled21(laplacian21):
    # the same problem with its dofs renumbered: as many dofs as laplacian21,
    # another pattern
    A, B = laplacian21
    q = np.random.default_rng(5).permutation(A.shape[0])
    return A[q][:, q].tocsr(), B[q][:, q].tocsr()


class TestShiftInvertOperator:
    def test_band_cholesky_solve_matches_superlu(self, mesh65):
        A = assemble_stiffness(mesh65, np.array([[2.0, 0.5], [0.5, 1.3]]))
        b = np.random.default_rng(3).standard_normal(A.shape[0])
        U = _band_cholesky(eigensolver._stencil_plan(65), A.data)   # A is on the stencils
        # A^-1 b = U^-1 U^-T b, as the standard-form operator applies the factor
        x = scipy.linalg.lapack.dtbtrs(U, scipy.linalg.lapack.dtbtrs(U, b, trans="T")[0])[0]
        expected = spla.splu(sp.csc_matrix(A)).solve(b)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_band_solve_keeps_each_columns_bits(self, mesh65):
        # solve_window maps back only the Ritz vectors it keeps: dtbtrs solves
        # column by column, so a column's bits do not depend on the others
        A = assemble_stiffness(mesh65, np.array([[2.0, 0.5], [0.5, 1.3]]))
        U = _band_cholesky(eigensolver._stencil_plan(65), A.data)
        Y = np.random.default_rng(4).standard_normal((A.shape[0], 6))
        full = scipy.linalg.lapack.dtbtrs(U, Y)[0]
        part = scipy.linalg.lapack.dtbtrs(U, Y[:, [4, 1]])[0]
        assert part.tobytes() == full[:, [4, 1]].tobytes()

    def test_indefinite_stiffness_raises(self, laplacian21):
        A, B = laplacian21
        # symmetric and nonsingular, with its lowest eigenvalue (19.9) shifted
        # below 0: a shift-invert solve about 0 would find it and the window's
        # pairs, and the bracket check alone would pass
        shifted = (A - 30.0 * B).tocsr()
        assert len(_dense_window(shifted, B, (-np.inf, 0.0))[0]) == 1
        with pytest.raises(SolverError, match="not positive definite"):
            solve_window(shifted, B, (0.0, 90.0))


def eigsh_spy(monkeypatch, change=None):
    """Record the k of every scipy.sparse.linalg.eigsh call; ``change`` may alter the result."""
    calls = []
    eigsh = spla.eigsh

    def spy(A, k, **kwargs):
        calls.append(k)
        if change is None:
            return eigsh(A, k=k, **kwargs)
        return change(eigsh, A, k, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spy)
    return calls


def drop_one_pair(eigsh, A, k, **kwargs):
    w, v = eigsh(A, k=k, **kwargs)
    return w[1:], v[:, 1:]


def skip_last_counted(eigsh, A, k, **kwargs):
    # as if ARPACK had missed the highest eigenvalue below the window top and
    # returned the next one above it instead: k pairs, one short below the top.
    # eigsh returns theta = 1 / lambda, so ascending lambda is descending theta.
    w, v = eigsh(A, k=k + 1, **kwargs)
    order = np.argsort(-w)
    keep = np.delete(order, k - 2)
    return w[keep], v[:, keep]


class TestInertiaCertificate:
    @pytest.mark.parametrize("side", [-1, 1])
    def test_counts_around_double_eigenvalue(self, doubled21, monkeypatch, side):
        A, B = doubled21
        spectrum, _ = _dense_window(A, B, (0.0, 200.0))
        double = spectrum[2]
        assert abs(spectrum[3] - double) < 1e-12 * double
        assert spectrum[1] < 0.9 * double and spectrum[4] > 1.001 * double
        lam_max = double * (1 + side * 1e-6)
        calls = eigsh_spy(monkeypatch)
        w, v = solve_window(A, B, (0.0, lam_max))
        expected, _ = _dense_window(A, B, (0.0, lam_max))
        assert len(w) == len(expected) == (4 if side > 0 else 2)
        assert calls == [len(expected) + 1]
        assert np.allclose(w, expected, rtol=1e-10, atol=0)
        assert v.shape == (A.shape[0], len(w))

    def test_window_above_every_counted_eigenvalue_is_empty(self, laplacian21, monkeypatch):
        # one eigenvalue (19.9) lies below the window and none inside it: the
        # eigensolve runs, and no Ritz vector is mapped back
        A, B = laplacian21
        calls = eigsh_spy(monkeypatch)
        w, v = solve_window(A, B, (25.0, 40.0))
        assert calls == [2] and len(w) == 0 and v.shape == (A.shape[0], 0)

    def test_window_below_spectrum_skips_eigensolve(self, laplacian21, monkeypatch):
        A, B = laplacian21
        calls = eigsh_spy(monkeypatch)
        w, v = solve_window(A, B, (0.0, 15.0))
        assert calls == [] and len(w) == 0 and v.shape == (A.shape[0], 0)

    @pytest.mark.parametrize("change", [drop_one_pair, skip_last_counted])
    def test_pairs_disagreeing_with_count_raise(self, laplacian21, monkeypatch, change):
        A, B = laplacian21
        calls = eigsh_spy(monkeypatch, change)
        with pytest.raises(SolverError, match="inertia counts 4 eigenvalues"):
            solve_window(A, B, (0.0, 90.0))
        assert calls == [5]

    def test_singular_shift_is_not_a_short_window(self, monkeypatch):
        mesh = build_mesh(3)  # one dof, eigenvalue A/B = 32
        A, B = assemble_stiffness(mesh, np.eye(2)), assemble_mass(mesh)
        a, b = A[0, 0], B[0, 0]
        # a window top (lam_max plus the solver's guard) at which a - top*b is exactly 0
        lam_max = a / b / (1 + 1e-8)
        for _ in range(100):
            if a - (lam_max + 1e-8 * lam_max) * b == 0.0:
                break
            lam_max = np.nextafter(lam_max, np.inf)
        assert a - (lam_max + 1e-8 * lam_max) * b == 0.0
        monkeypatch.setattr(eigensolver, "_DENSE_CUTOFF", 0)
        try:
            w, _ = solve_window(A, B, (0.0, lam_max))
        except SolverError as exc:
            assert exc.__cause__ is not None
        else:
            assert w.tolist() == _dense_window(A, B, (0.0, lam_max))[0].tolist()


def mmd_count(A, B, top):
    """Negative pivots of a fresh MMD_AT_PLUS_A factorization of A - top * B."""
    lu = spla.splu(
        sp.csc_matrix(A - top * B),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return int(np.count_nonzero(lu.U.diagonal() < 0))


class TestSolvePlan:
    def test_counts_on_alternating_patterns(self, doubled21, shuffled21, mass65):
        # solves on the cached stencil plans of three meshes and on the plans
        # of two other patterns built on the spot, interleaved in one process,
        # with the window top just below and just above an eigenvalue: each
        # count is the dense one, or on n = 65 a fresh MMD factorization's
        cmat = np.array([[1.3, 0.4], [0.4, 0.9]])
        problems = {}
        for n in (17, 21):
            mesh = build_mesh(n)
            problems[n] = (assemble_stiffness(mesh, cmat), assemble_mass(mesh))
        problems["doubled21"], problems["shuffled21"] = doubled21, shuffled21
        tops = {}
        for name, (A, B) in problems.items():
            spectrum = _dense_window(A, B, (0.0, np.inf))[0]
            tops[name] = spectrum[4], lambda lam, s=spectrum: int(np.count_nonzero(s <= lam))
        A65 = assemble_stiffness(build_mesh(65), cmat)
        problems[65] = A65, mass65
        lam65 = np.sort(spla.eigsh(A65, k=6, M=mass65, sigma=0.0)[0])[4]
        tops[65] = lam65, lambda lam: mmd_count(A65, mass65, lam + 1e-8 * lam)
        for side in (-1, 1, -1):
            for name in (17, "doubled21", 65, "shuffled21", 21):
                A, B = problems[name]
                plan = eigensolver._stencil_plan(name) if isinstance(name, int) else None
                lam, oracle = tops[name]
                lam_max = lam * (1 + side * 1e-6)
                expected = oracle(lam_max)
                assert expected == (4 if side < 0 else 6 if name == "doubled21" else 5)
                w = solve_window(A, B, (0.0, lam_max), plan)[0]
                assert len(w) == expected, (name, side)
                if plan is not None:   # the same bits as on a plan of A's own pattern
                    assert w.tobytes() == solve_window(A, B, (0.0, lam_max))[0].tobytes()

    def test_plan_built_once_per_mesh_and_points_factor_in_natural_order(
        self, cfg_1d, tmp_path, monkeypatch
    ):
        # every provider of one mesh in a process solves on the one plan that
        # _stencil_plan builds for it
        builds, orders = [], []
        build, splu = eigensolver.SolvePlan, spla.splu
        monkeypatch.setattr(eigensolver, "SolvePlan", lambda *a: builds.append(a) or build(*a))
        monkeypatch.setattr(
            spla, "splu", lambda S, **kw: orders.append(kw["permc_spec"]) or splu(S, **kw)
        )
        fem.operators.cache_clear()
        eigensolver._stencil_plan.cache_clear()
        for run, xs in (("a", ("0.4", "0.55", "0.7")), ("b", ("0.85", "1"))):
            provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path / run)
            for x in xs:
                assert provider.get(point_of_phys([x], cfg_1d.box)).n > 0
        assert len(builds) == 1
        # the plan's one factorization finds the order; each point's uses it
        assert orders == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 5

    def test_densely_solved_mesh_builds_no_plan(self, tmp_path, monkeypatch):
        # 49 dofs, at most _DENSE_CUTOFF: solve_window solves densely and
        # would read no plan
        cfg = parse_config(
            bundled_config_text("paper_1d.cfg").replace("mesh_n = 65", "mesh_n = 9")
        )
        builds = []
        build = eigensolver.SolvePlan
        monkeypatch.setattr(eigensolver, "SolvePlan", lambda *a: builds.append(a) or build(*a))
        eigensolver._stencil_plan.cache_clear()
        provider = SnapshotProvider(cfg, cache_dir=tmp_path)
        assert provider.get(point_of_phys(["0.7"], cfg.box)).n > 0
        assert builds == []
        assert eigensolver._stencil_plan.cache_info().currsize == 0

    @pytest.fixture(scope="class")
    def tridiagonal400(self):
        # 400 dofs, the square of 20: as many as a 22-node mesh has
        n = 400
        A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr")
        return A, sp.identity(n, format="csr")

    def test_pair_off_every_mesh_builds_no_operators(self, tridiagonal400):
        # the pair gets a plan of its own pattern, and no mesh is built
        A, B = tridiagonal400
        fem.operators.cache_clear()
        eigensolver._stencil_plan.cache_clear()
        w, _ = solve_window(A, B, (0.0, 1e-3))
        assert fem.operators.cache_info().currsize == 0
        assert eigensolver._stencil_plan.cache_info().currsize == 0
        expected = 2 - 2 * np.cos(np.arange(1, 5) * np.pi / (A.shape[0] + 1))
        assert np.allclose(w, expected, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("mesh_n", [17, 22])
    def test_plan_of_another_pattern_raises(self, tridiagonal400, mesh_n):
        # 225 dofs against 400; 400 dofs, but 2642 stored entries against 1198
        A, B = tridiagonal400
        plan = eigensolver._stencil_plan(mesh_n)
        with pytest.raises(ValueError, match="not stored on the plan's pattern"):
            solve_window(A, B, (0.0, 1e-3), plan)


class TestCheckPairs:
    @pytest.fixture(scope="class")
    def pairs(self, laplacian21):
        A, B = laplacian21
        w, v = solve_window(A, B, (0.0, 140.0))
        v, Bv = b_normalize(v, B)
        return A, w, v, Bv

    def test_accepts_solved_pairs(self, pairs):
        _check_pairs(*pairs)

    def test_names_first_bad_norm(self, pairs):
        A, w, v, Bv = pairs
        v, Bv = v.copy(), Bv.copy()
        v[:, [3, 5]] *= 1 + 1e-6
        Bv[:, [3, 5]] *= 1 + 1e-6
        with pytest.raises(SolverError, match=r"^eigenvector 3 has b-norm 1\.00000[01]"):
            _check_pairs(A, w, v, Bv)

    def test_names_first_bad_residual(self, pairs):
        A, w, v, Bv = pairs
        w = w.copy()
        w[[2, 4]] *= 1 + 1e-6
        with pytest.raises(SolverError, match=r"^eigenpair 2 residual 1\.0\de-06$"):
            _check_pairs(A, w, v, Bv)

    def test_names_nan_column(self, pairs):
        A, w, v, Bv = pairs
        v, Bv = v.copy(), Bv.copy()
        v[:, 4] = Bv[:, 4] = np.nan
        with pytest.raises(SolverError, match=r"^eigenvector 4 has b-norm nan$"):
            _check_pairs(A, w, v, Bv)

    def test_names_nan_eigenvalue(self, pairs):
        A, w, v, Bv = pairs
        w = w.copy()
        w[4] = np.nan
        with pytest.raises(SolverError, match=r"^eigenpair 4 residual nan$"):
            _check_pairs(A, w, v, Bv)


class TestSnapshotProvider:
    def test_normalization_and_residual(self, cfg_1d, provider_1d):
        point = point_of_phys(["0.7"], cfg_1d.box)
        snap = provider_1d.get(point)
        B = provider_1d.mass
        A = assemble_stiffness(provider_1d.mesh, np.array([[0.7**-2, 1.0], [1.0, 0.7**-2]]))
        for j in range(snap.n):
            u = snap.eigenvectors[:, j]
            assert abs(np.sqrt(u @ (B @ u)) - 1.0) < 1e-10
            r = A @ u - snap.eigenvalues[j] * (B @ u)
            assert np.linalg.norm(r) / np.linalg.norm(A @ u) < 1e-8

    def test_cache_hit_returns_identical(self, cfg_1d, cache_dir):
        provider = SnapshotProvider(cfg_1d, cache_dir=cache_dir / "run_1d")
        point = point_of_phys(["0.4"], cfg_1d.box)
        first = provider.get(point)
        fresh = SnapshotProvider(cfg_1d, cache_dir=cache_dir / "run_1d")
        second = fresh.get(point)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_fingerprint_mismatch_recomputes(self, cfg_1d, tmp_path):
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        point = point_of_phys(["0.4"], cfg_1d.box)
        provider.get(point)

        other = parse_config(
            bundled_config_text("paper_1d.cfg").replace("window = 0, 270", "window = 0, 100")
        )
        stale = SnapshotProvider(other, cache_dir=tmp_path)
        # the names differ by fingerprint; plant the file under the one looked up
        shutil.copyfile(provider._path(point), stale._path(point))
        with pytest.warns(UserWarning, match="fingerprint"):
            snap = stale.get(point)
        assert snap.n == 1  # only 80.9 sits below 100

    @pytest.mark.parametrize(
        "name",
        [
            "_V0_SEED", "_DENSE_CUTOFF", "_RESIDUAL_TOL", "_NORM_TOL", "_TOP_MARGIN",
            "_ARPACK_TOL", "_CACHE_FORMAT",
        ],
    )
    def test_solver_settings_enter_fingerprint(self, cfg_1d, monkeypatch, name):
        before = eigensolver.config_fingerprint(cfg_1d)
        monkeypatch.setattr(eigensolver, name, getattr(eigensolver, name) * 2)
        assert eigensolver.config_fingerprint(cfg_1d) != before

    def test_other_v0_seed_recomputes(self, cfg_1d, tmp_path, monkeypatch):
        point = point_of_phys(["0.4"], cfg_1d.box)
        with monkeypatch.context() as patch:
            patch.setattr(eigensolver, "_V0_SEED", eigensolver._V0_SEED + 1)
            seeded = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
            seeded.get(point)

        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        # the names differ by fingerprint; plant the file under the one looked up
        shutil.copyfile(seeded._path(point), provider._path(point))
        with pytest.warns(UserWarning, match="fingerprint"):
            snap = provider.get(point)
        assert snap.fingerprint == eigensolver.config_fingerprint(cfg_1d)
        with np.load(provider._path(point)) as data:   # rewritten under the current settings
            assert str(data["fingerprint"]) == snap.fingerprint

    def test_same_dimension_configs_keep_their_snapshots(self, tmp_path, monkeypatch):
        # two 1D configs that differ only in the window alternate in one cache:
        # their snapshot names differ, so neither overwrites the other's files
        text = bundled_config_text("paper_1d.cfg").replace("mesh_n = 65", "mesh_n = 9")
        other = text.replace("window = 0, 270", "window = 0, 100")
        configs = [parse_config(text), parse_config(other)]
        computed = []
        compute = SnapshotProvider._compute
        monkeypatch.setattr(
            SnapshotProvider, "_compute", lambda self, p: computed.append(p) or compute(self, p)
        )
        for cfg in configs:
            run_adaptive(cfg, provider=SnapshotProvider(cfg, tmp_path))
        assert computed
        computed.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = run_adaptive(configs[0], provider=SnapshotProvider(configs[0], tmp_path))
        assert computed == [] and state.terminated == CONVERGED

    @staticmethod
    def assert_stale_format_recomputes(cfg, tmp_path, fingerprint):
        """A cache file carrying an earlier format's fingerprint is solved again."""
        provider = SnapshotProvider(cfg, cache_dir=tmp_path)
        point = point_of_phys(["0.4"], cfg.box)
        good = provider.get(point)
        assert good.fingerprint != fingerprint
        np.savez(
            provider._path(point),
            fingerprint=np.str_(fingerprint),
            eigenvalues=good.eigenvalues,
            eigenvectors=good.eigenvectors,
        )

        fresh = SnapshotProvider(cfg, cache_dir=tmp_path)
        with pytest.warns(UserWarning, match=f"fingerprint {fingerprint}"):
            snap = fresh.get(point)
        assert snap.fingerprint == eigensolver.config_fingerprint(cfg)
        with np.load(provider._path(point)) as data:
            assert str(data["fingerprint"]) == snap.fingerprint

    def test_format_2_cache_recomputes(self, cfg_1d, tmp_path):
        # format 2: the shift-invert operator solved with SuperLU
        self.assert_stale_format_recomputes(cfg_1d, tmp_path, "f0269cbe845c5599")

    def test_format_3_cache_recomputes(self, cfg_1d, tmp_path):
        # format 3: shift-invert through the band Cholesky of A, at ARPACK tol 0
        self.assert_stale_format_recomputes(cfg_1d, tmp_path, "6760b5d1c0708002")

    def test_format_4_cache_recomputes(self, cfg_1d, tmp_path):
        # format 4: the mass matrix and stiffness parts assembled element by element
        self.assert_stale_format_recomputes(cfg_1d, tmp_path, "7867da563b62f915")

    @pytest.mark.parametrize(
        "damaged, damage",
        [
            ("eigenvectors", lambda v: v[:-1]),
            ("eigenvalues", lambda w: w[:-1]),
            ("eigenvalues", lambda w: w[0]),
        ],
        ids=["eigenvectors", "eigenvalues", "scalar eigenvalues"],
    )
    def test_wrong_shape_recomputes(self, cfg_1d, tmp_path, damaged, damage):
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        point = point_of_phys(["0.4"], cfg_1d.box)
        good = provider.get(point)
        arrays = {"eigenvalues": good.eigenvalues, "eigenvectors": good.eigenvectors}
        arrays[damaged] = damage(arrays[damaged])
        np.savez(provider._path(point), fingerprint=np.str_(good.fingerprint), **arrays)

        fresh = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        with pytest.warns(UserWarning, match="shape"):
            snap = fresh.get(point)
        assert np.array_equal(snap.eigenvalues, good.eigenvalues)
        assert np.array_equal(snap.eigenvectors, good.eigenvectors)

    def test_wrong_dtype_recomputes(self, cfg_1d, tmp_path):
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        point = point_of_phys(["0.4"], cfg_1d.box)
        good = provider.get(point)
        np.savez(
            provider._path(point),
            fingerprint=np.str_(good.fingerprint),
            eigenvalues=good.eigenvalues.astype(np.complex128),
            eigenvectors=good.eigenvectors.astype(np.float32),
        )

        fresh = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        with pytest.warns(UserWarning, match="dtype complex128 .* dtype float32"):
            snap = fresh.get(point)
        assert snap.eigenvalues.dtype == snap.eigenvectors.dtype == np.float64
        assert np.array_equal(snap.eigenvalues, good.eigenvalues)
        assert np.array_equal(snap.eigenvectors, good.eigenvectors)

    @pytest.mark.parametrize(
        "planted",
        [
            lambda w: np.where(np.arange(len(w)) == 1, np.nan, w),
            lambda w: np.where(np.arange(len(w)) == 1, np.inf, w),
            lambda w: w[[1, 0, *range(2, len(w))]],   # not ascending
            lambda w: w + 100.0,                      # above the window top, 270
            lambda w: w - w[0] - 1.0,                 # below the window bottom, 0
        ],
        ids=["nan", "inf", "unsorted", "above", "below"],
    )
    @pytest.mark.parametrize("read", ["get", "eigenvalues"])
    def test_implausible_eigenvalues_recompute(self, cfg_1d, tmp_path, planted, read):
        # a file under the right fingerprint whose eigenvalues no solve of
        # this config returns is warned about and solved again
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        point = point_of_phys(["0.4"], cfg_1d.box)
        good = provider.get(point)
        assert good.n > 2
        np.savez(
            provider._path(point),
            fingerprint=np.str_(good.fingerprint),
            eigenvalues=planted(good.eigenvalues),
            eigenvectors=good.eigenvectors,
        )

        fresh = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        with pytest.warns(UserWarning, match="not all finite, ascending and inside the window"):
            w = getattr(fresh, read)(point)
        w = w if read == "eigenvalues" else w.eigenvalues
        assert np.array_equal(w, good.eigenvalues)
        with np.load(provider._path(point)) as data:   # rewritten
            assert np.array_equal(data["eigenvalues"], good.eigenvalues)

    @pytest.mark.parametrize(
        "planted, match",
        [
            (lambda v: v[:-1], "eigenvectors of shape"),
            (lambda v: v[:, :-1], "eigenvectors of shape"),
            (lambda v: v.astype(np.float32), "eigenvectors of dtype float32"),
            (lambda v: np.asfortranarray(v).astype(np.complex128), "dtype complex128"),
        ],
        ids=["rows", "columns", "float32", "complex128"],
    )
    def test_eigenvector_header_is_checked(
        self, cfg_1d, tmp_path, pool_starts, planted, match
    ):
        # ensure and eigenvalues read the eigenvectors' dtype and shape from
        # their .npy header, and reject what a full read rejects
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        point = point_of_phys(["0.4"], cfg_1d.box)
        good = provider.get(point)
        for read in ("ensure", "eigenvalues"):
            np.savez(
                provider._path(point),
                fingerprint=np.str_(good.fingerprint),
                eigenvalues=good.eigenvalues,
                eigenvectors=planted(good.eigenvectors),
            )
            fresh = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
            with pytest.warns(UserWarning, match=match) as caught:
                if read == "ensure":
                    # ensure reads the header, finds the point missing and
                    # hands it to the workers, which rewrite the file
                    with fresh.solving(2):
                        fresh.ensure([point])
                    assert len(caught) == 1 and point not in fresh._eigenvalues
                    assert pool_starts == [2]
                assert np.array_equal(fresh.eigenvalues(point), good.eigenvalues)
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # rewritten
                assert np.array_equal(fresh._load(point).eigenvectors, good.eigenvectors)

    def test_eigenvalues_leave_the_vectors_unread(self, cfg_1d, tmp_path, monkeypatch):
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        point = point_of_phys(["0.4"], cfg_1d.box)
        good = provider.get(point)
        reads = []
        read_member = np.lib.npyio.NpzFile.__getitem__
        monkeypatch.setattr(
            np.lib.npyio.NpzFile,
            "__getitem__",
            lambda self, key: reads.append(key) or read_member(self, key),
        )
        fresh = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        fresh.eigenvalues(point)
        assert np.array_equal(fresh.eigenvalues(point), good.eigenvalues)
        assert reads == ["fingerprint", "eigenvalues"]   # one read, memoized
        assert np.array_equal(fresh.get(point).eigenvectors, good.eigenvectors)
        assert reads[2:] == ["fingerprint", "eigenvalues", "eigenvectors"]

    def test_get_keeps_no_eigenvectors_inside_or_outside_a_solving_block(
        self, cfg_1d, tmp_path, monkeypatch
    ):
        # the caller of get holds the snapshot; the provider memoizes the
        # eigenvalues alone, so eigenvalues reads nothing after a get
        points = [point_of_phys([x], cfg_1d.box) for x in ("0.4", "0.7")]
        setup = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        for p in points:
            setup.get(p)
        loads = []
        read = SnapshotProvider._load
        monkeypatch.setattr(
            SnapshotProvider,
            "_load",
            lambda self, p, vectors=True: loads.append((p, vectors)) or read(self, p, vectors),
        )
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        # bound before the assert, which would keep the snapshot alive
        dropped = [weakref.ref(provider.get(points[0]))]
        with provider.solving(1):
            dropped.append(weakref.ref(provider.get(points[1])))
            snap = provider.get(points[1])
            assert provider.get(points[1]) is not snap
        dropped.append(weakref.ref(provider.get(points[1])))
        assert [ref() for ref in dropped] == [None] * 3
        for p in points:
            assert provider.eigenvalues(p) is provider._eigenvalues[p]
        assert np.array_equal(provider.eigenvalues(points[1]), snap.eigenvalues)
        assert loads == [(points[0], True)] + [(points[1], True)] * 4

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_loading_every_run_snapshot_closes_its_files(self, run_2d, cfg_2d, cache_dir):
        def open_files():
            return len(os.listdir("/proc/self/fd"))

        before = open_files()
        provider = SnapshotProvider(cfg_2d, cache_dir=cache_dir / "run_2d")
        with provider.solving(2):   # every point cached: headers read, no pool
            provider.ensure(run_2d.points)
        assert all(len(provider.eigenvalues(p)) for p in run_2d.points)
        with provider.solving(1):
            assert all(provider.get(p).n for p in run_2d.points)
        assert open_files() == before

    @pytest.mark.parametrize("size", [0, 100, 20_000, -100])
    def test_truncated_file_recomputes(self, cfg_1d, tmp_path, size):
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        point = point_of_phys(["0.4"], cfg_1d.box)
        good = provider.get(point)
        path = provider._path(point)
        path.write_bytes(path.read_bytes()[:size])

        fresh = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        with pytest.warns(UserWarning, match="unreadable snapshot cache"):
            snap = fresh.get(point)
        assert np.array_equal(snap.eigenvalues, good.eigenvalues)
        assert np.array_equal(snap.eigenvectors, good.eigenvectors)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rewritten = SnapshotProvider(cfg_1d, cache_dir=tmp_path)._load(point)
        assert np.array_equal(rewritten.eigenvectors, good.eigenvectors)

    def test_empty_window_snapshot(self, tmp_path):
        cfg = parse_config(
            bundled_config_text("paper_1d.cfg")
            .replace("window = 0, 270", "window = 1000000, 2000000")
            .replace("mesh_n = 65", "mesh_n = 5")
        )
        provider = SnapshotProvider(cfg, cache_dir=tmp_path)
        snap = provider.get(point_of_phys(["0.7"], cfg.box))
        assert snap.n == 0

    def test_parallel_ensure_matches_serial(self, cfg_1d, tmp_path, pool_starts):
        # pool workers and this process must solve to the same bits
        points = [point_of_phys([x], cfg_1d.box) for x in ("0.4", "0.55", "0.7")]
        par = SnapshotProvider(cfg_1d, cache_dir=tmp_path / "par")
        with par.solving(2):
            par.ensure(points)
        ser = SnapshotProvider(cfg_1d, cache_dir=tmp_path / "ser")
        solved = {p: ser.get(p) for p in points}   # in this process, no pool
        assert pool_starts == [2]
        for p in points:
            a, b = par.get(p), solved[p]
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_pool_task_stores_one_file_equal_to_a_serial_get(self, cfg_1d, tmp_path):
        # a pool task is a function of its arguments: run in this process, it
        # writes its point's file alone, holding what a serial get solves
        point = point_of_phys(["0.4"], cfg_1d.box)
        eigensolver._compute_and_cache(cfg_1d, str(tmp_path / "task"), point)
        serial = SnapshotProvider(cfg_1d, cache_dir=tmp_path / "serial")
        files = list((tmp_path / "task").iterdir())
        assert [f.name for f in files] == [serial._path(point).name]
        want = serial.get(point)
        assert want.n > 0
        with np.load(files[0]) as got:
            assert str(got["fingerprint"]) == want.fingerprint
            for name in ("eigenvalues", "eigenvectors"):
                a, b = got[name], getattr(want, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()

    def test_solving_rejects_jobs_below_one(self, cfg_1d, tmp_path):
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="jobs"):
            with provider.solving(0):
                pass

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers must inherit the patched solver",
    )
    def test_pool_failure_names_point_and_cancels(self, cfg_1d, tmp_path, monkeypatch):
        points = [point_of_phys([f"{0.4 + 0.075 * k:.3f}"], cfg_1d.box) for k in range(9)]
        bad = min(points)
        solve = SnapshotProvider._compute

        def failing(self, point):
            if point == bad:
                raise SolverError("injected breakdown")
            return solve(self, point)

        monkeypatch.setattr(SnapshotProvider, "_compute", failing)
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        with pytest.raises(SolverError, match=bad.key()) as info:
            with provider.solving(2):
                provider.ensure(points)
        assert "injected breakdown" in str(info.value.__cause__)
        assert not list(tmp_path.glob("*.tmp"))
        assert len(list(tmp_path.glob("*.npz"))) < len(points) - 1   # queued points cancelled


def assert_solves_on_one_blas_thread(cfg, tmp_path, monkeypatch, jobs):
    """Solve two points with ``jobs``: each solve_window call, in this process
    for jobs=1 and in pool workers otherwise, must see one thread in every
    OpenBLAS, each worker must run as a single thread, and this process must
    stay at one thread afterwards."""
    before = blas_thread_counts()
    if not before:
        pytest.skip("no OpenBLAS library loaded")
    parent = os.getpid()
    log = tmp_path / "threads.log"
    solve = eigensolver.solve_window

    def logged(*args):
        # a worker that restarted OpenBLAS's thread pool also runs its helper
        # threads; this process may run threads of its own and is not counted
        tasks = 1 if os.getpid() == parent else len(os.listdir("/proc/self/task"))
        with open(log, "a") as fh:   # appended to by each worker process
            fh.write(f"{os.getpid() == parent} {blas_thread_counts()} {tasks}\n")
        return solve(*args)

    monkeypatch.setattr(eigensolver, "solve_window", logged)
    points = [point_of_phys([x], cfg.box) for x in ("0.4", "0.7")]
    provider = SnapshotProvider(cfg, cache_dir=tmp_path / "cache")
    if jobs == 1:
        for p in points:
            provider.get(p)
    else:
        with provider.solving(jobs):
            provider.ensure(points)
    seen = [line.split(" ", 1) for line in log.read_text().splitlines()]
    assert seen == [[str(jobs == 1), f"{[1] * len(before)} 1"]] * len(points)
    assert blas_thread_counts() == [1] * len(before)


def fake_thread_controls(monkeypatch, counts, log):
    """Replace the OpenBLAS thread controls by one per entry of ``counts``,
    whose setters append ``"<pid> <library> <count>"`` lines to ``log``."""

    def control(i):
        def set_threads(n):
            with open(log, "a") as fh:   # appended to by each worker process
                fh.write(f"{os.getpid()} {i} {n}\n")
            counts[i] = n

        return (lambda: counts[i]), set_threads

    controls = tuple(control(i) for i in range(len(counts)))
    monkeypatch.setattr(eigensolver, "_openblas_thread_controls", lambda: controls)


def setter_calls(log) -> list[str]:
    return log.read_text().splitlines() if log.exists() else []


class TestSolverPool:
    def test_parent_solves_on_one_blas_thread(self, cfg_1d, tmp_path, monkeypatch):
        assert_solves_on_one_blas_thread(cfg_1d, tmp_path, monkeypatch, jobs=1)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers must inherit the logging solver",
    )
    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
    def test_workers_run_one_blas_thread(self, cfg_1d, tmp_path, monkeypatch):
        assert_solves_on_one_blas_thread(cfg_1d, tmp_path, monkeypatch, jobs=2)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers must inherit the logging builders",
    )
    def test_each_worker_builds_its_own_solve_state(self, cfg_1d, tmp_path, monkeypatch):
        # this process only submits solves, so it builds no stencils and no
        # solve plan; each worker builds each of them on its first solve
        log = tmp_path / "builds.log"
        for module, name in ((fem, "_stencils"), (eigensolver, "SolvePlan")):

            def logged(*args, _build=getattr(module, name), _name=name):
                with open(log, "a") as fh:   # appended to by each worker process
                    fh.write(f"{os.getpid()} {_name}\n")
                return _build(*args)

            monkeypatch.setattr(module, name, logged)
        fem.operators.cache_clear()
        eigensolver._stencil_plan.cache_clear()
        points = [point_of_phys([x], cfg_1d.box) for x in ("0.4", "0.55", "0.7")]
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path / "cache")
        with provider.solving(2):
            provider.ensure(points)
        assert len(list((tmp_path / "cache").glob("snap_*.npz"))) == len(points)
        assert fem.operators.cache_info().currsize == 0   # not even the mesh
        builds = [line.split() for line in log.read_text().splitlines()]
        workers = {pid for pid, _ in builds}
        assert str(os.getpid()) not in workers
        assert sorted(builds) == sorted(
            [pid, name] for pid in workers for name in ("SolvePlan", "_stencils")
        )

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
    def test_thread_controls_cover_every_openblas(self):
        # the solver's modules are imported on use, and they map scipy's own
        # OpenBLAS; a lookup made before that import would miss it and leave
        # scipy's band solves on the default thread count
        src = str(Path(eigensolver.__file__).resolve().parents[1])
        code = (
            f"import os, sys; sys.path.insert(0, {src!r})\n"
            "from eigentrack import eigensolver\n"
            "eigensolver._one_blas_thread()\n"
            "found = len(eigensolver._openblas_thread_controls())\n"
            "import scipy.linalg\n"
            "with open('/proc/self/maps') as fh:\n"
            "    paths = {line.split(maxsplit=5)[-1].strip() for line in fh}\n"
            "names = [os.path.basename(p).lower() for p in paths if os.path.isfile(p)]\n"
            "print(found, sum('openblas' in name for name in names))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        found, mapped = map(int, proc.stdout.split())
        if not mapped:
            pytest.skip("no OpenBLAS library loaded")
        assert found == mapped

    def test_warns_once_when_no_openblas(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "_openblas_thread_controls", lambda: ())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with _solver_pool(2) as pool:
                futures = [pool.submit(abs, -k) for k in (1, 2)]
                assert [fut.result() for fut in futures] == [1, 2]
        assert [str(w.message) for w in caught if "OpenBLAS" in str(w.message)] == [
            "no OpenBLAS library found; pool workers keep default BLAS threading"
        ]


class TestOneBlasThread:
    def test_sets_only_libraries_above_one_once_per_process(self, cfg_1d, tmp_path, monkeypatch):
        # a setter call in a forked process restarts OpenBLAS's thread pool,
        # so a library already at one thread must see none, and no count is
        # ever set back
        log = tmp_path / "sets.log"
        fake_thread_controls(monkeypatch, [1, 2], log)
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path / "cache")
        for x in ("0.4", "0.55", "0.7"):
            provider.get(point_of_phys([x], cfg_1d.box))
        assert setter_calls(log) == [f"{os.getpid()} 1 1"]

    @pytest.mark.parametrize("raises", [False, True])
    def test_sets_only_libraries_above_one_and_restores_them(
        self, cfg_1d, tmp_path, monkeypatch, raises
    ):
        # restored to one, not to the old count: a failed solve sets nothing
        # back, and a library that something else raised above one thread
        # since is set to one again by the next solve; one already at one
        # sees no call
        log = tmp_path / "sets.log"
        counts = [1, 2]
        fake_thread_controls(monkeypatch, counts, log)
        if raises:
            def failing_solve(*args):
                raise RuntimeError("solve failed")

            monkeypatch.setattr(eigensolver, "solve_window", failing_solve)
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path / "cache")
        point = point_of_phys(["0.4"], cfg_1d.box)
        with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
            provider._compute(point)
        assert counts == [1, 1]
        counts[1] = 3
        with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
            provider._compute(point)
        assert counts == [1, 1]
        pid = os.getpid()
        assert setter_calls(log) == [f"{pid} 1 1", f"{pid} 1 1"]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers must inherit the patched thread controls",
    )
    def test_no_setter_call_after_the_pool_forks(self, cfg_1d, tmp_path, monkeypatch):
        # the setter calls come before the fork and the workers inherit one
        # thread; a call after it, in this process or a worker, would restart
        # that process's OpenBLAS thread pool
        log, events = tmp_path / "sets.log", []
        fake_thread_controls(monkeypatch, [2, 2], log)
        start = eigensolver._solver_pool

        def logged(jobs):
            pool = start(jobs)
            events.extend(setter_calls(log) + ["pool"])
            return pool

        monkeypatch.setattr(eigensolver, "_solver_pool", logged)
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path / "cache")
        points = [point_of_phys([x], cfg_1d.box) for x in ("0.4", "0.55", "0.7")]
        with provider.solving(2):
            provider.ensure(points)
            assert all(provider.get(p).n for p in points)
        parent = os.getpid()
        assert events == [f"{parent} 0 1", f"{parent} 1 1", "pool"]
        assert setter_calls(log) == events[:-1]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the patched solver",
)
class TestPrefetch:
    @staticmethod
    def gated_compute(monkeypatch, log, gates, fails=None):
        """Patch ``_compute`` to log each point it starts, to wait for the gate
        file ``gates[point]`` if it has one (at most 30 s), and to raise
        SolverError at ``fails``."""
        compute = SnapshotProvider._compute

        def gated(self, point):
            with open(log, "a") as fh:   # appended to by each worker process
                fh.write(point.key() + "\n")
            if point == fails:
                raise SolverError("injected breakdown")
            deadline = time.monotonic() + 30
            while point in gates and not gates[point].exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            return compute(self, point)

        monkeypatch.setattr(SnapshotProvider, "_compute", gated)

    def test_ensure_returns_before_solving_and_the_exit_drains(
        self, cfg_1d, tmp_path, monkeypatch, pool_starts
    ):
        points = [point_of_phys([f"{0.4 + 0.075 * k:.3f}"], cfg_1d.box) for k in range(6)]
        slow, log = points[0], tmp_path / "computed.log"
        first, rest = tmp_path / "first", tmp_path / "rest"
        self.gated_compute(monkeypatch, log, {p: first if p == slow else rest for p in points})
        provider = SnapshotProvider(cfg_1d, tmp_path / "cache")
        with provider.solving(2):
            provider.ensure(points)
            pending = provider._pending[slow]
            assert not pending.done() and not provider._path(slow).exists()
            provider.ensure([slow])   # pending: not submitted again
            assert provider._pending[slow] is pending
            first.touch()
            assert provider.get(slow).n > 0
            assert slow not in provider._pending
            assert provider._pending.keys() == set(points[1:])   # all waiting for "rest"
            rest.touch()
        assert provider._pending == {}
        assert all(provider._path(p).exists() for p in points)
        assert sorted(log.read_text().split()) == sorted(p.key() for p in points)
        assert pool_starts == [2]

    def test_nested_block_of_other_jobs_raises_and_the_outer_drains(
        self, cfg_1d, tmp_path, monkeypatch, pool_starts
    ):
        # the refused inner block leaves the outer one's pool and pending
        # solves alone; the outer block still waits for them and stores them
        points = [point_of_phys([f"{0.4 + 0.075 * k:.3f}"], cfg_1d.box) for k in range(3)]
        gate = tmp_path / "gate"
        self.gated_compute(monkeypatch, tmp_path / "computed.log", dict.fromkeys(points, gate))
        provider = SnapshotProvider(cfg_1d, tmp_path / "cache")
        with provider.solving(2):
            provider.ensure(points)
            pool, pending = provider._pool, dict(provider._pending)
            assert pool is not None and pending.keys() == set(points)
            with pytest.raises(ValueError, match="solving block of 2 jobs is open; cannot nest 1"):
                with provider.solving(1):
                    pass
            assert provider._pool is pool and provider._pending == pending
            assert not any(fut.done() for fut in pending.values())
            gate.touch()
        assert provider._pending == {} and provider._pool is None
        assert all(fut.done() and fut.exception() is None for fut in pending.values())
        assert all(provider._load(p) is not None for p in points)
        assert pool_starts == [2]

    @pytest.mark.parametrize("read", ["get", "eigenvalues"])
    def test_failure_raises_at_first_read_and_cancels_the_queue(
        self, cfg_1d, tmp_path, monkeypatch, read
    ):
        points = [point_of_phys([f"{0.4 + 0.075 * k:.3f}"], cfg_1d.box) for k in range(9)]
        bad, gate = points[0], tmp_path / "gate"   # the first solve a worker takes
        self.gated_compute(monkeypatch, tmp_path / "computed.log", dict.fromkeys(points, gate), bad)
        provider = SnapshotProvider(cfg_1d, tmp_path / "cache")
        with provider.solving(2):
            provider.ensure(points)
            queued = dict(provider._pending)
            with pytest.raises(SolverError, match=bad.key()) as info:
                getattr(provider, read)(bad)
            # every other solve waits for the gate: it is either held by the
            # pool, which cannot cancel it, or cancelled
            held = {p for p, fut in queued.items() if p != bad and not fut.cancelled()}
            assert all(queued[p].running() for p in held)
            assert provider._pending.keys() == held
            assert len(held) < len(points) - 1
            gate.touch()
        assert "injected breakdown" in str(info.value.__cause__)
        assert sorted(p.name for p in provider.cache_dir.iterdir()) == sorted(
            provider._path(p).name for p in held
        )


class TestPoolLifecycle:
    def test_run_adaptive_starts_one_pool(self, cfg_1d, tmp_path, pool_starts):
        state = run_adaptive(cfg_1d, provider=SnapshotProvider(cfg_1d, tmp_path), jobs=2)
        # several levels have work for the workers, and all share the pool
        assert sum(len(level.new_points) > 1 for level in state.levels) >= 2
        assert pool_starts == [2]
        assert multiprocessing.active_children() == []

    def test_parent_solves_nothing_once_a_pool_runs(
        self, cfg_1d, tmp_path, pool_starts, monkeypatch
    ):
        # the last level's lone new point goes to the pool the first level
        # started, not to get in this process
        computed = []
        compute = SnapshotProvider._compute
        monkeypatch.setattr(
            SnapshotProvider, "_compute", lambda self, p: computed.append(p) or compute(self, p)
        )
        state = run_adaptive(cfg_1d, provider=SnapshotProvider(cfg_1d, tmp_path), jobs=2)
        assert [len(level.new_points) for level in state.levels] == [3, 2, 2, 1]
        assert computed == []
        assert len(list(tmp_path.glob("snap_*.npz"))) == 8
        assert pool_starts == [2]

    def test_reference_solution_reaps_its_pool(self, cfg_1d, tmp_path, pool_starts):
        reference_solution(cfg_1d, 9, provider=SnapshotProvider(cfg_1d, tmp_path), jobs=2)
        assert pool_starts == [2]
        assert multiprocessing.active_children() == []

    def test_reference_reads_each_snapshot_once(self, cfg_1d, tmp_path, pool_starts, monkeypatch):
        # the workers solve and store; the matching reads each file once
        loads = []
        load = SnapshotProvider._load
        monkeypatch.setattr(
            SnapshotProvider,
            "_load",
            lambda self, p, vectors=True: loads.append((p, vectors)) or load(self, p, vectors),
        )
        reference_solution(cfg_1d, 9, provider=SnapshotProvider(cfg_1d, tmp_path), jobs=2)
        assert pool_starts == [2]
        lattice = uniform_lattice(cfg_1d, 9)
        # ensure finds each point missing; then each file is read once, whole
        assert sorted(loads) == [(p, v) for p in lattice for v in (False, True)]

    def test_solving_block_keeps_its_pool_until_exit(self, cfg_1d, tmp_path, pool_starts):
        provider = SnapshotProvider(cfg_1d, tmp_path)
        points = [point_of_phys([f"{0.4 + 0.075 * k:.3f}"], cfg_1d.box) for k in range(4)]
        with provider.solving(2):
            with provider.solving(2):   # reentrant
                provider.ensure(points[:2])
            assert len(multiprocessing.active_children()) == 2
            provider.ensure(points[2:])
            with pytest.raises(ValueError, match="solving block of 2 jobs"):
                with provider.solving(3):
                    pass
        assert pool_starts == [2]
        assert multiprocessing.active_children() == []
        assert all(provider._load(p) is not None for p in points)

    def test_solving_without_work_starts_no_pool(self, cfg_1d, tmp_path, pool_starts):
        # every point is cached: ensure reads the headers and submits nothing
        setup = SnapshotProvider(cfg_1d, tmp_path)
        points = [point_of_phys([x], cfg_1d.box) for x in ("0.4", "0.7")]
        for p in points:
            setup.get(p)
        provider = SnapshotProvider(cfg_1d, tmp_path)
        with provider.solving(2):
            provider.ensure(points)
            provider.ensure([])
        assert pool_starts == []
        assert provider._eigenvalues.keys() == set(points)

    def test_workers_solve_a_lone_missing_point(
        self, cfg_1d, tmp_path, pool_starts, monkeypatch
    ):
        # inside a block of two jobs this process solves nothing, even when
        # the only missing point is one and no pool runs yet
        computed = []
        compute = SnapshotProvider._compute
        monkeypatch.setattr(
            SnapshotProvider, "_compute", lambda self, p: computed.append(p) or compute(self, p)
        )
        provider = SnapshotProvider(cfg_1d, tmp_path)
        point = point_of_phys(["0.4"], cfg_1d.box)
        with provider.solving(2):
            provider.ensure([point])
            assert provider.get(point).n > 0
        assert computed == []
        assert pool_starts == [2]

    @pytest.mark.parametrize("jobs", [None, 1])
    def test_ensure_without_workers_does_nothing(self, cfg_1d, tmp_path, monkeypatch, jobs):
        # outside a solving block and in a one-job block, get solves each
        # point at its first fetch; ensure neither solves nor reads
        calls = []
        for name in ("_compute", "_load"):
            monkeypatch.setattr(
                SnapshotProvider, name, lambda self, *args, _name=name: calls.append(_name)
            )
        provider = SnapshotProvider(cfg_1d, tmp_path)
        points = [point_of_phys([x], cfg_1d.box) for x in ("0.4", "0.7")]
        with provider.solving(jobs) if jobs else contextlib.nullcontext():
            provider.ensure(points)
        assert calls == []
        assert list(tmp_path.iterdir()) == []
