import multiprocessing
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from eigentrack import eigensolver
from eigentrack.config import parse_config
from eigentrack.eigensolver import (
    SnapshotProvider,
    SolverError,
    _check_pairs,
    _dense_window,
    _openblas_thread_calls,
    _solver_pool,
    b_normalize,
    solve_window,
)
from eigentrack.fem import assemble_mass, assemble_stiffness, build_mesh
from eigentrack.grid import point_of_phys
from tests.conftest import bundled_config_text

PI2 = np.pi**2


@pytest.fixture(scope="module")
def mesh65():
    return build_mesh(65)


@pytest.fixture(scope="module")
def mass65(mesh65):
    return assemble_mass(mesh65)


def blas_thread_counts():
    return [get_threads() for get_threads in _openblas_thread_calls("get")]


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
        import scipy.linalg

        mesh = build_mesh(17)  # N = 225, above the dense cutoff
        A = assemble_stiffness(mesh, np.eye(2))
        B = assemble_mass(mesh)
        w_sparse, _ = solve_window(A, B, (0.0, 150.0))
        w_dense = scipy.linalg.eigh(
            A.toarray(), B.toarray(), eigvals_only=True
        )[: len(w_sparse)]
        assert np.allclose(w_sparse, w_dense, rtol=1e-7)


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


def eigsh_spy(monkeypatch, change=None):
    """Record the k of every spla.eigsh call; ``change`` may alter the result."""
    calls = []
    eigsh = eigensolver.spla.eigsh

    def spy(A, k, **kwargs):
        calls.append(k)
        if change is None:
            return eigsh(A, k=k, **kwargs)
        return change(eigsh, A, k, **kwargs)

    monkeypatch.setattr(eigensolver.spla, "eigsh", spy)
    return calls


def drop_one_pair(eigsh, A, k, **kwargs):
    w, v = eigsh(A, k=k, **kwargs)
    return w[1:], v[:, 1:]


def skip_last_counted(eigsh, A, k, **kwargs):
    # as if ARPACK had missed the highest eigenvalue below the window top and
    # returned the next one above it instead: k pairs, one short below the top
    w, v = eigsh(A, k=k + 1, **kwargs)
    order = np.argsort(w)
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
        with pytest.warns(UserWarning, match="fingerprint"):
            snap = stale.get(point)
        assert snap.n == 1  # only 80.9 sits below 100

    @pytest.mark.parametrize(
        "name", ["_V0_SEED", "_DENSE_CUTOFF", "_RESIDUAL_TOL", "_NORM_TOL", "_TOP_MARGIN"]
    )
    def test_solver_settings_enter_fingerprint(self, cfg_1d, monkeypatch, name):
        before = eigensolver.config_fingerprint(cfg_1d)
        monkeypatch.setattr(eigensolver, name, getattr(eigensolver, name) * 2)
        assert eigensolver.config_fingerprint(cfg_1d) != before

    def test_other_v0_seed_recomputes(self, cfg_1d, tmp_path, monkeypatch):
        point = point_of_phys(["0.4"], cfg_1d.box)
        with monkeypatch.context() as patch:
            patch.setattr(eigensolver, "_V0_SEED", eigensolver._V0_SEED + 1)
            SnapshotProvider(cfg_1d, cache_dir=tmp_path).get(point)

        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        with pytest.warns(UserWarning, match="fingerprint"):
            snap = provider.get(point)
        assert snap.fingerprint == eigensolver.config_fingerprint(cfg_1d)
        with np.load(provider._path(point)) as data:   # rewritten under the current settings
            assert str(data["fingerprint"]) == snap.fingerprint

    @pytest.mark.parametrize("truncated", ["eigenvectors", "eigenvalues"])
    def test_wrong_shape_recomputes(self, cfg_1d, tmp_path, truncated):
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        point = point_of_phys(["0.4"], cfg_1d.box)
        good = provider.get(point)
        arrays = {"eigenvalues": good.eigenvalues, "eigenvectors": good.eigenvectors}
        arrays[truncated] = arrays[truncated][:-1]
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

    def test_empty_window_snapshot(self, tmp_path):
        cfg = parse_config(
            bundled_config_text("paper_1d.cfg")
            .replace("window = 0, 270", "window = 1000000, 2000000")
            .replace("mesh_n = 65", "mesh_n = 5")
        )
        provider = SnapshotProvider(cfg, cache_dir=tmp_path)
        snap = provider.get(point_of_phys(["0.7"], cfg.box))
        assert snap.n == 0

    def test_parallel_ensure_matches_serial(self, cfg_1d, cache_dir, tmp_path):
        points = [point_of_phys([x], cfg_1d.box) for x in ("0.4", "0.55", "0.7")]
        par = SnapshotProvider(cfg_1d, cache_dir=tmp_path / "par")
        par.ensure(points, jobs=2)
        ser = SnapshotProvider(cfg_1d, cache_dir=cache_dir / "run_1d")
        for p in points:
            a, b = par.get(p), ser.get(p)
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_worker_stores_without_memoizing(self, cfg_1d, tmp_path, monkeypatch):
        # run the worker's initializer here, without limiting this process's BLAS
        monkeypatch.setattr(eigensolver, "_openblas_thread_calls", lambda verb: [])
        monkeypatch.setattr(eigensolver, "_worker_provider", None)
        point = point_of_phys(["0.4"], cfg_1d.box)
        eigensolver._init_worker(cfg_1d, str(tmp_path))
        worker = eigensolver._worker_provider
        eigensolver._compute_and_cache(point)
        assert eigensolver._worker_provider is worker
        assert worker.fingerprint == eigensolver.config_fingerprint(cfg_1d)
        assert worker._memory == {}
        assert [p.name for p in tmp_path.iterdir()] == [worker._path(point).name]
        snap = SnapshotProvider(cfg_1d, cache_dir=tmp_path)._load(point)
        assert snap is not None and snap.n > 0

    def test_ensure_rejects_jobs_below_one(self, cfg_1d, tmp_path):
        provider = SnapshotProvider(cfg_1d, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="jobs"):
            provider.ensure([point_of_phys(["0.4"], cfg_1d.box)], jobs=0)

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
            provider.ensure(points, jobs=2)
        assert "injected breakdown" in str(info.value.__cause__)
        assert not list(tmp_path.glob("*.tmp"))
        assert len(list(tmp_path.glob("*.npz"))) < len(points) - 1   # queued points cancelled


class TestSolverPool:
    def test_workers_run_one_blas_thread(self, cfg_1d, tmp_path):
        parent = blas_thread_counts()
        if not parent:
            pytest.skip("no OpenBLAS library loaded")
        with _solver_pool(cfg_1d, str(tmp_path), 2) as pool:
            futures = [pool.submit(blas_thread_counts) for _ in range(4)]
            counts = [fut.result() for fut in futures]
        assert counts == [[1] * len(parent)] * 4
        assert blas_thread_counts() == parent

    def test_warns_once_when_no_openblas(self, cfg_1d, tmp_path, monkeypatch):
        monkeypatch.setattr(eigensolver, "_openblas_thread_calls", lambda verb: [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with _solver_pool(cfg_1d, str(tmp_path), 2) as pool:
                futures = [pool.submit(abs, -k) for k in (1, 2)]
                assert [fut.result() for fut in futures] == [1, 2]
        assert [str(w.message) for w in caught if "OpenBLAS" in str(w.message)] == [
            "no OpenBLAS library found; pool workers keep default BLAS threading"
        ]
