"""Windowed generalized eigensolves and the per-point snapshot cache.

solve_window returns every eigenvalue of A u = lambda B u inside the window,
in ascending order, with B-orthonormal eigenvectors.  Completeness is
certified by inertia (spectrum slicing): by Sylvester's law, the number of
negative pivots of a symmetric LDL^T factorization of A - top*B is the number
of eigenvalues below the window top.  One shift-invert solve about 0 then
asks for exactly that many pairs plus one, and the result must bracket the
top between its last counted and its extra eigenvalue.  A and B are SPD, so
the spectrum is positive and every eigenvalue below the top is counted.
Small problems fall back to a dense solve of the full spectrum.

Snapshots are cached on disk, one file per grid point, keyed by the exact
dyadic reference coordinates and guarded by a fingerprint of everything that
determines the solve (mesh, coefficient family, window, box, and the solver's
start vector seed, dense cutoff, tolerances and inertia-shift margin).

Parallel solves run in a process pool whose workers each use one OpenBLAS
thread, so that ``jobs`` workers occupy ``jobs`` cores.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import os
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from eigentrack.config import RunConfig, eval_coefficient
from eigentrack.fem import Mesh, assemble_mass, assemble_stiffness, build_mesh
from eigentrack.grid import ParamPoint

_V0_SEED = 20230517          # fixed Lanczos start vector: runs must be reproducible
_DENSE_CUTOFF = 200
_RESIDUAL_TOL = 1e-8
_NORM_TOL = 1e-10
_TOP_MARGIN = 1e-8           # relative margin of the inertia shift above the window top


class SolverError(RuntimeError):
    """Eigensolver breakdown or an unverifiable window."""


@dataclass(frozen=True)
class Snapshot:
    """Windowed, b-normalized eigenpairs at one parameter point."""

    point: ParamPoint
    eigenvalues: np.ndarray    # (n,), ascending, inside the window
    eigenvectors: np.ndarray   # (N, n), unit b-norm columns
    fingerprint: str

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


def _dense_window(A, B, window):
    w, v = scipy.linalg.eigh(np.asarray(A.todense()), np.asarray(B.todense()))
    keep = (w >= window[0]) & (w <= window[1])
    return w[keep], v[:, keep]


def _symmetric_lu(S: sp.spmatrix):
    """SuperLU factorization of symmetric S with symmetric (diagonal) pivoting.

    Row and column orders are equal, so S = P^T L U P with U = D L^T, and
    the signs of ``U.diagonal()`` give the inertia of S.
    """
    try:
        lu = spla.splu(
            sp.csc_matrix(S),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverError(f"symmetric factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError("symmetric factorization pivoted off the diagonal")
    return lu


def solve_window(A: sp.spmatrix, B: sp.spmatrix, window: tuple[float, float]):
    """All eigenpairs of A u = lambda B u with lambda in the window.

    Returns (eigenvalues, eigenvectors) with ascending eigenvalues and
    B-orthonormal eigenvector columns; both empty when the window contains
    no eigenvalue.  Raises SolverError when the computed pairs disagree with
    the inertia count.
    """
    lam_min, lam_max = window
    n = A.shape[0]
    if n != B.shape[0]:
        raise ValueError("A and B must have the same dimension")
    if n <= _DENSE_CUTOFF:
        return _dense_window(A, B, window)

    top = lam_max + _TOP_MARGIN * max(1.0, abs(lam_max))
    count = int(np.count_nonzero(_symmetric_lu(A - top * B).U.diagonal() < 0))
    if count == 0:
        return np.empty(0), np.empty((n, 0))
    if count + 1 >= n - 1:
        return _dense_window(A, B, window)

    lu = _symmetric_lu(A)
    op_inv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    v0 = np.random.default_rng(_V0_SEED).standard_normal(n)
    try:
        w, v = spla.eigsh(A, k=count + 1, M=B, sigma=0.0, which="LM", v0=v0, OPinv=op_inv)
    except Exception as exc:  # ARPACK breakdown
        raise SolverError(f"shift-invert eigensolve failed: {exc}") from exc
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    if len(w) != count + 1 or not w[count - 1] < top < w[count]:
        raise SolverError(
            f"inertia counts {count} eigenvalues below {top:.10g}, but the eigensolve "
            f"returned {int(np.count_nonzero(w < top))} of {len(w)} below it"
        )
    keep = (w >= lam_min) & (w <= lam_max)
    return w[keep], v[:, keep]


def b_normalize(vectors: np.ndarray, B: sp.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    """B-normalized columns and their mass products, from one product with B."""
    Bv = B @ vectors
    norms = np.sqrt(np.einsum("ij,ij->j", vectors, Bv))
    return vectors / norms, Bv / norms


def _check_pairs(A, w, v, Bv):
    """Check b-norms and residuals of eigenpairs ``(w, v)``, given ``Bv = B @ v``."""
    Av = A @ v
    bnorm = np.einsum("ij,ij->j", v, Bv)
    residual = np.linalg.norm(Av - Bv * w, axis=0)
    denom = np.linalg.norm(Av, axis=0)
    # written so that NaN fails: every comparison with NaN is False
    for j in range(len(w)):
        if not abs(bnorm[j] - 1.0) <= _NORM_TOL:
            raise SolverError(f"eigenvector {j} has b-norm {np.sqrt(bnorm[j])}")
        relative = residual[j] / denom[j]
        if not relative <= _RESIDUAL_TOL:
            raise SolverError(f"eigenpair {j} residual {relative:.2e}")


def config_fingerprint(cfg: RunConfig) -> str:
    payload = json.dumps(
        {
            "mesh_n": cfg.mesh_n,
            "box": cfg.box,
            "window": cfg.window,
            "coefficient": cfg.coefficient.sources,
            "dim": cfg.dim,
            "format": 2,
            "solver": {
                "v0_seed": _V0_SEED,
                "dense_cutoff": _DENSE_CUTOFF,
                "residual_tol": _RESIDUAL_TOL,
                "norm_tol": _NORM_TOL,
                "top_margin": _TOP_MARGIN,
            },
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class SnapshotProvider:
    """Computes, caches and hands out snapshots for one configuration.

    Pure per point: the same (config, point) always yields the same snapshot,
    whether freshly solved or loaded from the cache.  Cache writes are atomic,
    so concurrent workers on distinct points are safe.
    """

    def __init__(self, cfg: RunConfig, cache_dir: str | Path | None = None):
        self.cfg = cfg
        self.mesh: Mesh = build_mesh(cfg.mesh_n)
        self.mass = assemble_mass(self.mesh)
        self.fingerprint = config_fingerprint(cfg)
        self.cache_dir = Path(cache_dir if cache_dir is not None else cfg.cache_dir)
        self._memory: dict[ParamPoint, Snapshot] = {}

    # -- cache ------------------------------------------------------------

    def _path(self, point: ParamPoint) -> Path:
        return self.cache_dir / f"snap_{point.key()}.npz"

    def _load(self, point: ParamPoint) -> Snapshot | None:
        path = self._path(point)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                fingerprint = str(data["fingerprint"])
                if fingerprint != self.fingerprint:
                    warnings.warn(
                        f"snapshot cache {path} has fingerprint {fingerprint}, "
                        f"expected {self.fingerprint}; recomputing"
                    )
                    return None
                w, v = data["eigenvalues"], data["eigenvectors"]
                if w.dtype != np.float64 or v.dtype != np.float64:
                    warnings.warn(
                        f"snapshot cache {path} has eigenvalues of dtype {w.dtype} and "
                        f"eigenvectors of dtype {v.dtype}, expected float64; recomputing"
                    )
                    return None
                if w.ndim != 1 or v.shape != (self.mesh.n_interior, len(w)):
                    warnings.warn(
                        f"snapshot cache {path} has eigenvalues of shape {w.shape} and "
                        f"eigenvectors of shape {v.shape}, expected "
                        f"({self.mesh.n_interior}, {len(w)}); recomputing"
                    )
                    return None
                return Snapshot(point=point, eigenvalues=w, eigenvectors=v, fingerprint=fingerprint)
        except (OSError, ValueError, KeyError) as exc:
            warnings.warn(f"unreadable snapshot cache {path} ({exc}); recomputing")
            return None

    def _store(self, snap: Snapshot) -> None:
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._path(snap.point)
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(
                    fh,
                    eigenvalues=snap.eigenvalues,
                    eigenvectors=snap.eigenvectors,
                    fingerprint=np.str_(snap.fingerprint),
                )
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # -- solving ----------------------------------------------------------

    def _compute(self, point: ParamPoint) -> Snapshot:
        cmat = eval_coefficient(self.cfg.coefficient, point.phys)
        A = assemble_stiffness(self.mesh, cmat)
        w, v = solve_window(A, self.mass, self.cfg.window)
        v, Bv = b_normalize(v, self.mass)
        _check_pairs(A, w, v, Bv)
        return Snapshot(
            point=point, eigenvalues=w, eigenvectors=v, fingerprint=self.fingerprint
        )

    def get(self, point: ParamPoint) -> Snapshot:
        snap = self._memory.get(point)
        if snap is not None:
            return snap
        snap = self._load(point)
        if snap is None:
            snap = self._compute(point)
            self._store(snap)
        self._memory[point] = snap
        return snap

    def ensure(self, points, jobs: int = 1) -> None:
        """Populate the cache for many points, in ``jobs`` processes when > 1.

        The first failing point cancels the queued ones and raises SolverError.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        missing = []
        for p in sorted(set(points)):
            if p in self._memory:
                continue
            snap = self._load(p)
            if snap is None:
                missing.append(p)
            else:
                self._memory[p] = snap
        if not missing:
            return
        if jobs == 1 or len(missing) == 1:
            for p in missing:
                self.get(p)
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        with _solver_pool(self.cfg, str(self.cache_dir), jobs) as pool:
            futures = {pool.submit(_compute_and_cache, p): p for p in missing}
            for fut in as_completed(futures):
                exc = fut.exception()
                if exc is not None:
                    pool.shutdown(cancel_futures=True)
                    raise SolverError(f"snapshot at {futures[fut].key()} failed: {exc}") from exc


# OpenBLAS thread setters and getters, as exported by the scipy-openblas
# wheels (64-bit interface in numpy, 32-bit in scipy) and by plain builds,
# with their ctypes signatures.
_OPENBLAS_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads",
)
_OPENBLAS_SIGNATURES = {"set": ([ctypes.c_int], None), "get": ([], ctypes.c_int)}


def _openblas_thread_calls(verb: str) -> list:
    """The ``{verb}_num_threads`` function of each OpenBLAS loaded in this process.

    ``verb`` is "set" or "get".  Libraries are found in the process's memory
    map, so the list is empty where /proc/self/maps does not exist.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return []
    calls = []
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path).lower() or not os.path.isfile(path):
            continue
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_SYMBOLS:
            call = getattr(lib, symbol.format(verb), None)
            if call is not None:
                call.argtypes, call.restype = _OPENBLAS_SIGNATURES[verb]
                calls.append(call)
                break
    return calls


_worker_provider: SnapshotProvider | None = None   # the one provider a pool worker serves


def _init_worker(cfg: RunConfig, cache_dir: str) -> None:
    global _worker_provider
    for set_threads in _openblas_thread_calls("set"):
        set_threads(1)
    # built once per worker, so the mesh and mass matrix are not assembled per point
    _worker_provider = SnapshotProvider(cfg, cache_dir)


def _solver_pool(cfg: RunConfig, cache_dir: str, jobs: int) -> ProcessPoolExecutor:
    """A pool of ``jobs`` worker processes, each limited to one BLAS thread and
    serving one SnapshotProvider of ``cfg`` that caches into ``cache_dir``.

    Warns once when no OpenBLAS is found to limit: the workers then keep the
    library's default threading and may oversubscribe the cores.  Workers
    load the same libraries as this process (forked, or importing this
    module), so the lookup here stands for theirs.
    """
    if not _openblas_thread_calls("set"):
        warnings.warn("no OpenBLAS library found; pool workers keep default BLAS threading")
    return ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(cfg, cache_dir)
    )


def _compute_and_cache(point: ParamPoint) -> None:
    # ensure() has ruled out a cache hit, and the parent reads the snapshot
    # back from disk, so the worker keeps nothing in memory
    _worker_provider._store(_worker_provider._compute(point))
