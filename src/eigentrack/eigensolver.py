"""Windowed generalized eigensolves and the per-point snapshot cache.

solve_window returns every eigenvalue of A u = lambda B u inside the window,
in ascending order, with B-orthonormal eigenvectors.  Completeness is
certified by inertia (spectrum slicing): by Sylvester's law, the number of
negative pivots of a symmetric LDL^T factorization of A - top*B is the number
of eigenvalues below the window top.  One Lanczos solve then asks for
exactly that many pairs plus one, and the result must bracket the top
between its last counted and its extra eigenvalue.  A and B are SPD, so the
spectrum is positive and every eigenvalue below the top is counted.  The
solve is shift-invert about 0 in standard form (Ericsson & Ruhe, 1980):
with LAPACK's band Cholesky factorization A = U^T U, ARPACK's mode 1 finds
the largest eigenvalues 1/lambda of the symmetric operator U^-T B U^-1,
which costs two triangular band solves and one product with B per step and
no B-inner products.  U is taken in A's given order: the structured mesh
numbers its dofs row by row, so A is banded with half-bandwidth mesh_n - 1.
An A that is not positive definite fails that factorization and raises
SolverError.  ARPACK stops at _ARPACK_TOL, well below the residual check.
Small problems fall back to a dense solve of the full spectrum.

The work that depends on the sparsity pattern alone is done once per
pattern (Davis, Direct Methods for Sparse Linear Systems, 2006), in a
``SolvePlan``: SuperLU's own fill-reducing order of the pattern, the
permuted pattern and the gather map into it, the band storage positions of
the upper triangle, and the start vector.  Every point's A and the mass
matrix share the stencil pattern of ``fem.operators(mesh_n)``, whose plan
``_stencil_plan(mesh_n)`` builds on first use and keeps, once per process.
The provider passes it to ``solve_window`` for a mesh of more than
``_DENSE_CUTOFF`` dofs, the only one solved sparsely.  Each such solve is
then numeric only: the values of A - top*B on the shared pattern, one
gather, one LU in that order, and one scatter into the band array.  A call
without a plan builds one on the union of A's and B's patterns.

Snapshots are cached on disk, one file per grid point, keyed by the exact
dyadic reference coordinates and guarded by a fingerprint of everything that
determines the solve (mesh, coefficient family, window, box, the solver's
start vector seed, dense cutoff, tolerances and inertia-shift margin, and a
format number raised whenever the solver's output bits or the file layout
change).  A file is named ``snap_<key>_<first 8 hex of the fingerprint>.npz``,
so configs that share a cache directory keep their own files; the stored
fingerprint is still checked on every read.
``read_record`` and ``write_record`` serve every file of the cache
directory, refinement's level and reference records included: writes are
atomic, and a file that is unreadable, stale or malformed is warned about
and recomputed.  A file is one JSON header line, the fingerprint and each
array's name, ``dtype.str``, shape, memory order and CRC-32, followed by
each array's raw bytes (``RecordFile``): a reader parses one short line
and reads only the arrays it asks for, each checked against its CRC.  The
``.npz`` suffix of the names is kept from the zip layout that came before;
the benchmark's warm gate finds snapshot files by it.
A snapshot is malformed when its arrays have another dtype or shape than a
solve returns, or its eigenvalues are not all finite, ascending and inside
the window.

A warm run reads no eigenvector array: only matching uses eigenvectors,
and a replayed record does not run it.  One reader, ``_load``, serves
every snapshot file: ``get`` reads the whole file in one open, and
``ensure`` and ``SnapshotProvider.eigenvalues`` read its fingerprint and
eigenvalues and take the eigenvectors' dtype and shape from the header,
with the same checks.  ``get`` and ``eigenvalues`` share one
path, ``_fetch``: the memo (eigenvalues only), a pending pool solve, the
cache file, a solve.  The provider memoizes the eigenvalues that ``_load``
accepts or ``_solve`` computes, and keeps no eigenvector array;
``refinement.check_pairs`` holds each snapshot only until the last
subinterval that matches it.

Snapshot solves run on one OpenBLAS thread: a process's first solve or
first pool start sets every OpenBLAS above one thread to one, and nothing
sets it back, so a solve gives the same bits in this process and in a
pool worker.  In a forked process any thread-count call restarts
OpenBLAS's thread pool, whose new threads busy-wait about 0.1 s; workers
that inherit a count of one make no such call, so ``jobs`` workers occupy
``jobs`` cores from their first solve.  Only the provider decides where a
point is solved: inside a ``SnapshotProvider.solving`` block of more than
one job, ``ensure`` submits every missing point to the block's workers
and returns at once, and ``get`` and ``eigenvalues`` wait for a point's
pending solve, so this process solves nothing and the matching reads
each snapshot as soon as a worker has stored it.  Elsewhere, ``get``
and ``eigenvalues`` solve a missing point in this process.  A pool task
builds its own provider from its arguments, and each worker builds the
stencils and the plan on its first solve, as a serial process does.

scipy's submodules are imported on use, in the functions that assemble,
solve or match, the process pool's modules when a pool starts, and the
stencils and mass matrix are built on first use: a run that only loads
snapshots and replays records imports no scipy submodule and no pool module.
The OpenBLAS thread controls are therefore looked up only after
``_openblas_thread_controls`` has imported the solver's modules, which map
scipy's own OpenBLAS next to numpy's; a lookup before that import would miss
scipy's library and leave its band solves on the default thread count.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import json
import math
import os
import tempfile
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from eigentrack.config import RunConfig, eval_coefficient
from eigentrack.fem import Mesh, assemble_stiffness, operators
from eigentrack.grid import ParamPoint

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

    import scipy.sparse as sp

_V0_SEED = 20230517          # fixed Lanczos start vector: runs must be reproducible
_DENSE_CUTOFF = 200
_RESIDUAL_TOL = 1e-8
_NORM_TOL = 1e-10
_TOP_MARGIN = 1e-8           # relative margin of the inertia shift above the window top
_ARPACK_TOL = 1e-10          # ARPACK's stopping tolerance, kept well below _RESIDUAL_TOL
_CACHE_FORMAT = 6            # raised whenever the solver's output bits or the file layout change


class SolverError(RuntimeError):
    """Eigensolver breakdown or an unverifiable window."""


class CacheMismatch(Exception):
    """A readable cache file whose contents do not fit what it must hold."""


class _Member(NamedTuple):
    """One array of a ``RecordFile``, as its header describes it."""

    dtype: np.dtype
    shape: tuple[int, ...]
    fortran_order: bool
    crc32: int
    offset: int   # of its first byte in the file

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize


class RecordFile:
    """An open cache file in the layout ``SnapshotProvider.write_record`` writes.

    The first line is a JSON header, ``{"fingerprint": <str>, "arrays":
    [[name, dtype.str, shape, fortran_order, crc32], ...]}``; each array's
    raw bytes follow in that order, in Fortran order where ``fortran_order``
    is true and in C order otherwise, as in ``.npy``.  Opening reads the
    header line alone and raises ValueError unless it is well typed, names
    no object dtype and describes exactly the file's length.  ``members``
    gives each array's dtype and shape; ``record[name]`` reads that array's
    bytes and raises ValueError unless they match their CRC-32.
    """

    def __init__(self, fh):
        self._fh = fh
        line = fh.readline()
        header = json.loads(line)
        if not (
            isinstance(header, dict)
            and isinstance(header.get("fingerprint"), str)
            and isinstance(header.get("arrays"), list)
        ):
            raise ValueError("header is not a fingerprint and a list of arrays")
        self.fingerprint: str = header["fingerprint"]
        self.members: dict[str, _Member] = {}
        offset = len(line)
        for entry in header["arrays"]:
            if not (
                isinstance(entry, list) and len(entry) == 5
                and all(isinstance(x, str) for x in entry[:2])
                and isinstance(entry[2], list)
                and all(type(n) is int and n >= 0 for n in entry[2])
                and type(entry[3]) is bool and type(entry[4]) is int
            ):
                raise ValueError(f"header entry {entry!r} is not [name, dtype, shape, order, crc]")
            name, dtype, shape, fortran_order, crc32 = entry
            try:
                parsed = np.dtype(dtype)
            except TypeError as exc:
                raise ValueError(f"array {name} has dtype {dtype!r}: {exc}") from None
            if parsed.hasobject or parsed.str != dtype:
                raise ValueError(f"array {name} has dtype {dtype!r}, not a plain data type")
            member = _Member(parsed, tuple(shape), fortran_order, crc32, offset)
            self.members[name] = member
            offset += member.nbytes
        size = os.fstat(fh.fileno()).st_size
        if size != offset:
            raise ValueError(f"has {size} bytes where its header describes {offset}")

    def __getitem__(self, name: str) -> np.ndarray:
        member = self.members[name]
        flat = np.empty(math.prod(member.shape), member.dtype)
        self._fh.seek(member.offset)
        if self._fh.readinto(flat) != member.nbytes or zlib.crc32(flat) != member.crc32:
            raise ValueError(f"array {name} does not match its CRC-32")
        return flat.reshape(member.shape, order="F" if member.fortran_order else "C")


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
    import scipy.linalg

    w, v = scipy.linalg.eigh(np.asarray(A.todense()), np.asarray(B.todense()))
    keep = (w >= window[0]) & (w <= window[1])
    return w[keep], v[:, keep]


class SolvePlan:
    """The symbolic work of ``solve_window`` on one symmetric CSR pattern
    ``(indptr, indices)``, which must hold the diagonal: done once and
    shared by every point whose A and B are stored on the pattern.

    Arrays index the pattern's CSR data.  ``gather`` lists, in CSC order,
    the entries of ``S[q][:, q]`` (``q`` the inverse of SuperLU's
    ``MMD_AT_PLUS_A`` order of the pattern), whose row indices and column
    pointers are ``lu_indices`` and ``lu_indptr``.  ``upper`` lists the upper
    triangle's entries and ``band`` their flat positions in LAPACK's upper
    band storage of half-bandwidth ``kd``.  ``v0`` is the Lanczos start
    vector, drawn from ``_V0_SEED``.  Every array is read-only.

    The order is the one SuperLU itself computes for a symmetric-mode
    factorization of any matrix on the pattern, elimination tree postorder
    included; it is taken from one factorization of a diagonally dominant
    matrix on it.  A matrix permuted by that order and factored in
    ``NATURAL`` order is eliminated in the same order and with the same fill
    as the unpermuted one in ``MMD_AT_PLUS_A`` order; its rows are numbered
    otherwise, so SuperLU sums in another order, and its pivots agree with
    those to rounding (about 1e-12 relative on the stencils).
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        import scipy.sparse as sp

        n = len(indptr) - 1
        rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
        cols = np.asarray(indices, dtype=np.int32)
        probe = np.where(rows == cols, np.diff(indptr)[rows], -1.0)
        order = _symmetric_lu(
            sp.csc_matrix((probe, cols, indptr), shape=(n, n)), "MMD_AT_PLUS_A"
        ).perm_c                               # old index i -> position order[i]
        new_rows, new_cols = order[rows], order[cols]
        self.gather = np.lexsort((new_rows, new_cols)).astype(np.int32)
        self.lu_indices = new_rows[self.gather]
        self.lu_indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(new_cols, minlength=n), out=self.lu_indptr[1:])
        self.upper = np.flatnonzero(cols >= rows).astype(np.int32)
        rows, cols = rows[self.upper], cols[self.upper]
        self.kd = kd = int(np.max(cols - rows))
        # A[i, j] at ab[kd + i - j, j] of a (kd + 1, n) array in Fortran order
        self.band = (kd + rows - cols + (kd + 1) * cols.astype(np.intp)).astype(np.int32)
        self.v0 = np.random.default_rng(_V0_SEED).standard_normal(n)
        for arr in (self.gather, self.lu_indices, self.lu_indptr, self.upper, self.band, self.v0):
            arr.flags.writeable = False


@functools.lru_cache(maxsize=4)
def _stencil_plan(mesh_n: int) -> SolvePlan:
    """This process's ``SolvePlan`` of the ``fem.operators(mesh_n)`` stencil
    pattern, which every point's stiffness matrix and the mass matrix share."""
    indptr, indices, _ = operators(mesh_n).stencils
    return SolvePlan(indptr, indices)


def _union_plan(A: sp.spmatrix, B: sp.spmatrix):
    """``(plan, a, b)``: a plan of the union of A's and B's patterns, explicit
    zeros kept, and the data of A and B on it."""
    import scipy.sparse as sp

    A, B = sp.coo_matrix(A), sp.coo_matrix(B)
    ij = (np.concatenate([A.row, B.row]), np.concatenate([A.col, B.col]))
    a = sp.csr_matrix((np.concatenate([A.data, np.zeros(B.nnz)]), ij), shape=A.shape)
    b = sp.csr_matrix((np.concatenate([np.zeros(A.nnz), B.data]), ij), shape=A.shape)
    return SolvePlan(a.indptr, a.indices), a.data, b.data


def _symmetric_lu(S: sp.csc_matrix, permc_spec: str):
    """SuperLU factorization of symmetric S with symmetric (diagonal) pivoting.

    Row and column orders are equal, so S = P^T L U P with U = D L^T, and
    the signs of ``U.diagonal()`` give the inertia of S.  Supernodes are
    not relaxed and panels are one column wide: on the stencil patterns
    that factors a 2D point's S about 0.8 ms faster, with the same order.
    """
    import scipy.sparse.linalg as spla

    try:
        lu = spla.splu(
            S,
            permc_spec=permc_spec,
            diag_pivot_thresh=0.0,
            relax=1,
            panel_size=1,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverError(f"symmetric factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError("symmetric factorization pivoted off the diagonal")
    return lu


def _band_cholesky(plan: SolvePlan, a: np.ndarray) -> np.ndarray:
    """The upper band factor U of A = U^T U, from LAPACK's band Cholesky.

    ``a`` is the data of a symmetric A on ``plan``'s pattern; its upper
    triangle is factored in the given order.  U is returned in LAPACK's
    upper band storage, as ``dtbtrs`` takes it.  Raises SolverError when A
    is not positive definite.
    """
    import scipy.linalg

    n = len(plan.v0)
    ab = np.zeros((plan.kd + 1) * n)
    ab[plan.band] = a[plan.upper]
    factor, info = scipy.linalg.lapack.dpbtrf(
        ab.reshape((plan.kd + 1, n), order="F"), overwrite_ab=1
    )
    if info != 0:
        raise SolverError(
            f"A is not positive definite: its band Cholesky factorization breaks down "
            f"at the leading minor of order {info}"
        )
    return factor


def solve_window(
    A: sp.spmatrix, B: sp.spmatrix, window: tuple[float, float], plan: SolvePlan | None = None
):
    """All eigenpairs of A u = lambda B u with lambda in the window.

    Returns (eigenvalues, eigenvectors) with ascending eigenvalues and
    B-orthonormal eigenvector columns; both empty when the window contains
    no eigenvalue.  Raises SolverError when the computed pairs disagree with
    the inertia count.

    ``plan`` is the ``SolvePlan`` of the CSR pattern A and B are both stored
    on, as ``_stencil_plan(mesh_n)`` is for ``fem.operators(mesh_n)``'s;
    ValueError if their shapes or entry counts do not fit it.  Without one,
    a plan of the union of their patterns is built.
    """
    import scipy.linalg
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    lam_min, lam_max = window
    n = A.shape[0]
    if n != B.shape[0]:
        raise ValueError("A and B must have the same dimension")
    if plan is not None and not (len(plan.v0) == n and len(plan.gather) == A.nnz == B.nnz):
        raise ValueError("A and B are not stored on the plan's pattern")
    if n <= _DENSE_CUTOFF:
        return _dense_window(A, B, window)

    top = lam_max + _TOP_MARGIN * max(1.0, abs(lam_max))
    plan, a, b = _union_plan(A, B) if plan is None else (plan, A.data, B.data)
    s = a - top * b
    S = sp.csc_matrix((s[plan.gather], plan.lu_indices, plan.lu_indptr), shape=(n, n))
    count = int(np.count_nonzero(_symmetric_lu(S, "NATURAL").U.diagonal() < 0))
    if count == 0:
        return np.empty(0), np.empty((n, 0))
    if count + 1 >= n - 1:
        return _dense_window(A, B, window)

    # with y = U u, A u = lambda B u becomes C y = y / lambda for the symmetric
    # C = U^-T B U^-1.  dtbtrs reports only illegal arguments and zero
    # diagonals, which f2py and a successful dpbtrf rule out.
    U = _band_cholesky(plan, a)

    def apply_c(y):
        x = scipy.linalg.lapack.dtbtrs(U, y, trans="N")[0]
        return scipy.linalg.lapack.dtbtrs(U, B @ x, trans="T", overwrite_b=1)[0]

    op = spla.LinearOperator((n, n), matvec=apply_c, dtype=float)
    try:
        theta, y = spla.eigsh(op, k=count + 1, which="LA", v0=plan.v0, tol=_ARPACK_TOL)
    except Exception as exc:  # ARPACK breakdown
        raise SolverError(f"standard-form eigensolve failed: {exc}") from exc
    w = 1.0 / theta
    order = np.argsort(w)
    w = w[order]
    if len(w) != count + 1 or not w[count - 1] < top < w[count]:
        raise SolverError(
            f"inertia counts {count} eigenvalues below {top:.10g}, but the eigensolve "
            f"returned {int(np.count_nonzero(w < top))} of {len(w)} below it"
        )
    keep = np.flatnonzero((w >= lam_min) & (w <= lam_max))
    if len(keep) == 0:   # scipy's dtbtrs corrupts the heap on an empty right-hand side
        return np.empty(0), np.empty((n, 0))
    # U^-1 y is A-orthonormal, so its squared B-norm is 1 / lambda.  dtbtrs
    # solves column by column, so only the kept columns are mapped back.
    v = scipy.linalg.lapack.dtbtrs(U, y[:, order[keep]], trans="N")[0] * np.sqrt(w[keep])
    return w[keep], v


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
            "format": _CACHE_FORMAT,
            "solver": {
                "v0_seed": _V0_SEED,
                "dense_cutoff": _DENSE_CUTOFF,
                "residual_tol": _RESIDUAL_TOL,
                "norm_tol": _NORM_TOL,
                "top_margin": _TOP_MARGIN,
                "arpack_tol": _ARPACK_TOL,
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
        self.fingerprint = config_fingerprint(cfg)
        self.cache_dir = Path(cache_dir if cache_dir is not None else cfg.cache_dir)
        self._eigenvalues: dict[ParamPoint, np.ndarray] = {}   # every point seen
        self._scope_jobs: int | None = None   # worker count of the open solving() block
        self._pool: ProcessPoolExecutor | None = None
        self._pending: dict[ParamPoint, Future] = {}   # submitted solves not yet waited for

    # built on first use, once per process: a run that only loads snapshots
    # builds the mesh, which is its size alone, and never the mass
    @property
    def mesh(self) -> Mesh:
        return operators(self.cfg.mesh_n).mesh

    @property
    def mass(self) -> sp.csr_matrix:
        return operators(self.cfg.mesh_n).mass

    # -- cache ------------------------------------------------------------

    def _path(self, point: ParamPoint) -> Path:
        return self.cache_dir / f"snap_{point.key()}_{self.fingerprint[:8]}.npz"

    @staticmethod
    def read_record(path: Path, fingerprint: str, read, what: str):
        """``read(record)`` of the ``RecordFile`` at ``path``, or None when it is missing.

        A file that cannot be read, carries another fingerprint, or whose
        contents ``read`` rejects by raising CacheMismatch is warned about
        and answers None, so the caller recomputes and rewrites it.
        """
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return None
        try:
            with fh:
                record = RecordFile(fh)
                if record.fingerprint != fingerprint:
                    raise CacheMismatch(
                        f"has fingerprint {record.fingerprint}, expected {fingerprint}"
                    )
                return read(record)
        except CacheMismatch as exc:
            warnings.warn(f"{what} {path} {exc}; recomputing")
        except (OSError, ValueError, KeyError) as exc:
            warnings.warn(f"unreadable {what} {path} ({exc}); recomputing")
        return None

    @staticmethod
    def write_record(path: Path, fingerprint: str, **arrays) -> None:
        """Write ``fingerprint`` and ``arrays`` to ``path`` as a ``RecordFile``
        reads them, atomically: a temporary file in the same directory, then
        ``os.replace``.  Each array keeps its memory order, as ``.npy`` keeps it."""
        entries, blobs = [], []
        for name, arr in arrays.items():
            arr = np.asarray(arr)
            fortran_order = arr.flags.f_contiguous and not arr.flags.c_contiguous
            # a C-ordered view of the bytes to write: no copy of a contiguous array
            blob = arr.T if fortran_order else np.ascontiguousarray(arr)
            entries.append([name, arr.dtype.str, list(arr.shape), fortran_order, zlib.crc32(blob)])
            blobs.append(blob)
        header = json.dumps({"fingerprint": fingerprint, "arrays": entries}).encode() + b"\n"
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header)
                for blob in blobs:
                    fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _load(self, point: ParamPoint, vectors: bool = True) -> Snapshot | np.ndarray | None:
        """The cached snapshot at ``point``, or None when it is missing or rejected.

        Without ``vectors`` only its eigenvalues are returned: the
        eigenvectors' dtype and shape come from the file's header, and their
        data is not read.  Either way the file is rejected unless its arrays
        have the dtype and shape a solve of this config returns and its
        eigenvalues are all finite, ascending and inside the window; the
        eigenvalues of an accepted file are memoized.
        """

        def read(data: RecordFile):
            w = data["eigenvalues"]
            header = data.members["eigenvectors"]
            dtype, shape = header.dtype, header.shape
            if w.dtype != np.float64 or dtype != np.float64:
                raise CacheMismatch(
                    f"has eigenvalues of dtype {w.dtype} and eigenvectors of dtype "
                    f"{dtype}, expected float64"
                )
            n_dofs = self.mesh.n_interior
            if w.ndim != 1 or shape != (n_dofs, *w.shape):
                raise CacheMismatch(
                    f"has eigenvalues of shape {w.shape} and eigenvectors of shape "
                    f"{shape}, expected (n,) and ({n_dofs}, n)"
                )
            lo, hi = self.cfg.window
            # written so that NaN fails: every comparison with NaN is False
            if not (np.all((w >= lo) & (w <= hi)) and np.all(w[1:] >= w[:-1])):
                raise CacheMismatch(
                    f"has eigenvalues that are not all finite, ascending and inside the "
                    f"window [{lo}, {hi}]"
                )
            v = data["eigenvectors"] if vectors else None
            self._eigenvalues[point] = w
            return Snapshot(point, w, v, self.fingerprint) if vectors else w

        return self.read_record(self._path(point), self.fingerprint, read, "snapshot cache")

    # -- solving ----------------------------------------------------------

    def _compute(self, point: ParamPoint) -> Snapshot:
        cmat = eval_coefficient(self.cfg.coefficient, point.phys)
        A = assemble_stiffness(self.mesh, cmat)
        _one_blas_thread()
        plan = _stencil_plan(self.cfg.mesh_n) if self.mesh.n_interior > _DENSE_CUTOFF else None
        w, v = solve_window(A, self.mass, self.cfg.window, plan)
        v, Bv = b_normalize(v, self.mass)
        _check_pairs(A, w, v, Bv)
        return Snapshot(point, w, v, self.fingerprint)

    def _solve(self, point: ParamPoint) -> Snapshot:
        """Solve ``point``, store it in the cache and memoize its eigenvalues."""
        snap = self._compute(point)
        w, v = snap.eigenvalues, snap.eigenvectors
        self.write_record(self._path(point), snap.fingerprint, eigenvalues=w, eigenvectors=v)
        self._eigenvalues[point] = w
        return snap

    def _wait(self, point: ParamPoint) -> None:
        """Wait for the pool's pending solve of ``point``, if there is one.

        A failed solve cancels the queued ones and raises SolverError, chained
        from the worker's exception.
        """
        fut = self._pending.pop(point, None)
        exc = None if fut is None else fut.exception()
        if exc is not None:
            self._pending = {p: f for p, f in self._pending.items() if not f.cancel()}
            raise SolverError(f"snapshot at {point.key()} failed: {exc}") from exc

    def _fetch(self, point: ParamPoint, vectors: bool) -> Snapshot | np.ndarray:
        """The snapshot at ``point``, or without ``vectors`` its eigenvalues alone.

        Eigenvalues come from the memo every read and solve fills.  Else any
        solve of the point pending in the pool is waited for; then the point
        is read from its cache file, in one read (without ``vectors`` only
        its eigenvalues and eigenvector header), or solved and stored.
        """
        if not vectors and point in self._eigenvalues:
            return self._eigenvalues[point]
        self._wait(point)
        found = self._load(point, vectors)
        if found is not None:
            return found
        snap = self._solve(point)
        return snap if vectors else snap.eigenvalues

    def get(self, point: ParamPoint) -> Snapshot:
        """The snapshot at ``point``, as ``_fetch`` finds it.  Only its eigenvalues
        are memoized: the caller holds the eigenvectors for as long as it needs them."""
        return self._fetch(point, vectors=True)

    def eigenvalues(self, point: ParamPoint) -> np.ndarray:
        """The eigenvalues at ``point``, without reading its eigenvectors."""
        return self._fetch(point, vectors=False)

    @contextlib.contextmanager
    def solving(self, jobs: int):
        """A block whose ``ensure`` calls share one pool of ``jobs`` workers.

        Reentrant: a nested block joins the outermost one and must ask for
        the same ``jobs``.  The pool starts on the first ``ensure`` that has
        work for it.  When the outermost block exits normally it waits for
        every pending solve, so every ensured point is stored; on an
        exception it cancels the queued ones.  Then it shuts the pool down.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        if self._scope_jobs is not None:
            if jobs != self._scope_jobs:
                raise ValueError(
                    f"a solving block of {self._scope_jobs} jobs is open; cannot nest {jobs}"
                )
            yield
            return
        self._scope_jobs = jobs
        try:
            yield
            for point in list(self._pending):
                self._wait(point)
        finally:
            if self._pool is not None:
                self._pool.shutdown(cancel_futures=True)
            self._scope_jobs = self._pool = None
            self._pending.clear()

    def ensure(self, points) -> None:
        """Submit every missing one of ``points`` to the workers of the open
        ``solving`` block of more than one job, and return at once, before
        they are solved; without such a block, return at once.

        A point already pending is not submitted again.  A cache hit is
        checked and read as ``eigenvalues`` reads it, so no eigenvector array
        is loaded here.  A failed solve raises SolverError at the first
        ``get`` or ``eigenvalues`` of its point, or when the block exits, and
        cancels the queued ones.
        """
        if (self._scope_jobs or 1) == 1:
            return
        missing = [
            p for p in sorted(set(points))
            if not (p in self._pending or p in self._eigenvalues)
            and self._load(p, vectors=False) is None
        ]
        if missing and self._pool is None:
            self._pool = _solver_pool(self._scope_jobs)
        for p in missing:
            self._pending[p] = self._pool.submit(
                _compute_and_cache, self.cfg, str(self.cache_dir), p
            )


# OpenBLAS thread getters and setters, as exported by the scipy-openblas
# wheels (64-bit interface in numpy, 32-bit in scipy) and by plain builds.
_OPENBLAS_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads",
)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """``(get_num_threads, set_num_threads)`` of each OpenBLAS in this process.

    Imports the solver's scipy modules first, so that scipy's own OpenBLAS is
    mapped, then finds the libraries in the process's memory map.  Both
    happen once per process (a forked child inherits the imports and the
    lookup along with the libraries); the tuple is empty where
    /proc/self/maps does not exist.
    """
    import scipy.linalg
    import scipy.sparse.linalg  # noqa: F401

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path).lower() or not os.path.isfile(path):
            continue
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_SYMBOLS:
            get, set_ = (getattr(lib, symbol.format(verb), None) for verb in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


def _one_blas_thread() -> None:
    """Set every OpenBLAS above one thread to one thread, for good.

    A library already at one thread is not set at all: in a forked process
    any thread-count call restarts OpenBLAS's thread pool, and its new
    threads busy-wait about 0.1 s.  A pool worker forked after this call
    inherits a count of one, so its solves make no call.
    """
    for get_threads, set_threads in _openblas_thread_controls():
        if get_threads() != 1:
            set_threads(1)


def _solver_pool(jobs: int) -> ProcessPoolExecutor:
    """A pool of ``jobs`` worker processes that solve snapshots.

    This process is set to one BLAS thread first, so forked workers inherit
    it and the solver's scipy modules, which the thread-control lookup
    imports.  Warns once when no OpenBLAS is found to limit: the workers then
    keep the library's default threading and may oversubscribe the cores.
    Workers load the same libraries as this process (forked, or importing
    this module), so the lookup here stands for theirs.  Each worker builds
    the stencils and the solve plan on its first solve, as a serial process
    does, to the same bits.
    """
    from concurrent.futures import ProcessPoolExecutor

    if not _openblas_thread_controls():
        warnings.warn("no OpenBLAS library found; pool workers keep default BLAS threading")
    _one_blas_thread()
    return ProcessPoolExecutor(max_workers=jobs)


def _compute_and_cache(cfg: RunConfig, cache_dir: str, point: ParamPoint) -> None:
    """A pool task: solve ``point`` of ``cfg`` and store it in ``cache_dir``,
    returning nothing and keeping nothing once it returns (the parent reads
    the file back)."""
    SnapshotProvider(cfg, cache_dir)._solve(point)
