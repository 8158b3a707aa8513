"""Recorded sha256 digests of the bundled runs' output bits, and the re-record script.

For each bundled config, ``config_digests`` hashes:

- the eigenvalue bytes and the eigenvector bytes of every snapshot of the
  adaptive run and of its dense reference, in point order;
- every report file that ``emit_reports`` writes, the error table included;
- the outcomes of each level record and of the reference record.

``tests/golden.json`` holds these digests together with the environment
they were recorded in: the numpy and scipy versions and each OpenBLAS's
configuration and the core it dispatched to.  The OpenBLAS wheels are
``DYNAMIC_ARCH`` builds, so the same wheel runs other kernels on another
CPU; digests recorded elsewhere are not comparable.

Run ``PYTHONPATH=src python tests/golden.py`` from the repository root to
rewrite ``tests/golden.json`` from a fresh run in a temporary directory.
Only a change that moves output bits on purpose does so.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden.json")
REFERENCE_POINTS = {"paper_1d.cfg": 129, "paper_2d.cfg": 17}   # per axis


def environment() -> dict:
    """numpy, scipy and every OpenBLAS mapped once the solver's modules are loaded."""
    import scipy
    import scipy.linalg
    import scipy.sparse.linalg  # noqa: F401   maps scipy's own OpenBLAS

    libraries = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh})
    except OSError:
        paths = []
    for path in paths:
        if "openblas" not in os.path.basename(path).lower() or not os.path.isfile(path):
            continue
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            corename = getattr(lib, f"{prefix}get_corename{suffix}", None)
            if config is not None and corename is not None:
                config.argtypes = corename.argtypes = []
                config.restype = corename.restype = ctypes.c_char_p
                libraries.append({"config": config().decode(), "corename": corename().decode()})
                break
    return {"numpy": np.__version__, "scipy": scipy.__version__, "openblas": libraries}


def snapshot_digests(provider, points) -> dict[str, str]:
    """One digest over the eigenvalues and one over the eigenvectors of ``points``."""
    values, vectors = hashlib.sha256(), hashlib.sha256()
    for p in sorted(points):
        snap = provider.get(p)
        for h, arr in ((values, snap.eigenvalues), (vectors, snap.eigenvectors)):
            h.update(f"{p.key()} {arr.dtype.str} {arr.shape}\n".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return {"snapshots/eigenvalues": values.hexdigest(), "snapshots/eigenvectors": vectors.hexdigest()}


def file_digests(prefix: str, paths) -> dict[str, str]:
    return {f"{prefix}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def record_digests(provider, stems) -> dict[str, str]:
    """The digest of the ``outcomes`` array of each of ``provider``'s records
    ``stems``, found through ``refinement.record_name``, read through
    ``read_record`` under the fingerprint on its header line and keyed
    ``records/<stem>.npz``."""
    from eigentrack.eigensolver import RecordFile
    from eigentrack.refinement import record_name

    out = {}
    for stem in stems:
        path = provider.cache_dir / record_name(provider, stem)
        with open(path, "rb") as fh:
            fingerprint = RecordFile(fh).fingerprint
        outcomes = provider.read_record(path, fingerprint, lambda data: data["outcomes"], "record")
        if outcomes is None:
            raise ValueError(f"record {path} is unreadable")
        out[f"records/{stem}.npz"] = hashlib.sha256(outcomes.tobytes()).hexdigest()
    return out


def config_digests(state, labeling, reference, points_per_axis: int, out_dir: Path) -> dict:
    """Every digest of one finished run and its reference; reports go to ``out_dir``."""
    from eigentrack.reports import emit_reports
    from eigentrack.surrogate import build_surrogate

    provider = state.provider
    surrogate = build_surrogate(labeling, provider)
    written = emit_reports(state, labeling, surrogate, out_dir, reference=reference)
    records = [f"level_{ls.level}" for ls in state.levels] + [f"reference_{points_per_axis}"]
    return {
        **snapshot_digests(provider, set(state.points) | set(reference.labels)),
        **file_digests("reports", sorted(written)),
        **record_digests(provider, records),
    }


def mismatches(want: dict, got: dict) -> list[str]:
    """The keys whose digests differ or that only one side has, sorted."""
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def fresh_digests(name: str, work: Path) -> dict:
    """``config_digests`` of a run of the bundled ``name`` from an empty cache."""
    from eigentrack.config import parse_config
    from eigentrack.eigensolver import SnapshotProvider
    from eigentrack.propagation import (
        build_match_graph,
        default_root,
        propagate_labels,
        reference_solution,
    )
    from eigentrack.refinement import run_adaptive

    cfg = parse_config((resources.files("eigentrack") / "configs" / name).read_text())
    provider = SnapshotProvider(cfg, cache_dir=work / "cache")
    jobs = min(2, os.cpu_count() or 1)
    state = run_adaptive(cfg, provider=provider, jobs=jobs)
    labeling = propagate_labels(build_match_graph(state), default_root(state.points))
    n = REFERENCE_POINTS[name]
    reference = reference_solution(cfg, n, provider=provider, jobs=jobs)
    return config_digests(state, labeling, reference, n, work / "reports")


def main() -> int:
    digests = {}
    for name in REFERENCE_POINTS:
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = fresh_digests(name, Path(tmp))
    record = {"environment": environment(), "digests": digests}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
