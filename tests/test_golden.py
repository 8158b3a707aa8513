"""The bundled runs' output bits against the digests in tests/golden.json.

The digests hold only in the environment they were recorded in; in any
other the tests skip and say so, and never compare.  ``tests/golden.py``
re-records them.
"""
import json
import shutil

import numpy as np
import pytest

from eigentrack.eigensolver import SnapshotProvider
from tests.conftest import copy_snapshots
from tests.golden import (
    GOLDEN,
    REFERENCE_POINTS,
    config_digests,
    environment,
    file_digests,
    mismatches,
    snapshot_digests,
)

RECORDED = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module", autouse=True)
def same_environment():
    here = environment()
    if here != RECORDED["environment"]:
        pytest.skip(
            f"the digests in {GOLDEN.name} were recorded under {RECORDED['environment']} "
            f"and are not comparable with this environment, {here}; re-record them with "
            f"tests/golden.py"
        )


@pytest.fixture(scope="module")
def digests_1d(run_1d, labeling_1d, reference_1d, tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_reports_1d")
    return config_digests(run_1d, labeling_1d, reference_1d, 129, out), out


@pytest.mark.parametrize("dim", [1, 2])
def test_outputs_match_recorded_digests(dim, request, tmp_path):
    name = f"paper_{dim}d.cfg"
    if dim == 1:
        got, _ = request.getfixturevalue("digests_1d")
    else:
        got = config_digests(
            request.getfixturevalue("run_2d"),
            request.getfixturevalue("labeling_2d"),
            request.getfixturevalue("reference_2d"),
            REFERENCE_POINTS[name],
            tmp_path,
        )
    assert mismatches(RECORDED["digests"][name], got) == []


def test_one_ulp_in_one_eigenvalue_is_caught(run_1d, reference_1d, cfg_1d, provider_1d, tmp_path):
    points = set(run_1d.points) | set(reference_1d.labels)
    cache = copy_snapshots(provider_1d.cache_dir, tmp_path)
    planted = SnapshotProvider(cfg_1d, cache_dir=cache)
    snap = planted.get(max(points))
    w = snap.eigenvalues.copy()
    w[0] = np.nextafter(w[0], np.inf)
    planted.write_record(
        planted._path(snap.point), snap.fingerprint, eigenvalues=w, eigenvectors=snap.eigenvectors
    )
    got = snapshot_digests(SnapshotProvider(cfg_1d, cache_dir=cache), points)
    want = RECORDED["digests"]["paper_1d.cfg"]
    assert mismatches({k: want[k] for k in got}, got) == ["snapshots/eigenvalues"]


def test_one_changed_report_byte_is_caught(digests_1d, tmp_path):
    _, out = digests_1d
    reports = sorted(shutil.copytree(out, tmp_path / "reports").iterdir())
    path = tmp_path / "reports" / "verifications.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    got = file_digests("reports", reports)
    want = RECORDED["digests"]["paper_1d.cfg"]
    assert mismatches({k: want[k] for k in got}, got) == ["reports/verifications.csv"]
