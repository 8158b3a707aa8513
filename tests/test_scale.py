"""Scale equivariance: an exact whole-pipeline oracle that needs no reference.

Multiply every coefficient entry and the window by 4 and divide ``w1`` by 4.
Every pencil eigenvalue then scales by 4 and the eigenvectors stay the same,
so ``w1 * |dlambda|``, the one absolute term of a cost entry, is unchanged;
the eigenvector term and the cluster test's relative gaps do not depend on
scale.  The grid, every matching and verdict and the labels must therefore
come out the same, bit for bit.  4 is a power of two, so the scaled solve
keeps every eigenvector bit and gives exactly 4 times each eigenvalue.
"""
import re

import pytest

from eigentrack.config import parse_config
from eigentrack.eigensolver import SnapshotProvider
from eigentrack.propagation import build_match_graph, default_root, propagate_labels
from eigentrack.refinement import run_adaptive
from tests.conftest import REFERENCE_JOBS, bundled_config_text

ALPHA = 4


def scaled_config(name: str):
    """The bundled ``name`` with its coefficients and window times ALPHA and
    ``w1`` divided by ALPHA."""
    text = bundled_config_text(name)
    cfg = parse_config(text)
    text = re.sub(r"^(c[12][12]) = (.*)$", rf"\1 = {ALPHA}*(\2)", text, flags=re.M)
    lo, hi = cfg.window
    text = re.sub(r"^window = .*$", f"window = {ALPHA * lo!r}, {ALPHA * hi!r}", text, flags=re.M)
    text = re.sub(r"^w1 = .*$", f"w1 = {cfg.w1 / ALPHA!r}", text, flags=re.M)
    scaled = parse_config(text)
    assert all(source.startswith(f"{ALPHA}*(") for source in scaled.coefficient.sources)
    assert (scaled.window, scaled.w1) == ((ALPHA * lo, ALPHA * hi), cfg.w1 / ALPHA)
    return scaled


def decisions(state) -> list:
    """Each checked subinterval's endpoints, level, assignment and report,
    with the total cost as its exact bits."""
    return [
        (s.a, s.b, s.level, s.assignment.sigma, s.assignment.total_cost.hex(), s.report)
        for s in state.subintervals
    ]


@pytest.mark.parametrize("dim", [1, 2])
def test_scaled_run_makes_the_same_decisions(dim, request, tmp_path):
    base = request.getfixturevalue(f"run_{dim}d")
    base_labeling = request.getfixturevalue(f"labeling_{dim}d")
    cfg = scaled_config(f"paper_{dim}d.cfg")
    state = run_adaptive(cfg, provider=SnapshotProvider(cfg, tmp_path), jobs=REFERENCE_JOBS)

    assert state.terminated == base.terminated
    assert [ls.points for ls in state.levels] == [ls.points for ls in base.levels]
    assert decisions(state) == decisions(base)
    for point in sorted(base.points):
        want, got = base.provider.get(point), state.provider.get(point)
        assert got.eigenvalues.tobytes() == (ALPHA * want.eigenvalues).tobytes(), point.key()
        assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes(), point.key()
    labeling = propagate_labels(build_match_graph(state), default_root(state.points))
    assert labeling.labels == base_labeling.labels
