import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigentrack import propagation, reports
from eigentrack.reports import emit_reports, read_surrogate_csv
from eigentrack.surrogate import build_surrogate, eval_surrogate


@pytest.fixture(scope="module")
def emitted(run_1d, labeling_1d, provider_1d, reference_1d, tmp_path_factory):
    out = tmp_path_factory.mktemp("reports_1d")
    surrogate = build_surrogate(labeling_1d, provider_1d)
    written = emit_reports(run_1d, labeling_1d, surrogate, out, reference=reference_1d)
    return out, written, surrogate


class TestEmitReports:
    def test_expected_files(self, emitted):
        out, written, _ = emitted
        names = {p.name for p in written}
        for level in range(4):
            assert f"grid_level_{level}.csv" in names
            assert f"curves_level_{level}.csv" in names
        assert {"verifications.csv", "error_table.csv", "error_table.txt",
                "surrogate.csv", "run.json"} <= names

    def test_run_metadata(self, emitted):
        out, _, _ = emitted
        meta = json.loads((out / "run.json").read_text())
        assert meta["terminated"] == "converged"
        assert meta["final_level"] == 3
        assert [lvl["points_total"] for lvl in meta["levels"]] == [3, 5, 7, 8]
        assert [lvl["subintervals_checked"] for lvl in meta["levels"]] == [2, 4, 4, 2]
        assert [lvl["subintervals_uncertified"] for lvl in meta["levels"]] == [2, 2, 1, 0]

    def test_grid_csv_has_final_grid(self, emitted):
        out, _, _ = emitted
        lines = (out / "grid_level_3.csv").read_text().strip().split("\n")
        assert lines[0] == "level,ref_num_1,ref_log2_den_1,mu_1"
        assert len(lines) == 9
        xs = sorted(float(line.split(",")[3]) for line in lines[1:])
        assert xs == pytest.approx([0.4, 0.55, 0.625, 0.7, 0.775, 0.8125, 0.85, 1.0])

    def test_error_table_text_layout(self, emitted):
        out, _, _ = emitted
        text = (out / "error_table.txt").read_text()
        assert "Error By Level" in text
        assert "wrongly matched" in text.lower()
        last = text.strip().split("\n")[-1].split()
        assert last == ["3", "8", "0", "2", "0"]

    def test_surrogate_round_trip(self, emitted, labeling_1d, provider_1d, cfg_1d):
        out, _, surrogate = emitted
        parsed = read_surrogate_csv(out / "surrogate.csv")
        assert sorted(parsed) == surrogate.surface_ids()
        # rebuild interpolants from the file and compare evaluations
        from eigentrack.grid import ParamPoint, dyadic
        from eigentrack.surrogate import Surrogate, _SurfaceData, _build_1d

        grid_order = sorted(labeling_1d.labels)
        surfaces = {}
        for sid, rows in parsed.items():
            pts = [
                ParamPoint.from_ref(
                    tuple(dyadic(n, d) for n, d in zip(nums, dens)), cfg_1d.box
                )
                for (nums, dens), phys, value in rows
            ]
            vals = np.array([value for _, _, value in rows])
            data = _SurfaceData(points=pts, values=vals)
            _build_1d(data, grid_order)
            surfaces[sid] = data
        rebuilt = Surrogate(dim=1, box=cfg_1d.box, surfaces=surfaces)

        rng = np.random.default_rng(0)
        for x in rng.uniform(0.4, 1.0, size=100):
            for sid in surrogate.surface_ids():
                a = eval_surrogate(surrogate, sid, (x,))
                b = eval_surrogate(rebuilt, sid, (x,))
                assert (a is None and b is None) or a == b

    def test_emission_deterministic(
        self, run_1d, labeling_1d, provider_1d, reference_1d, tmp_path, emitted
    ):
        out1, _, _ = emitted
        surrogate = build_surrogate(labeling_1d, provider_1d)
        emit_reports(run_1d, labeling_1d, surrogate, tmp_path, reference=reference_1d)
        for path in sorted(tmp_path.iterdir()):
            assert path.read_bytes() == (out1 / path.name).read_bytes()

    def test_each_earlier_level_relabeled_once(
        self, run_1d, labeling_1d, provider_1d, reference_1d, tmp_path, monkeypatch
    ):
        # the curves and the error table share one labeling per level; the
        # final level uses the delivered labeling and is not relabeled
        calls = []
        real = propagation.propagate_labels

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # patched wherever the name is bound, so every relabel is counted
        for module in (propagation, reports):
            monkeypatch.setattr(module, "propagate_labels", counting, raising=False)
        surrogate = build_surrogate(labeling_1d, provider_1d)
        emit_reports(run_1d, labeling_1d, surrogate, tmp_path, reference=reference_1d)
        assert len(calls) == len(run_1d.levels) - 1

    def test_empty_window_run_emission(self, tmp_path):
        from eigentrack.config import parse_config
        from eigentrack.eigensolver import SnapshotProvider
        from eigentrack.propagation import build_match_graph, default_root, propagate_labels
        from eigentrack.refinement import run_adaptive

        cfg = parse_config(
            """
            [problem]
            box = -1, 1
            window = 1000000, 2000000
            c11 = 1
            c12 = 0
            c21 = 0
            c22 = 1
            mesh_n = 5
            [tolerances]
            w1 = 1
            w2 = 200
            t_pi = 0.5
            t_lambda = 0.001
            """
        )
        provider = SnapshotProvider(cfg, cache_dir=tmp_path / "cache")
        state = run_adaptive(cfg, provider=provider)
        assert state.terminated == "converged"
        labeling = propagate_labels(build_match_graph(state), default_root(state.points))
        assert all(ids == () for ids in labeling.labels.values())
        surrogate = build_surrogate(labeling, provider)
        written = emit_reports(state, labeling, surrogate, tmp_path / "out")
        surface_lines = (tmp_path / "out" / "surrogate.csv").read_text().strip().split("\n")
        assert len(surface_lines) == 1  # header only, no samples
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        assert meta["surfaces"] == 0
        assert meta["terminated"] == "converged"

    def test_surrogate_file_is_the_final_curves_file(self, tmp_path):
        # both are written by one row writer from the final labeling's
        # eigenvalues; checked here on a run outside the golden digests
        from eigentrack.config import parse_config
        from eigentrack.eigensolver import SnapshotProvider
        from eigentrack.propagation import build_match_graph, default_root, propagate_labels
        from eigentrack.refinement import run_adaptive
        from tests.conftest import bundled_config_text

        cfg = parse_config(
            bundled_config_text("paper_1d.cfg").replace("mesh_n = 65", "mesh_n = 9")
        )
        provider = SnapshotProvider(cfg, cache_dir=tmp_path / "cache")
        state = run_adaptive(cfg, provider=provider)
        labeling = propagate_labels(build_match_graph(state), default_root(state.points))
        emit_reports(state, labeling, build_surrogate(labeling, provider), tmp_path / "out")
        surrogate = (tmp_path / "out" / "surrogate.csv").read_bytes()
        assert state.final_level > 0 and surrogate.count(b"\n") > len(state.points)
        curves = tmp_path / "out" / f"curves_level_{state.final_level}.csv"
        assert surrogate == curves.read_bytes()

    def test_2d_run_emission(self, run_2d, labeling_2d, provider_2d, tmp_path):
        surrogate = build_surrogate(labeling_2d, provider_2d)
        written = emit_reports(run_2d, labeling_2d, surrogate, tmp_path)
        names = {p.name for p in written}
        final = run_2d.final_level
        assert f"grid_level_{final}.csv" in names
        assert f"curves_level_{final}.csv" in names
        assert "error_table.csv" not in names  # no reference supplied
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["terminated"] == "converged"
        assert meta["points_total"] == len(run_2d.points)
        header = (tmp_path / f"grid_level_{final}.csv").read_text().split("\n")[0]
        assert header == (
            "level,ref_num_1,ref_num_2,ref_log2_den_1,ref_log2_den_2,mu_1,mu_2"
        )


EMIT_ALONE = """
import sys
from importlib import resources
from eigentrack.config import parse_config
from eigentrack.eigensolver import SnapshotProvider
from eigentrack.propagation import build_match_graph, default_root, propagate_labels
from eigentrack.refinement import run_adaptive
from eigentrack.reports import emit_reports
from eigentrack.surrogate import build_surrogate

name, cache, out = sys.argv[1:]
cfg = parse_config((resources.files("eigentrack") / "configs" / name).read_text())
provider = SnapshotProvider(cfg, cache_dir=cache)
state = run_adaptive(cfg, provider=provider)
labeling = propagate_labels(build_match_graph(state), default_root(state.points))
emit_reports(state, labeling, build_surrogate(labeling, provider), out)
"""


def test_each_call_writes_what_it_writes_alone(
    run_1d, labeling_1d, provider_1d, run_2d, labeling_2d, provider_2d, tmp_path
):
    # the 1D reports, then the 2D ones, in this process: each set must equal
    # the one a fresh process writes with that call alone, so no formatting
    # memo outlives its call
    runs = {1: (run_1d, labeling_1d, provider_1d), 2: (run_2d, labeling_2d, provider_2d)}
    for dim, (state, labeling, provider) in runs.items():
        emit_reports(state, labeling, build_surrogate(labeling, provider), tmp_path / f"{dim}")
    src = str(Path(reports.__file__).resolve().parents[1])
    for dim, (_, _, provider) in runs.items():
        alone = tmp_path / f"alone_{dim}"
        # a warm run: a recomputed record or snapshot would warn
        proc = subprocess.run(
            [sys.executable, "-W", "error::UserWarning", "-c",
             f"import sys; sys.path.insert(0, {src!r})\n" + EMIT_ALONE,
             f"paper_{dim}d.cfg", str(provider.cache_dir), str(alone)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in alone.iterdir())
        assert names == sorted(p.name for p in (tmp_path / f"{dim}").iterdir())
        for name in names:
            assert (tmp_path / f"{dim}" / name).read_bytes() == (alone / name).read_bytes()
    # and neither the module nor the memo's class keeps a cache of its own
    kept = [
        name
        for scope in (vars(reports), vars(reports._Fields))
        for name, value in scope.items()
        if not name.startswith("__") and isinstance(value, (dict, list, set, reports._Fields))
    ]
    assert kept == []
