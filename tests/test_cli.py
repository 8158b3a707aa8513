import io
import subprocess
import sys

import pytest

from eigentrack.cli import build_parser, main
from eigentrack.eigensolver import SnapshotProvider
from eigentrack.refinement import record_name
from tests.conftest import bundled_config_text, copy_snapshots


@pytest.fixture()
def config_1d(tmp_path, cache_dir, monkeypatch):
    """Bundled 1D config pointed at the session cache and a fresh output dir."""
    text = bundled_config_text("paper_1d.cfg").replace(
        "output_dir = out_1d", f"output_dir = {tmp_path / 'out'}"
    )
    path = tmp_path / "paper_1d.cfg"
    path.write_text(text)
    monkeypatch.setenv("EIGENTRACK_CACHE", str(cache_dir / "run_1d"))
    return path


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestDispatch:
    def test_unknown_subcommand_exits_2(self, capsys):
        code, _ = run_cli("frobnicate", "--config", "x")
        assert code == 2

    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_jobs_below_one_exits_2(self, config_1d, jobs, capsys):
        code, _ = run_cli("refine", "--config", str(config_1d), "--jobs", jobs)
        assert code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, place",
        [
            ("snapshot", ["--at", "0.7"]),
            ("match", ["--a", "0.4", "--b", "0.7"]),
            ("verify", ["--a", "0.4", "--b", "0.7"]),
        ],
    )
    def test_single_point_commands_reject_jobs(self, config_1d, command, place, capsys):
        # they solve at most two points, one at a time, so they take no --jobs
        code, _ = run_cli(command, "--config", str(config_1d), *place, "--jobs", "2")
        assert code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, points",
        [
            ("reference", "0"),
            ("reference", "4"),
            ("compare", "0"),
            ("compare", "1"),
            ("compare", "-3"),
            ("compare", "128"),
            ("report", "-1"),
            ("report", "2048"),
        ],
    )
    def test_points_not_a_lattice_size_exits_2(self, config_1d, command, points, capsys):
        # rejected while parsing, before any solve
        code, _ = run_cli(command, "--config", str(config_1d), "--points", points)
        assert code == 2
        assert "--points" in capsys.readouterr().err

    def test_report_accepts_zero_points(self):
        # the other commands' lattice sizes are accepted in TestCommands
        args = build_parser().parse_args(["report", "--config", "x", "--points", "0"])
        assert args.points == 0

    def test_missing_config_exits_1(self):
        code, _ = run_cli("snapshot", "--config", "/nonexistent.cfg", "--at", "0.4")
        assert code == 1

    def test_invalid_config_exits_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[problem]\nbox = 1.0, 0.4\n")
        code, _ = run_cli("snapshot", "--config", str(bad), "--at", "0.7")
        assert code == 1

    @pytest.mark.parametrize(
        "c11",
        ["-" * 5000 + "mu1", "(" * 300 + "1" + ")" * 300],
        ids=["minus_signs", "parentheses"],
    )
    def test_deeply_nested_expression_exits_1(self, config_1d, tmp_path, c11, capsys):
        deep = tmp_path / "deep.cfg"
        deep.write_text(config_1d.read_text().replace("c11 = mu1^-2", f"c11 = {c11}"))
        code, _ = run_cli("snapshot", "--config", str(deep), "--at", "0.7")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("minus_signs", [500, 960])
    def test_expression_beyond_the_depth_limit_names_its_key(
        self, config_1d, tmp_path, minus_signs, capsys
    ):
        # these parse, and used to fail at the first solve with a bare RecursionError
        deep = tmp_path / "deep.cfg"
        c11 = "-" * minus_signs + "mu1^-2"
        deep.write_text(config_1d.read_text().replace("c11 = mu1^-2", f"c11 = {c11}"))
        code, _ = run_cli("snapshot", "--config", str(deep), "--at", "0.7")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: key 'c11': ")
        assert "levels deep" in err

    def test_module_entry_point(self, config_1d):
        proc = subprocess.run(
            [sys.executable, "-m", "eigentrack", "snapshot", "--config", str(config_1d),
             "--at", "0.7"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "eigenvalues_in_window 9" in proc.stdout


class TestCommands:
    def test_snapshot(self, config_1d):
        code, text = run_cli("snapshot", "--config", str(config_1d), "--at", "0.4")
        assert code == 0
        assert "eigenvalues_in_window 4" in text

    def test_snapshot_rejects_non_dyadic(self, config_1d):
        code, _ = run_cli("snapshot", "--config", str(config_1d), "--at", "0.5")
        assert code == 1

    def test_match_prints_assignment(self, config_1d):
        code, text = run_cli("match", "--config", str(config_1d), "--a", "0.4", "--b", "0.7")
        assert code == 0
        assert "sigma,1,2,5,8" in text

    def test_match_swapped_endpoints_reorders_first_side(self, config_1d):
        code, text = run_cli("match", "--config", str(config_1d), "--a", "0.7", "--b", "0.4")
        assert code == 0
        line = text.split("reordered_eigenvalues\n")[1].split("\n")[0]
        reordered = [float(x) for x in line.split(",")]
        # matched positions pair with the 0.4-side list (80.8, 137.9, ...)
        assert [round(x, 1) for x in reordered[:4]] == pytest.approx(
            [38.2, 81.2, 188.9, 261.6], abs=0.3
        )

    def test_verify_prints_verdict(self, config_1d):
        code, text = run_cli("verify", "--config", str(config_1d), "--a", "0.4", "--b", "0.7")
        assert code == 0
        assert "verdict,refine" in text

    def test_refine_converges_exit_zero(self, config_1d, tmp_path):
        code, text = run_cli("refine", "--config", str(config_1d))
        assert code == 0
        assert "terminated converged at level 3" in text
        assert (tmp_path / "out" / "run.json").exists()

    @pytest.mark.parametrize(
        "command, records",
        [(["refine"], []), (["compare", "--points", "9"], ["reference_9"])],
        ids=["refine", "compare"],
    )
    def test_refine_rerun_replays_the_cache(
        self, command, records, config_1d, cfg_1d, cache_dir, tmp_path, monkeypatch, run_1d
    ):
        # run_1d has put every snapshot of the run into the session cache;
        # the first compare solves the 9-point lattice points the run lacks
        cache = copy_snapshots(cache_dir / "run_1d", tmp_path / "cache")
        monkeypatch.setenv("EIGENTRACK_CACHE", str(cache))
        runs = []
        for _ in range(2):
            code, text = run_cli(*command, "--config", str(config_1d))
            assert code == 0
            reports = {p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())}
            files = {p.name: p.stat().st_mtime_ns for p in cache.iterdir()}
            runs.append((text, reports, files))
        # same stdout and report files, and no cache file created or rewritten
        assert runs[1] == runs[0]
        provider = SnapshotProvider(cfg_1d, cache)
        assert sorted(n for n in runs[0][2] if not n.startswith("snap_")) == [
            record_name(provider, stem) for stem in [f"level_{n}" for n in range(4)] + records
        ]

    def test_refine_with_level_cap_exits_nonzero(self, config_1d, tmp_path):
        capped = tmp_path / "capped.cfg"
        capped.write_text(
            config_1d.read_text().replace("max_level = 10", "max_level = 0")
        )
        with pytest.warns(UserWarning):
            code, text = run_cli("refine", "--config", str(capped))
        assert code == 1
        assert "max_level" in text

    def test_surrogate_eval_known_surface(self, config_1d):
        code, text = run_cli(
            "surrogate", "eval", "--config", str(config_1d), "--surface", "1",
            "--at", "0.55",
        )
        assert code == 0
        assert float(text.strip()) > 0

    def test_surrogate_eval_unknown_surface_exits_1(self, config_1d):
        code, _ = run_cli(
            "surrogate", "eval", "--config", str(config_1d), "--surface", "999",
            "--at", "0.55",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "at, message",
        [
            ("x", "could not convert string to float: 'x'"),
            ("0.5,0.5", "query has dimension 2, expected 1"),
            ("1.5", "query (1.5,) is outside the parameter box"),
        ],
    )
    def test_surrogate_eval_rejects_at_before_the_run(
        self, config_1d, tmp_path, monkeypatch, capsys, at, message
    ):
        cold = tmp_path / "cold"
        monkeypatch.setenv("EIGENTRACK_CACHE", str(cold))
        code, text = run_cli(
            "surrogate", "eval", "--config", str(config_1d), "--surface", "1", "--at", at
        )
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not cold.exists() or not any(cold.iterdir())   # no snapshot solved or written

    def test_surrogate_build_writes_final_curves(self, config_1d, tmp_path):
        out = tmp_path / "out"
        code, text = run_cli("surrogate", "build", "--config", str(config_1d))
        assert code == 0
        assert text == f"wrote {out / 'surrogate.csv'} with 15 surfaces\n"
        built = (out / "surrogate.csv").read_bytes()
        code, _ = run_cli("refine", "--config", str(config_1d))
        assert code == 0
        assert built == (out / "curves_level_3.csv").read_bytes()

    def test_compare_writes_error_table(self, config_1d, tmp_path):
        code, text = run_cli("compare", "--config", str(config_1d), "--points", "129")
        assert code == 0
        table = (tmp_path / "out" / "error_table.csv").read_text().strip().split("\n")
        assert table[1:] == ["0,3,2,2,2", "1,5,3,4,2", "2,7,0,4,1", "3,8,0,2,0"]

    def test_compare_starts_one_pool(self, config_1d, tmp_path, monkeypatch, pool_starts):
        monkeypatch.setenv("EIGENTRACK_CACHE", str(tmp_path / "cold"))
        args = ("--config", str(config_1d), "--points", "9", "--jobs", "2")
        code, _ = run_cli("compare", *args)
        assert code == 0
        # the adaptive run and the reference both solve in the one pool
        assert pool_starts == [2]

    def test_reference_writes_csv(self, config_1d, tmp_path):
        code, text = run_cli("reference", "--config", str(config_1d), "--points", "2")
        assert code == 0
        assert (tmp_path / "out" / "reference_2.csv").exists()

    def test_percent_sign_in_a_value_is_literal(self, config_1d, tmp_path):
        # a value is taken literally: "%1d" is no interpolation
        text = config_1d.read_text().replace(f"{tmp_path / 'out'}", f"{tmp_path / 'out%1d'}")
        config_1d.write_text(text)
        code, _ = run_cli("reference", "--config", str(config_1d), "--points", "2")
        assert code == 0
        assert (tmp_path / "out%1d" / "reference_2.csv").exists()

    def test_report_regenerates_outputs(self, config_1d, tmp_path):
        code, text = run_cli("report", "--config", str(config_1d))
        assert code == 0
        out = tmp_path / "out"
        assert (out / "run.json").exists()
        assert (out / "surrogate.csv").exists()
        assert not (out / "error_table.csv").exists()  # no reference requested
