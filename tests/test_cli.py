import io
import subprocess
import sys

import pytest

from eigentrack.cli import main
from tests.conftest import bundled_config_text


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

    def test_missing_config_exits_1(self):
        code, _ = run_cli("snapshot", "--config", "/nonexistent.cfg", "--at", "0.4")
        assert code == 1

    def test_invalid_config_exits_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[problem]\nbox = 1.0, 0.4\n")
        code, _ = run_cli("snapshot", "--config", str(bad), "--at", "0.7")
        assert code == 1

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

    def test_report_regenerates_outputs(self, config_1d, tmp_path):
        code, text = run_cli("report", "--config", str(config_1d))
        assert code == 0
        out = tmp_path / "out"
        assert (out / "run.json").exists()
        assert (out / "surrogate.csv").exists()
        assert not (out / "error_table.csv").exists()  # no reference requested
