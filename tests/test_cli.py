"""End-to-end CLI tests through subprocesses: flags, files, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args: str, timeout: float = 300.0) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "eprbsim", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


class TestSweepCommand:
    def test_csv_output(self):
        proc = run_cli(
            "sweep", "--events", "40000", "--alpha-grid", "0,90",
            "--seed", "5", "--format", "csv",
        )
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert [r["alpha_deg"] for r in rows] == ["0.0", "90.0"]
        assert rows[0]["e_conditional"] == "-1.0"

    def test_table_output_default(self):
        proc = run_cli("sweep", "--events", "40000", "--alpha-grid", "0", "--seed", "5")
        assert proc.returncode == 0
        assert "alpha_deg" in proc.stdout.splitlines()[0]

    def test_out_dir_files(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli(
            "sweep", "--events", "40000", "--alpha-grid", "0,45",
            "--seed", "5", "--out", str(out),
        )
        assert proc.returncode == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "sweep"
        assert manifest["config"]["seed"] == 5
        assert len(manifest["results"]["rows"]) == 2
        assert (out / "sweep.csv").is_file()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"n_events": 40000, "alpha_grid_deg": [0, 45, 90]}))
        proc = run_cli(
            "sweep", "--config", str(cfg), "--alpha-grid", "0", "--format", "csv"
        )
        assert proc.returncode == 0
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert len(rows) == 1  # the flag overrides the file's grid

    def test_invalid_config_exits_1(self):
        proc = run_cli("sweep", "--tau", "2.0")
        assert proc.returncode == 1
        assert "tau" in proc.stderr

    def test_unknown_config_key_exits_1(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"resolution": 0.1}))
        proc = run_cli("sweep", "--config", str(cfg))
        assert proc.returncode == 1

    def test_bad_flag_exits_1(self):
        proc = run_cli("sweep", "--no-such-flag")
        assert proc.returncode == 1


class TestChshCommand:
    def test_verdict_summary_printed(self):
        proc = run_cli("chsh", "--events", "100000", "--seed", "5")
        assert proc.returncode == 0
        assert "CHSH =" in proc.stdout
        assert "corrected bound" in proc.stdout

    def test_empty_ensemble_exits_2(self):
        proc = run_cli(
            "chsh", "--events", "300", "--tau", "1e-8", "--window", "1e-8", "--seed", "5"
        )
        assert proc.returncode == 2
        assert "empty coincidence ensemble" in proc.stderr

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "chsh"
        proc = run_cli("chsh", "--events", "100000", "--seed", "5", "--out", str(out))
        assert proc.returncode == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["results"]["pairs"]) == {"ac", "ad", "bc", "bd"}
        assert "report" in manifest["results"]


class TestBoundsCommand:
    def test_small_grid(self):
        proc = run_cli(
            "bounds", "--events", "100000", "--alpha-grid", "90",
            "--tau-grid", "0.01", "--seed", "5", "--format", "csv",
        )
        assert proc.returncode == 0
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert len(rows) == 1
        assert rows[0]["satisfied"] == "true"

    def test_audit_angle_out_of_range_exits_1(self):
        proc = run_cli("bounds", "--events", "20000", "--alpha-grid", "200")
        assert proc.returncode == 1
        assert "audit_alpha_deg" in proc.stderr and "[0, 180]" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_continuous_mode_rejected(self):
        proc = run_cli("bounds", "--mode", "continuous", "--events", "1000")
        assert proc.returncode == 1
        assert "same-bin" in proc.stderr


class TestHelp:
    def test_help_exits_0(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for name in ("sweep", "chsh", "bounds", "reproduce-paper"):
            assert name in proc.stdout

    def test_missing_subcommand_exits_1(self):
        proc = run_cli()
        assert proc.returncode == 1
