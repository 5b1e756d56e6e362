"""End-to-end CLI tests, through subprocesses and ``cli.main``: flags,
files, exit codes, and tables rendered from the written manifest."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eprbsim.cli import build_parser, main
from eprbsim.runner import COLUMNS, RunManifest, rows_to_csv, rows_to_table, table_rows

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

    @pytest.mark.parametrize("command, flag, value, field", [
        ("sweep", "--tau", "2.0", "tau"),
        ("chsh", "--settings", "0,90,45", "settings_deg"),
    ])
    def test_invalid_config_exits_1(self, command, flag, value, field):
        proc = run_cli(command, flag, value)
        assert proc.returncode == 1
        assert field in proc.stderr

    def test_unknown_config_key_exits_1(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"resolution": 0.1}))
        proc = run_cli("sweep", "--config", str(cfg))
        assert proc.returncode == 1

    def test_bad_flag_exits_1(self):
        proc = run_cli("sweep", "--no-such-flag")
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "data",
        [
            {"n_events": 1e5},
            {"settings_deg": 5},
            {"alpha_grid_deg": ["a"]},
            {"seed": 1.5},
        ],
    )
    def test_config_file_type_errors_exit_1(self, tmp_path, data):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(data))
        proc = run_cli("sweep", "--config", str(cfg))
        assert proc.returncode == 1
        assert next(iter(data)) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


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

    def test_subnormal_tau_exits_1(self):
        """Below the smallest normal float every tag / tau overflows to the
        same infinite bin, which once gave gamma = 1 and exit code 0."""
        proc = run_cli("chsh", "--events", "20000", "--tau", "1e-320", "--window", "1e-320")
        assert proc.returncode == 1
        assert "tau" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

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
        gamma, stderr = float(rows[0]["simulated_gamma"]), float(rows[0]["stderr_gamma"])
        assert gamma + 4.0 * stderr <= float(rows[0]["closed_form"])

    def test_audit_angle_out_of_range_exits_1(self):
        proc = run_cli("bounds", "--events", "20000", "--alpha-grid", "200")
        assert proc.returncode == 1
        assert "audit_alpha_deg" in proc.stderr and "[0, 180]" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_audit_angle_near_0_or_180_exits_1(self):
        """Where the unequal-settings quadrature misses its tolerance (it
        gives nan at 1e-300 degrees), the audit is refused before it runs."""
        for grid in ("1e-300", "30,179.999999"):
            proc = run_cli("bounds", "--alpha-grid", grid, "--tau-grid", "0.01",
                           "--events", "1000")
            assert proc.returncode == 1
            assert "audit_alpha_deg" in proc.stderr and "1e-05" in proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stdout == ""

    def test_subnormal_audit_tau_exits_1(self):
        proc = run_cli("bounds", "--events", "20000", "--tau-grid", "1e-320")
        assert proc.returncode == 1
        assert "audit_tau" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_continuous_mode_rejected(self):
        proc = run_cli("bounds", "--mode", "continuous", "--events", "1000")
        assert proc.returncode == 1
        assert "same-bin" in proc.stderr

    def test_empty_audit_grid_exits_1(self):
        proc = run_cli("bounds", "--events", "1000", "--alpha-grid", "")
        assert proc.returncode == 1
        assert "audit_alpha_deg must not be empty" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


RUN_ARGS = {
    "sweep": ["--alpha-grid", "0,45,90"],
    "chsh": ["--tau", "0.01", "--window", "0.01"],
    "bounds": ["--alpha-grid", "0,90,180", "--tau-grid", "0.01"],
}


class TestTablesFollowManifest:
    """stdout and the ``--out`` CSV are the rows of the written manifest."""

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    @pytest.mark.parametrize("command", sorted(RUN_ARGS))
    def test_stdout_is_manifest_table(self, tmp_path, capsys, command, fmt):
        argv = [command, *RUN_ARGS[command], "--events", "20000", "--seed", "5",
                "--format", fmt, "--out", str(tmp_path)]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        manifest = RunManifest.from_json((tmp_path / "manifest.json").read_text())
        assert manifest.kind == command
        assert manifest.config["workers"] == 1
        assert "workers" not in json.loads((tmp_path / "manifest.json").read_text())
        rows, columns = table_rows(manifest), COLUMNS[command]
        assert len(rows) == (4 if command == "chsh" else 3)
        render = rows_to_csv if fmt == "csv" else rows_to_table
        assert stdout.startswith(render(rows, columns))
        # only the chsh table is followed by its two verdict lines
        extra = stdout[len(render(rows, columns)):].splitlines()
        assert len(extra) == (2 if command == "chsh" and fmt == "table" else 0)
        assert (tmp_path / f"{command}.csv").read_text() == rows_to_csv(rows, columns)


class TestReproduceCommand:
    def test_seed_too_large_for_headline_seeds_exits_1(self):
        """The headline check runs seed .. seed + 4, so 2**64 - 4 is refused
        before any check starts (the checks print to stdout)."""
        proc = run_cli("reproduce-paper", "--seed", str(2**64 - 4))
        assert proc.returncode == 1
        assert "seed" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def option_strings(parser: argparse.ArgumentParser) -> dict[str, set[str]]:
    """Each subcommand's option strings, ``-h`` and ``--help`` left out."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }


class TestFlags:
    """Each command offers exactly the flags whose config fields it reads."""

    def test_option_strings_per_command(self):
        model = {"--tau", "--window", "--mode", "--d-exponent"}
        run = {"--config", "--events", "--seed", "--workers", "--out", "--format"}
        assert option_strings(build_parser()) == {
            "sweep": model | run | {"--alpha-grid"},
            "chsh": model | run | {"--settings"},
            "bounds": run | {"--mode", "--d-exponent", "--alpha-grid", "--tau-grid"},
            "reproduce-paper": {"--seed", "--workers", "--out"},
        }

    @pytest.mark.parametrize("argv", [
        ("bounds", "--tau", "1e-4"),
        ("bounds", "--window", "1e-4"),
        ("bounds", "--settings", "0,90,45,135"),
        ("sweep", "--settings", "0,90,45,135"),
        ("chsh", "--alpha-grid", "0,90"),
        ("sweep", "--event", "100"),
    ])
    def test_unread_or_abbreviated_flag_exits_1(self, argv):
        proc = run_cli(*argv, "--events", "1000")
        assert proc.returncode == 1
        assert "unrecognized arguments" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [
        ("sweep", "--alpha-grid", "0", "--events", "1000"),
        ("chsh", "--events", "1000"),
        ("bounds", "--tau-grid", "0.01", "--events", "1000"),
        ("reproduce-paper",),
    ])
    def test_out_is_an_existing_file_exits_1(self, tmp_path, argv):
        out = tmp_path / "taken"
        out.write_text("")
        proc = run_cli(*argv, "--out", str(out))
        assert proc.returncode == 1
        assert str(out) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_bad_list_exits_1(self):
        proc = run_cli("sweep", "--alpha-grid", "0,x")
        assert proc.returncode == 1
        assert "expected a comma-separated list of numbers" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, data", [
        ("bounds", {"tau": 1e-4}),
        ("chsh", {"alpha_grid_deg": [0, 90]}),
        ("sweep", {"settings_deg": [0, 90, 45, 135]}),
    ])
    def test_config_key_the_command_does_not_read_exits_1(self, tmp_path, capsys, command,
                                                          data):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"n_events": 1000, **data}))
        assert main([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert f"the {command} command does not read config keys {list(data)}" in captured.err
        assert captured.out == ""

    def test_config_key_the_command_reads_is_applied(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"n_events": 20000, "audit_tau": [0.01],
                                   "audit_alpha_deg": [90]}))
        assert main(["bounds", "--config", str(cfg), "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [(float(r["alpha_deg"]), float(r["tau"])) for r in rows] == [(90.0, 0.01)]


class TestHelp:
    def test_help_exits_0(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for name in ("sweep", "chsh", "bounds", "reproduce-paper"):
            assert name in proc.stdout

    def test_missing_subcommand_exits_1(self):
        proc = run_cli()
        assert proc.returncode == 1
