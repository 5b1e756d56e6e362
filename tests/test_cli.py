"""End-to-end CLI tests: one table of refusals and boundary values run
in-process through ``cli.main``; real processes for ``--help`` and for runs
whose stdout and files are checked; tables rendered from the manifest."""

import argparse
import concurrent.futures
import csv
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from eprbsim import cli, reproduce, runner
from eprbsim.cli import _render, build_parser, main
from eprbsim.runner import ExperimentConfig, RunManifest

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args: str, timeout: float = 300.0, stdin: str | None = None
            ) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "eprbsim", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def option_strings(parser: argparse.ArgumentParser) -> dict[str, set[str]]:
    """Each subcommand's option strings, ``-h`` and ``--help`` left out."""
    return {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in subcommands(parser).items()
    }


# A row is (argv, exit code, fragment): the fragment is looked for in stderr,
# or in stdout on exit 0.  An argv item that is a dict or bytes is a file of
# that JSON or those bytes; "taken" is an existing file, which --out refuses.
NEAR_ENDS = "audit_alpha_deg values other than 0 and 180 must lie at least 1e-05"
CSV = ["--events", "1000", "--format", "csv"]
REFUSALS = [
    ([], 1, ""),
    (["sweep", "--no-such-flag"], 1, ""),
    (["sweep", "--alpha-grid", "0,x"], 1, "expected a comma-separated list of numbers"),
    (["sweep", "--alpha-grid", "--events", "10"], 1,
     "argument --alpha-grid: expected one argument"),
    *[([*argv, "--events", "1000"], 1, "unrecognized arguments") for argv in [
        ["bounds", "--tau", "1e-4"], ["bounds", "--window", "1e-4"],
        ["bounds", "--settings", "0,90,45,135"], ["sweep", "--settings", "0,90,45,135"],
        ["chsh", "--alpha-grid", "0,90"], ["sweep", "--event", "100"],
    ]],
    (["sweep", "--tau", "2.0"], 1, "tau"),
    (["chsh", "--settings", "0,90,45"], 1, "settings_deg"),
    # below the smallest normal float every tag / tau overflowed to one bin
    (["chsh", "--events", "20000", "--tau", "1e-320", "--window", "1e-320"], 1, "tau"),
    (["bounds", "--events", "20000", "--alpha-grid", "200"], 1,
     "audit_alpha_deg values must be in [0, 180]"),
    # the unequal-settings quadrature misses its tolerance there, and is nan at 1e-300
    (["bounds", "--alpha-grid", "1e-300", "--tau-grid", "0.01", "--events", "1000"], 1, NEAR_ENDS),
    (["bounds", "--alpha-grid", "30,179.999999", "--tau-grid", "0.01", "--events", "1000"], 1,
     NEAR_ENDS),
    (["bounds", "--events", "20000", "--tau-grid", "1e-320"], 1, "audit_tau"),
    # every closed form and quadrature of the audit is the d = 3 integral
    *[(["bounds", "--d-exponent", d, "--events", "1000"], 1, "d = 3") for d in ("1", "2", "0.7")],
    (["bounds", "--mode", "continuous", "--events", "1000"], 1, "same-bin"),
    (["bounds", "--events", "1000", "--alpha-grid", ""], 1, "audit_alpha_deg must not be empty"),
    (["sweep", "--events", "1000", "--alpha-grid", ""], 1, "alpha_grid_deg must not be empty"),
    (["sweep", "--d-exponent", "inf"], 1, "d_exponent must be finite"),
    # -inf and -nan are values, refused by the config, not taken for flags
    (["sweep", "--tau", "-inf"], 1, "tau must be in"),
    (["sweep", "--tau", "-NaN"], 1, "tau must be in"),
    (["sweep", "--alpha-grid", "-inf,0"], 1, "alpha_grid_deg must contain finite angles"),
    (["sweep", "--events", "0"], 1, "n_events"),
    # past 2^36 events per pair, refused before a plan is made
    *[([c, "--events", str(10**18)], 1, "error: n_events") for c in ("sweep", "chsh", "bounds")],
    # the headline check runs seed .. seed + 4
    (["reproduce-paper", "--seed", str(2**64 - 4)], 1, "seed"),
    *[([*argv, "--out", "taken"], 1, "taken") for argv in [
        ["sweep", "--alpha-grid", "0", "--events", "1000"], ["chsh", "--events", "1000"],
        ["bounds", "--tau-grid", "0.01", "--events", "1000"], ["reproduce-paper"],
    ]],
    (["sweep", "--config", "missing.json"], 1, "config file not found"),
    (["sweep", "--config", "."], 1, "cannot read config file"),
    (["sweep", "--config", {"resolution": 0.1}], 1, ""),
    (["sweep", "--config", b'{"tau": 0.001', "--events", "1000"], 1,
     "config file is not valid JSON"),
    (["sweep", "--config", b'\xff\xfe{"tau": 0.001}', "--events", "1000"], 1,
     "cannot read config file"),
    *[(["sweep", "--config", data], 1, next(iter(data))) for data in [
        {"n_events": 1e5}, {"settings_deg": 5}, {"alpha_grid_deg": ["a"]}, {"seed": 1.5},
        {"alpha_grid_deg": [10**400]}, {"d_exponent": 10**400},
    ]],
    *[([c, "--config", {"n_events": 1000, **data}], 1,
       f"the {c} command does not read config keys {list(data)}") for c, data in [
        ("bounds", {"tau": 1e-4}), ("chsh", {"alpha_grid_deg": [0, 90]}),
        ("sweep", {"settings_deg": [0, 90, 45, 135]}),
    ]],
    # zero coincidences: a sweep flags the row, a CHSH run has no verdict
    (["chsh", "--events", "300", "--tau", "1e-8", "--window", "1e-8", "--seed", "5"], 2,
     "empty coincidence ensemble"),
    (["sweep", "--events", "300", "--tau", "1e-8", "--alpha-grid", "45", "--format", "csv"], 0,
     "\n45.0,300,0,0.0,0.0,,,-0.7071067811865476,true\n"),
    # |E| = 1 at 0 and 180 degrees
    (["sweep", "--alpha-grid", "0", "--tau", "0.01", *CSV], 0, ",-1.0,0.0,-1.0,false\n"),
    (["sweep", "--alpha-grid", "180", "--tau", "0.01", *CSV], 0, ",1.0,0.0,1.0,false\n"),
    # a list may start with a negative number
    (["sweep", "--alpha-grid", "-45,45", *CSV], 0, "\n-45.0,1000,"),
    (["chsh", "--settings", "-22.5,22.5,0,45", "--tau", "0.01", "--window", "0.01", *CSV], 0,
     "\nac,-22.5,0.0,1000,"),
]
# every flag of sweep, chsh and bounds at each boundary value (any outcome
# but a traceback), and every config key they read as a JSON value of the
# wrong type (refused)
PARSER = build_parser()
FIELDS = {f.name for f in fields(ExperimentConfig)}
BOUNDARY = [
    ([c, "--events", "1000", flag, value], None, None)
    for c in ("sweep", "chsh", "bounds")
    for flag in sorted(option_strings(PARSER)[c])
    for value in ["0", "-1", "nan", "inf", "-inf", "1e-320", "1e308", str(2**64), ""]
] + [
    ([c, "--config", {"n_events": 1000, key: value}], 1, key)
    for c in ("sweep", "chsh", "bounds")
    for key in sorted({a.dest for a in subcommands(PARSER)[c]._actions} & FIELDS)
    for value in [None, True, "x", [], {}]
]


@pytest.mark.parametrize("argv, code, fragment", REFUSALS + BOUNDARY, ids=[
    " ".join(a if isinstance(a, str) else repr(a) for a in row[0]) for row in REFUSALS + BOUNDARY
])
def test_cli_boundary(tmp_path, monkeypatch, capsys, argv, code, fragment):
    """Every case exits 0, 1 or 2 with no traceback, and one that exits 1 or
    2 writes error: to stderr and nothing to stdout.  No case simulates more
    than 2,000 events per pair, asks for a pool larger than the CPU cap
    (threads stand in for its processes), or runs a reproduction check."""
    monkeypatch.chdir(tmp_path)
    Path("taken").write_text("")

    def path(arg) -> str:
        if isinstance(arg, str):
            return arg
        Path("arg.json").write_bytes(arg if isinstance(arg, bytes) else json.dumps(arg).encode())
        return "arg.json"

    simulate = runner.simulate_plan

    def capped(pairs, n_events, *args):
        assert n_events <= 2000, f"{n_events} events per pair"
        return simulate(pairs, n_events, *args)

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            assert max_workers <= runner._available_cpus()
            super().__init__(max_workers)

    monkeypatch.setattr(runner, "simulate_plan", capped)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(reproduce, "ALL_CHECKS", (lambda config: pytest.fail("a check ran"),))
    exit_code = main([path(a) for a in argv])
    out, err = capsys.readouterr()
    assert exit_code in (0, 1, 2) and "Traceback" not in err
    if exit_code:
        assert "error:" in err and out == ""
    if code is not None:
        assert exit_code == code, err
        assert fragment in (out if code == 0 else err)


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

    def test_config_read_from_a_pipe(self):
        proc = run_cli("sweep", "--config", "/dev/stdin", "--format", "csv",
                       stdin=json.dumps({"n_events": 20000, "alpha_grid_deg": [0]}))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1].startswith("0.0,20000,")


class TestChshCommand:
    def test_verdict_summary_printed(self):
        proc = run_cli("chsh", "--events", "100000", "--seed", "5")
        assert proc.returncode == 0
        assert "CHSH =" in proc.stdout
        assert "corrected bound" in proc.stdout

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

    def test_table_angles_near_0_and_180_stay_distinct(self):
        """The table prints angles to 12 significant digits: the 179.99999
        row, which fails its cot form, does not read 180 beside the 180 row
        that passes, and the audit's 30 degrees still reads 30."""
        proc = run_cli("bounds", "--alpha-grid", "0,1e-5,179.99999,180,30",
                       "--tau-grid", "0.01", "--events", "1000")
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()[2:]]
        assert [row[0] for row in rows] == ["0", "1e-05", "179.99999", "180", "30"]
        assert [row[-1] for row in rows] == ["yes", "yes", "no", "yes", "yes"]
        near_30 = RunManifest("bounds", {}, {"rows": [{"alpha_deg": 29.999999999999996}]})
        assert _render(near_30, "table").splitlines()[2].split()[0] == "30"


class TestOutFiles:
    """A file that ``--out`` cannot write is refused before any event is
    simulated when its name is fixed, and reported as an error line with
    exit 1 when its write fails; a regular file is overwritten."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        monkeypatch.setattr(runner, "simulate_plan", lambda *args: pytest.fail("simulated"))
        monkeypatch.setattr(reproduce, "ALL_CHECKS", (lambda config: pytest.fail("a check ran"),))

    @pytest.mark.parametrize("command, name", [
        *[(c, n) for c in ("sweep", "chsh", "bounds") for n in ("manifest.json", f"{c}.csv")],
        ("reproduce-paper", "reproduction_summary.json"),
    ])
    def test_fixed_target_not_a_file_refused_first(self, tmp_path, capsys, command, name):
        (tmp_path / name).mkdir()
        assert main([command, "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot write {tmp_path / name}: not a regular file\n"

    @staticmethod
    def sweep_manifest(config) -> RunManifest:
        return RunManifest("sweep", config.to_dict(), {"rows": []})

    def test_failed_write_is_an_error(self, tmp_path, capsys, monkeypatch):
        """A target that turns into a directory during the run, and a
        check's manifest file, which has no fixed name."""
        def run(config):
            (tmp_path / "sweep.csv").mkdir()
            return self.sweep_manifest(config)

        monkeypatch.setattr(cli, "run_correlation_sweep", run)
        assert main(["sweep", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            f"error: cannot write {tmp_path / 'sweep.csv'}: Is a directory\n"
        assert (tmp_path / "manifest.json").is_file()

        check = reproduce.CheckResult(1, "one", True, "", {"x": self.sweep_manifest(
            ExperimentConfig())})
        monkeypatch.setattr(reproduce, "ALL_CHECKS", (lambda config: check,))
        (tmp_path / "1-x.json").mkdir()
        assert main(["reproduce-paper", "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out.endswith("1/1 checks passed\n")
        assert err == f"error: cannot write {tmp_path / '1-x.json'}: Is a directory\n"

    def test_regular_files_overwritten(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_correlation_sweep", self.sweep_manifest)
        for name in ("manifest.json", "sweep.csv"):
            (tmp_path / name).write_text("old")
        assert main(["sweep", "--out", str(tmp_path), "--format", "csv"]) == 0
        assert (tmp_path / "sweep.csv").read_text() == capsys.readouterr().out
        assert RunManifest.from_json((tmp_path / "manifest.json").read_text()).kind == "sweep"


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
        assert stdout == _render(manifest, fmt)
        csv_text = (tmp_path / f"{command}.csv").read_text()
        assert csv_text == _render(manifest, "csv")
        assert len(csv_text.splitlines()) == 1 + (4 if command == "chsh" else 3)
        # only the chsh table is followed by its two verdict lines
        extra = stdout.splitlines()[2 + (4 if command == "chsh" else 3):]
        assert len(extra) == (2 if command == "chsh" and fmt == "table" else 0)


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

    def test_readme_flag_table_is_the_parser(self):
        section = (ROOT / "README.md").read_text().split("\n## Command line\n")[1]
        rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", section.split("\n## ")[0], re.M)
        assert {command: set(re.findall(r"`(--[\w-]+)`", flags)) for command, flags in rows} \
            == option_strings(build_parser())

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
