"""Command-line interface.

Subcommands: `sweep` (conditional correlation vs angle), `chsh` (the
four-settings experiment), `bounds` (rate-bound audit) and `reproduce-paper`
(the full default-parameter reproduction with a pass/fail summary).

This module writes everything the package prints: the table or CSV of a
run, rendered from its manifest alone, and the pass/fail lines of the
reproduction checks.  Errors go to stderr.

Each command offers only the flags whose config fields it reads.  A flag
stores its value under the field's name, so every command loads its config
alike: the defaults, the `--config` file, then the flags given.  A
`--config` file may set only the fields the command reads.  Flags cannot
be abbreviated.

Exit codes: 0 success, 1 invalid configuration or an output that cannot
be written, 2 empty post-selected ensemble, 3 reproduction checks failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from contextlib import suppress
from dataclasses import fields
from pathlib import Path

from .bell import PAIR_LABELS
from .bounds import BoundReport
from .coincidence import CoincidenceStats
from .model import CoincidenceMode
from .runner import (
    ConfigError,
    EmptyEnsembleError,
    ExperimentConfig,
    RunManifest,
    run_bound_audit,
    run_chsh_experiment,
    run_correlation_sweep,
)
from . import reproduce

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_EMPTY = 2
EXIT_CHECKS_FAILED = 3

_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}"
        ) from None


# the flags of every command, each stored under the config field it sets
_FLAGS = {
    "--config": dict(metavar="FILE", help="JSON config file; flags override it"),
    "--tau": dict(type=float, help="time-tag resolution (units of the maximal delay)"),
    "--window": dict(type=float, help="coincidence window W"),
    "--mode": dict(dest="coincidence_mode", choices=[m.value for m in CoincidenceMode],
                   help="coincidence convention"),
    "--d-exponent": dict(dest="d_exponent", type=float, help="delay-law exponent"),
    "--events": dict(dest="n_events", type=int, help="events per setting pair"),
    "--seed": dict(type=int, help="base random seed"),
    "--workers": dict(type=int, help="worker processes (never affects results)"),
    "--settings": dict(dest="settings_deg", type=_csv_floats, metavar="A,B,C,D",
                       help="four setting angles in degrees"),
    "--alpha-grid": dict(dest="alpha_grid_deg", type=_csv_floats, metavar="LIST",
                         help="comma-separated angles in degrees"),
    "--out": dict(metavar="DIR", help="write the run's manifest.json and CSV table here, or "
                  "reproduce-paper's reproduction_summary.json and each check's manifests"),
    "--format": dict(choices=["table", "csv"], default="table",
                     help="stdout format (default: table)"),
}


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The defaults, then the ``--config`` file, then every config field
    that a flag set.  The file may set only the fields that the command
    reads, which are those it has flags for."""
    data = {}
    if getattr(args, "config", None):
        # read without a stat first: a pipe such as /dev/stdin is no regular file
        path = Path(args.config)
        try:
            file_data = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_data, dict):
            raise ConfigError("config file must hold a JSON object")
        unread = sorted((set(file_data) & _FIELDS) - set(vars(args)))
        if unread:
            raise ConfigError(f"the {args.command} command does not read config keys {unread}")
        data.update(file_data)
    data.update({k: v for k, v in vars(args).items() if k in _FIELDS and v is not None})
    return ExperimentConfig.from_dict(data)


def _out_dir(args: argparse.Namespace) -> Path | None:
    """The ``--out`` directory, made before any event is simulated; a file
    of a fixed name that the command writes there, if it exists, must be a
    regular file, which is overwritten."""
    if not args.out:
        return None
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the --out directory {out}: {exc.strerror}") from None
    names = (["reproduction_summary.json"] if args.command == "reproduce-paper"
             else ["manifest.json", f"{args.command}.csv"])
    for path in (out / name for name in names):
        if path.exists() and not path.is_file():
            raise ConfigError(f"cannot write {path}: not a regular file")
    return out


def _say(text: str) -> None:
    """Write ``text`` to stdout and flush it, so that a closed or full
    stdout fails here, as a file of ``_write`` does, and not at exit."""
    if sys.stdout is None:  # started without a descriptor 1
        raise ConfigError("cannot write stdout: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # Python flushes stdout again at exit: let that go to devnull (an
        # in-memory stdout has no descriptor and is left as it is)
        with suppress(OSError), open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise ConfigError(f"cannot write stdout: {exc.strerror or exc}") from None


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


# the estimators of a setting pair, without the raw sum and the cut behind them
_ESTIMATES = [
    f.name for f in fields(CoincidenceStats) if f.name not in ("sum_xy", "mode", "window", "tau")
]

_COLUMNS = {
    "sweep": ["alpha_deg", *_ESTIMATES, "reference_minus_cos", "flagged"],
    "chsh": ["pair", "setting_1_deg", "setting_2_deg", *_ESTIMATES],
    "bounds": ["alpha_deg", *(f.name for f in fields(BoundReport) if f.name != "alpha")],
}


def _render(manifest: RunManifest, fmt: str) -> str:
    """What a run prints, read from its manifest alone: its rows as CSV, or
    as an aligned table that a chsh run follows with its two verdict lines.

    The CSV prints every float in full and leaves a missing value empty.
    The table prints floats with 6 significant digits, angles (the ``_deg``
    columns) with 12, so 179.99999 and 1e-05 do not read as 180 and 0,
    while 29.999999999999996 still reads 30; a missing value reads "-".
    """
    results, columns = manifest.results, _COLUMNS[manifest.kind]
    if manifest.kind == "chsh":
        rows = []
        for label in PAIR_LABELS:
            th1, th2 = results["pair_settings_deg"][label]
            rows.append({"pair": label, "setting_1_deg": th1, "setting_2_deg": th2,
                         **results["pairs"][label]})
        r = results["report"]
        verdicts = (
            f"CHSH = {r['chsh_lhs']:.6f} +- {r['chsh_stderr']:.6f}  "
            f"(plain bound 2: {'violated' if r['violates_chsh'] else 'satisfied'})\n"
            f"corrected bound 6/gamma-4 = {r['modified_bound']:.6g} at gamma_min = "
            f"{r['gamma_min']:.6g}: {'violated' if r['violates_modified'] else 'satisfied'}\n"
        )
    else:
        rows, verdicts = results["rows"], ""

    none, no, yes = ("", "false", "true") if fmt == "csv" else ("-", "no", "yes")

    def cell(column: str, value) -> str:
        if value is None:
            return none
        if isinstance(value, bool):
            return yes if value else no
        if not isinstance(value, float):
            return str(value)
        if fmt == "csv":
            return repr(value)
        return f"{value:.12g}" if column.endswith("_deg") else f"{value:.6g}"

    grid = [columns] + [[cell(c, row.get(c)) for c in columns] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(grid)
        return buf.getvalue()
    widths = [max(len(r[i]) for r in grid) for i in range(len(columns))]
    lines = ["  ".join(s.rjust(w) for s, w in zip(r, widths)) for r in grid]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n" + verdicts


def _cmd_run(args: argparse.Namespace, config: ExperimentConfig, out: Path | None) -> int:
    manifest = args.run(config)
    _say(_render(manifest, args.format))
    if out:
        _write(out / "manifest.json", manifest.to_json() + "\n")
        _write(out / f"{manifest.kind}.csv", _render(manifest, "csv"))
    return EXIT_OK


def _cmd_reproduce(args: argparse.Namespace, config: ExperimentConfig, out: Path | None) -> int:
    results = []
    for r in reproduce.run_all(config):
        results.append(r)
        _say(f"[{r.number}] {r.name}: {'PASS' if r.passed else 'FAIL'}\n    {r.detail}\n")
    _say(f"{sum(r.passed for r in results)}/{len(results)} checks passed\n")
    if out:
        summary = []
        for r in results:
            for label, manifest in r.manifests.items():
                _write(out / f"{r.number}-{label}.json", manifest.to_json() + "\n")
            # a digest leaves out the timestamp and duration, so the summary is the same every run
            summary.append(dict(number=r.number, name=r.name, passed=r.passed, detail=r.detail,
                                digests={k: m.digest() for k, m in r.manifests.items()}))
        _write(out / "reproduction_summary.json", json.dumps(summary, indent=2) + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECKS_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprbsim",
        description="Event-based EPRB simulation with coincidence post-selection",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, text: str, run, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        # a token of a minus and a digit, inf or nan is a value, so a list may
        # start with a negative number (argparse takes only -N and -N.N as numbers)
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
        p.set_defaults(func=_cmd_run, run=run)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    model = ("--tau", "--window", "--mode", "--d-exponent")
    events = ("--events", "--seed", "--workers")
    output = ("--out", "--format")
    command("sweep", "conditional correlation vs setting angle", run_correlation_sweep,
            "--config", *model, *events, "--alpha-grid", *output)
    command("chsh", "four-settings CHSH experiment with verdicts", run_chsh_experiment,
            "--config", *model, *events, "--settings", *output)
    # the audit sets tau per row and takes same-bin tagging only
    p_bounds = command("bounds", "audit simulated rates against analytic bounds",
                       run_bound_audit, "--config", "--mode", "--d-exponent", *events, *output)
    p_bounds.add_argument("--alpha-grid", dest="audit_alpha_deg", type=_csv_floats,
                          metavar="LIST", help="comma-separated audit angles in degrees")
    p_bounds.add_argument("--tau-grid", dest="audit_tau", type=_csv_floats,
                          metavar="LIST", help="comma-separated resolutions for the audit")

    command("reproduce-paper", "run the full default-parameter reproduction and print "
            "pass/fail lines (its checks are calibrated at the default seed)", None,
            "--seed", "--workers", "--out").set_defaults(func=_cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        config = _load_config(args)
        return args.func(args, config, _out_dir(args))
    except (ConfigError, EmptyEnsembleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY if isinstance(exc, EmptyEnsembleError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
