"""Benchmark of the eprbsim command-line simulator.

Run from the root of an eprbsim checkout (the package is taken from ./src):

    python3 perfbench/run.py --workload chsh_10m --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke [--trace 1]

With ``--trace 0`` the benchmark runs the workload's CLI command in a child
process, in whole rounds, for about ``--seconds`` seconds, checks every
round's output and prints the end-to-end metrics (medians over rounds).  With
``--trace 1`` it replays the workload in-process with a span around each
call into a layer and prints the per-layer metrics instead.  ``--smoke`` runs
one round of every workload at small event counts.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, check_manifest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = (
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
MIN_ROUNDS = 3
TIME_LIMIT_S = 170.0  # every run must end within 180 s


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], deadline: float):
    """Run ``python -m eprbsim argv``; return exit code, wall time from spawn
    to exit, the resource usage of its whole process tree, and its stderr.

    The child leads its own process group, so a run past the deadline is
    killed together with any pool workers it started.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "eprbsim", *argv], cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)
    timer = threading.Timer(max(deadline - t0, 0.0), os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        err = proc.stderr.read().decode(errors="replace")
        proc.stderr.close()
        # wait4 reports the usage of the child plus every descendant it reaped
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, err


def run_round(workload, argv: list[str], events: int, outdir: Path, deadline: float):
    """One CLI run of the workload: its end-to-end figures, one pass flag per
    operation, failure messages, and the manifest (None if the run failed)."""
    n_ops = len(workload.pair_runs(events))
    shutil.rmtree(outdir, ignore_errors=True)
    code, wall, usage, err = spawn([*argv, "--out", str(outdir)], deadline)
    metrics = {
        "wall_s": wall,
        "events_per_s": n_ops * events / wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if code != 0:
        return metrics, [False] * n_ops, [f"exit code {code}: {err.strip()[-400:]}"], None
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
        ok, msgs = check_manifest(workload, manifest["results"], events)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return metrics, [False] * n_ops, [f"unreadable output: {exc!r}"], None
    return metrics, ok, msgs, manifest


def time_setup(workload, seed: int, deadline: float) -> tuple[float, bool]:
    """Wall time of the CLI up to the first event: interpreter start, import,
    argument parsing and config validation, stopped there by ``--events 0``,
    which the config rejects with exit code 1."""
    code, wall, _, err = spawn(workload.argv(seed, 0), deadline)
    return wall, code == 1 and "n_events" in err


def manifest_digest(manifest: dict) -> str:
    sys.path.insert(0, str(SRC))
    from eprbsim.runner import RunManifest

    return RunManifest.from_json(json.dumps(manifest)).digest()


def measure(workload, seed: int, seconds: float, smoke: bool, deadline: float) -> dict:
    """Untraced run: whole rounds of the CLI command for about ``seconds``."""
    events = workload.smoke_events if smoke else workload.events
    argv = workload.argv(seed, events)
    outdir = OUT / f"{workload.name}-{os.getpid()}"
    rounds, setups, attempted, failed, correct = [], [], 0, 0, True
    first = None
    start = time.perf_counter()
    try:
        while True:
            setup_s, setup_ok = time_setup(workload, seed, deadline)
            setups.append(setup_s)
            if not setup_ok:
                correct = False
                log("setup probe did not stop at config validation with exit code 1")
            metrics, ok, msgs, manifest = run_round(workload, argv, events, outdir, deadline)
            if manifest is not None:
                first = first or manifest
                if manifest["results"] != first["results"]:
                    ok = [False] * len(ok)
                    msgs.append("results differ from the first round of this run")
            rounds.append(metrics)
            attempted += len(ok)
            failed += ok.count(False)
            for msg in msgs:
                log(f"{workload.name} round {len(rounds)}: {msg}")
            log(f"{workload.name} round {len(rounds)}: wall {metrics['wall_s']:.3f} s, "
                f"setup {setup_s:.3f} s, {ok.count(False)} of {len(ok)} operations failed")
            now = time.perf_counter()
            next_round = statistics.median(r["wall_s"] for r in rounds) + statistics.median(setups)
            if now + next_round > deadline:
                break
            if smoke or (len(rounds) >= MIN_ROUNDS and now - start + next_round > seconds):
                break
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if first is not None:
        log(f"{workload.name} seed {seed} events {events}: manifest digest "
            f"{manifest_digest(first)}")
    values = {name: statistics.median(r[name] for r in rounds) for name, _ in END_TO_END[:-1]}
    values["setup_s"] = statistics.median(setups)
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }


def measure_traced(workload, seed: int, seconds: float, smoke: bool, deadline: float) -> dict:
    """Traced in-process run: whole rounds, at least one; medians over rounds."""
    sys.path.insert(0, str(SRC))
    import traced

    events = workload.smoke_events if smoke else workload.events
    tracer = traced.Tracer()
    rounds, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        metrics, ok, msgs = traced.traced_round(workload, events, seed, tracer, len(rounds),
                                                sys.executable, child_env(), str(ROOT))
        rounds.append(metrics)
        attempted += len(ok)
        failed += ok.count(False)
        for msg in msgs:
            log(f"{workload.name} traced round {len(rounds)}: {msg}")
        now = time.perf_counter()
        log(f"{workload.name} traced round {len(rounds)}: {now - t0:.3f} s, "
            f"tracing overhead {metrics['trace.overhead_s']:.4f} s")
        if smoke or now - start + (now - t0) > seconds or now + (now - t0) > deadline:
            break
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload.name, "seed": seed, "events": events,
                                "rounds": rounds, "spans": tracer.spans}) + "\n")
    log(f"wrote {len(tracer.spans)} spans to {path.relative_to(ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
                    for name, unit, _ in traced.PER_LAYER},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="passed to the CLI as --seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of every workload at small event counts")
    args = parser.parse_args()
    if not (SRC / "eprbsim" / "__init__.py").is_file():
        log(f"no eprbsim package under {SRC}; run from the root of an eprbsim checkout")
        return 2
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    deadline = time.perf_counter() + TIME_LIMIT_S
    run = measure_traced if args.trace else measure
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        result = run(WORKLOADS[name], args.seed, args.seconds, args.smoke, deadline)
        if args.smoke:
            print(json.dumps({"workload": name, **result}), flush=True)
        results.append(result)
    if args.smoke:
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
