"""Traced in-process run: per-layer spans and counts.

The untraced benchmark times the eprbsim CLI from outside.  This module
replays a workload's setting pairs in-process through the layers' public
functions, once untraced (``runner.simulate_pair_stats`` and, for audit rows,
``bounds.check_simulated_gamma``) and once with a span around every call
into a layer.  The traced replay mirrors the runner's chunking and its one
pool per pair, so its counts must equal the untraced ones exactly; the
difference of the two wall times is the tracing overhead.

Spans are kept in memory and written as JSON when the run ends.
"""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor

from eprbsim.bounds import (
    check_simulated_gamma,
    equal_settings_quadrature,
    unequal_settings_quadrature,
)
from eprbsim.coincidence import accumulate, coincidence_mask
from eprbsim.model import CoincidenceMode, ModelParams, UnitVector3, event_stream, generate_batch
from eprbsim.runner import CHUNK_SIZE, simulate_pair_stats

from workloads import PAPER_TAU, PairRun, Workload, check_rows

CHUNK_LAYERS = ("event_stream", "generate_batch", "coincidence_mask", "reduction")

# A fixed probe that ends every traced round: one pooled pair in each
# coincidence mode (their chunks give the per-chunk layer times) and one
# audit row of each bound kind.  Its spans count toward the layer totals, so
# a layer the workload never calls still reports a measured time.
PROBE = (
    PairRun(0.0, 45.0, PAPER_TAU, PAPER_TAU, "same-bin", 2 * CHUNK_SIZE, 0, 2),
    PairRun(0.0, 45.0, PAPER_TAU, 1.0, "continuous", 2 * CHUNK_SIZE, 0, 2),
    PairRun(0.0, 0.0, 1e-3, 1e-3, "same-bin", CHUNK_SIZE // 8, 0, 1, audit=True),
    PairRun(0.0, 90.0, 1e-3, 1e-3, "same-bin", CHUNK_SIZE // 8, 0, 1, audit=True),
)

PER_LAYER = (
    ("model.event_stream.s", "s", "lower"),
    ("model.generate_batch.s", "s", "lower"),
    ("model.generate_batch.events_per_s", "1/s", "higher"),
    ("model.generate_batch.sys_s", "s", "lower"),
    ("model.generate_batch.minor_faults", "count", "lower"),
    ("coincidence.coincidence_mask.s", "s", "lower"),
    ("coincidence.accumulate.s", "s", "lower"),
    ("coincidence.reduction.s", "s", "lower"),
    ("coincidence.kept_fraction", "ratio", "higher"),
    ("runner.simulate_pair_stats.s", "s", "lower"),
    ("runner.simulate_pair_stats.per_pair_s", "s", "lower"),
    ("runner.chunks", "count", "lower"),
    ("runner.pools", "count", "lower"),
    ("runner.pool_overhead_s", "s", "lower"),
    ("runner.pool.sys_s", "s", "lower"),
    ("bounds.equal_settings_quadrature.s", "s", "lower"),
    ("bounds.unequal_settings_quadrature.s", "s", "lower"),
    ("bounds.quadrature_calls", "count", "lower"),
    ("cli.import_eprbsim_s", "s", "lower"),
    ("cli.import_scipy_integrate_s", "s", "lower"),
    *((f"chunk.{mode}.{layer}.s", "s", "lower")
      for mode in ("same_bin", "continuous") for layer in CHUNK_LAYERS),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _params(run: PairRun) -> ModelParams:
    return ModelParams(tau=run.tau, window=run.window, coincidence_mode=CoincidenceMode(run.mode))


def _tasks(run: PairRun, seed: int) -> list[tuple]:
    a1 = UnitVector3.from_angle_deg(run.theta1)
    a2 = UnitVector3.from_angle_deg(run.theta2)
    params = _params(run)
    return [
        (seed, run.stream, start, min(CHUNK_SIZE, run.events - start), a1, a2, params)
        for start in range(0, run.events, CHUNK_SIZE)
    ]


def traced_chunk(task: tuple) -> dict:
    """Run one chunk through the layers, timing each call (runs in a worker)."""
    seed, stream, start, size, a1, a2, params = task
    t0 = time.perf_counter()
    rng = event_stream(seed, start, stream=stream)
    t1 = time.perf_counter()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    batch = generate_batch(rng, a1, a2, params, size)
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    t2 = time.perf_counter()
    mask = coincidence_mask(batch.t1, batch.t2, params)
    t3 = time.perf_counter()
    stats = accumulate(batch, params)
    t4 = time.perf_counter()
    if int(mask.sum()) != stats.n_coincident:
        raise RuntimeError("coincidence_mask and accumulate disagree")
    return {
        "counts": (stats.n_total, stats.n_coincident, stats.sum_xy),
        "spans": [("chunk", t0, t4), ("event_stream", t0, t1), ("generate_batch", t1, t2),
                  ("coincidence_mask", t2, t3), ("accumulate", t3, t4)],
        "sys_s": ru1.ru_stime - ru0.ru_stime,
        "minor_faults": ru1.ru_minflt - ru0.ru_minflt,
    }


class Tracer:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.origin = time.perf_counter()

    def add(self, name: str, start: float, end: float, parent: int | None, trace: int,
            **attrs) -> int:
        span_id = len(self.spans) + 1
        self.spans.append({"id": span_id, "parent": parent, "trace": trace, "name": name,
                           "start": start - self.origin, "end": end - self.origin, **attrs})
        return span_id


def _untraced(run: PairRun, seed: int) -> dict:
    a1 = UnitVector3.from_angle_deg(run.theta1)
    a2 = UnitVector3.from_angle_deg(run.theta2)
    ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    stats = simulate_pair_stats(a1, a2, _params(run), run.events, seed,
                                stream=run.stream, workers=run.workers)
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    quadrature = None
    if run.audit:
        quadrature = check_simulated_gamma(stats, math.radians(run.theta2 - run.theta1),
                                           run.tau).quadrature
    return {
        "counts": (stats.n_total, stats.n_coincident, stats.sum_xy),
        "pair_s": t1 - t0,
        "wall_s": time.perf_counter() - t0,
        "pool_sys_s": ru1.ru_stime - ru0.ru_stime,
        "quadrature": quadrature,
    }


def _traced(run: PairRun, seed: int, tracer: Tracer, parent: int, trace: int) -> dict:
    tasks = _tasks(run, seed)
    pooled = run.workers > 1 and len(tasks) > 1
    t0 = time.perf_counter()
    op = tracer.add("pair", t0, t0, parent, trace, events=run.events, chunks=len(tasks),
                    pooled=pooled)
    if pooled:
        # the runner's pool: default start method, one pool per pair
        with ProcessPoolExecutor(max_workers=run.workers) as pool:
            parts = list(pool.map(traced_chunk, tasks, chunksize=1))
    else:
        parts = [traced_chunk(t) for t in tasks]
    for part in parts:
        (_, c0, c1), *layers = part["spans"]
        chunk = tracer.add("chunk", c0, c1, op, trace, events=part["counts"][0],
                           sys_s=part["sys_s"], minor_faults=part["minor_faults"])
        for name, s0, s1 in layers:
            tracer.add(name, s0, s1, chunk, trace)
    quadrature = None
    if run.audit:
        alpha = math.radians(run.theta2 - run.theta1)
        q0 = time.perf_counter()
        if alpha == 0.0:
            quadrature = equal_settings_quadrature(run.tau)
            name = "bounds.equal_settings_quadrature"
        else:
            quadrature = unequal_settings_quadrature(alpha, run.tau)
            name = "bounds.unequal_settings_quadrature"
        tracer.add(name, q0, time.perf_counter(), op, trace)
    t1 = time.perf_counter()
    tracer.spans[op - 1]["end"] = t1 - tracer.origin
    return {
        "counts": tuple(sum(p["counts"][k] for p in parts) for k in range(3)),
        "wall_s": t1 - t0,
        "parts": parts,
        "pooled": pooled,
        "quadrature": quadrature,
    }


def import_times(python: str, env: dict, cwd: str) -> dict[str, float]:
    """Cumulative import times, in seconds, from a fresh ``-X importtime``."""
    proc = subprocess.run([python, "-X", "importtime", "-c", "import eprbsim"],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import eprbsim failed: {proc.stderr[-400:]}")
    times = {}
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            times[fields[2].strip()] = int(fields[1]) * 1e-6
    return {"cli.import_eprbsim_s": times["eprbsim"],
            "cli.import_scipy_integrate_s": times.get("scipy.integrate", 0.0)}


def _layer_sum(tracer: Tracer, trace: int, name: str) -> float:
    return sum(s["end"] - s["start"] for s in tracer.spans
               if s["trace"] == trace and s["name"] == name)


def _chunk_medians(parts: list[dict], mode: str) -> dict[str, float]:
    per_layer = {layer: [] for layer in CHUNK_LAYERS}
    for part in parts:
        d = {name: s1 - s0 for name, s0, s1 in part["spans"]}
        d["reduction"] = d["accumulate"] - d["coincidence_mask"]
        for layer in CHUNK_LAYERS:
            per_layer[layer].append(d[layer])
    return {f"chunk.{mode}.{layer}.s": statistics.median(v) for layer, v in per_layer.items()}


def traced_round(workload: Workload, events: int, seed: int, tracer: Tracer, trace: int,
                 python: str, env: dict, cwd: str) -> tuple[dict, list[bool], list[str]]:
    """One traced round of a workload plus the probe; returns the per-layer
    metrics, one pass flag per workload operation, and failure messages."""
    t0 = time.perf_counter()
    round_id = tracer.add("round", t0, t0, None, trace, workload=workload.name,
                          events=events, seed=seed)
    runs = workload.pair_runs(events)
    records = []
    # the probe's inputs do not depend on the workload seed
    for run, run_seed in [(r, seed) for r in runs] + [(p, 1) for p in PROBE]:
        u = _untraced(run, run_seed)
        t = _traced(run, run_seed, tracer, round_id, trace)
        records.append((run, u, t))
    work, probe = records[:len(runs)], records[len(runs):]

    ok, msgs = [], []
    for run, u, t in records:
        same = u["counts"] == t["counts"] and u["quadrature"] == t["quadrature"]
        if not same:
            msgs.append(f"traced replay differs for {run}: {u['counts']} vs {t['counts']}")
        ok.append(same)
    rows = [dict(zip(("n_total", "n_coincident", "sum_xy"), u["counts"]),
                 quadrature=u["quadrature"]) for _, u, _ in work]
    check_ok, check_msgs = check_rows(workload, rows, events)
    msgs += check_msgs
    # a probe pair that replays differently fails the whole round
    op_ok = [a and b and all(ok[len(runs):]) for a, b in zip(ok[:len(runs)], check_ok)]

    parts = [p for _, _, t in records for p in t["parts"]]
    gen_s = _layer_sum(tracer, trace, "generate_batch")
    mask_s = _layer_sum(tracer, trace, "coincidence_mask")
    acc_s = _layer_sum(tracer, trace, "accumulate")
    pooled = [(r, u, t) for r, u, t in records if t["pooled"]]
    metrics = {
        "model.event_stream.s": _layer_sum(tracer, trace, "event_stream"),
        "model.generate_batch.s": gen_s,
        "model.generate_batch.events_per_s": sum(p["counts"][0] for p in parts) / gen_s,
        "model.generate_batch.sys_s": sum(p["sys_s"] for p in parts),
        "model.generate_batch.minor_faults": sum(p["minor_faults"] for p in parts),
        "coincidence.coincidence_mask.s": mask_s,
        "coincidence.accumulate.s": acc_s,
        "coincidence.reduction.s": acc_s - mask_s,
        "coincidence.kept_fraction": (sum(u["counts"][1] for _, u, _ in work)
                                      / sum(u["counts"][0] for _, u, _ in work)),
        "runner.simulate_pair_stats.s": sum(u["pair_s"] for _, u, _ in records),
        "runner.simulate_pair_stats.per_pair_s": statistics.median(u["pair_s"] for _, u, _ in work),
        "runner.chunks": len(parts),
        "runner.pools": len(pooled),
        # wall time at W workers minus the chunks' own time spread over the
        # workers that had a chunk to run
        "runner.pool_overhead_s": sum(
            u["pair_s"] - sum(p["spans"][0][2] - p["spans"][0][1] for p in t["parts"])
            / min(len(t["parts"]), r.workers)
            for r, u, t in pooled),
        "runner.pool.sys_s": sum(u["pool_sys_s"] for _, u, _ in pooled),
        "bounds.equal_settings_quadrature.s":
            _layer_sum(tracer, trace, "bounds.equal_settings_quadrature"),
        "bounds.unequal_settings_quadrature.s":
            _layer_sum(tracer, trace, "bounds.unequal_settings_quadrature"),
        "bounds.quadrature_calls": sum(1 for r, _, _ in records if r.audit),
        **import_times(python, env, cwd),
        **_chunk_medians(probe[0][2]["parts"], "same_bin"),
        **_chunk_medians(probe[1][2]["parts"], "continuous"),
        "trace.untraced_s": sum(u["wall_s"] for _, u, _ in records),
        "trace.traced_s": sum(t["wall_s"] for _, _, t in records),
    }
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    tracer.spans[round_id - 1]["end"] = time.perf_counter() - tracer.origin
    return metrics, op_ok, msgs
