"""Experiment orchestration: configs, seeded parallel runs, manifests.

Event generation is split into fixed-size chunks; each chunk owns a
counter-based random stream keyed by (seed, stream index, chunk start).
Each run (a sweep, a CHSH experiment, a bound audit) is one flat plan: the
chunks of all its setting pairs, each pair with its own model parameters and
stream index, served by one process pool, or run in-process for one worker.
Every process generates its chunks into one reusable workspace that lives as
long as the plan.  Partial counts are integers, summed per pair in plan
order, so results are bit-identical for any worker count and any completion
order.  The chunk size is part of the algorithm, not configuration: changing
it would change the sampled stream.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__
from .bell import CorrelationQuartet, InequalityReport, verdict
from .bounds import (
    EQUAL_QUAD_REL_TOL,
    UNEQUAL_QUAD_REL_TOL,
    BoundReport,
    check_simulated_gamma,
    equal_settings_apply,
)
from .coincidence import CoincidenceStats, _counts_from_batch
from .model import (
    CoincidenceMode,
    ModelParams,
    UnitVector3,
    Workspace,
    event_stream,
    generate_batch,
)

__all__ = [
    "ConfigError",
    "EmptyEnsembleError",
    "ExperimentConfig",
    "RunManifest",
    "SweepRow",
    "SweepResult",
    "ChshResult",
    "BoundAuditResult",
    "simulate_pair_stats",
    "run_correlation_sweep",
    "run_chsh_experiment",
    "run_bound_audit",
]

CHUNK_SIZE = 1 << 19

DEFAULT_SEED = 20060913
DEFAULT_ALPHA_GRID = tuple(float(a) for a in range(0, 181, 15))
DEFAULT_SETTINGS = (0.0, 90.0, 45.0, 135.0)
DEFAULT_AUDIT_ALPHA = (0.0, 30.0, 90.0, 150.0)
DEFAULT_AUDIT_TAU = (1e-2, 1e-3)


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 1)."""


class EmptyEnsembleError(RuntimeError):
    """No coincidences survived post-selection where some were required
    (CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines an experiment, plus the worker count.

    The worker count influences wall-clock time only, never results; it is
    excluded from the manifest's reproducibility digest.
    """

    settings_deg: tuple[float, float, float, float] = DEFAULT_SETTINGS
    alpha_grid_deg: tuple[float, ...] = DEFAULT_ALPHA_GRID
    tau: float = 0.00025
    window: float = 0.00025
    d_exponent: float = 3.0
    coincidence_mode: CoincidenceMode = CoincidenceMode.SAME_BIN
    n_events: int = 10_000_000
    seed: int = DEFAULT_SEED
    workers: int = 1
    audit_alpha_deg: tuple[float, ...] = DEFAULT_AUDIT_ALPHA
    audit_tau: tuple[float, ...] = DEFAULT_AUDIT_TAU

    def __post_init__(self) -> None:
        if len(self.settings_deg) != 4:
            raise ConfigError("settings_deg must hold exactly four angles")
        for name in ("settings_deg", "alpha_grid_deg", "audit_alpha_deg"):
            if not all(math.isfinite(a) for a in getattr(self, name)):
                raise ConfigError(f"{name} must contain finite angles")
        if not self.alpha_grid_deg:
            raise ConfigError("alpha_grid_deg must not be empty")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must be in (0, 1], got {self.tau}")
        if not 0.0 < self.window <= 1.0:
            raise ConfigError(f"window must be in (0, 1], got {self.window}")
        if not (math.isfinite(self.d_exponent) and self.d_exponent > 0.0):
            raise ConfigError(f"d_exponent must be finite and > 0, got {self.d_exponent}")
        if self.n_events < 1:
            raise ConfigError(f"n_events must be >= 1, got {self.n_events}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit non-negative integer")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not all(0.0 <= a <= 180.0 for a in self.audit_alpha_deg):
            raise ConfigError(
                f"audit_alpha_deg values must be in [0, 180], got {list(self.audit_alpha_deg)}"
            )
        if not self.audit_tau or not all(0.0 < t <= 1.0 for t in self.audit_tau):
            raise ConfigError("audit_tau values must be in (0, 1]")

    def model_params(self) -> ModelParams:
        return ModelParams(
            tau=self.tau,
            window=self.window,
            d_exponent=self.d_exponent,
            coincidence_mode=self.coincidence_mode,
        )

    def to_dict(self) -> dict:
        return {
            "settings_deg": list(self.settings_deg),
            "alpha_grid_deg": list(self.alpha_grid_deg),
            "tau": self.tau,
            "window": self.window,
            "d_exponent": self.d_exponent,
            "coincidence_mode": self.coincidence_mode.value,
            "n_events": self.n_events,
            "seed": self.seed,
            "workers": self.workers,
            "audit_alpha_deg": list(self.audit_alpha_deg),
            "audit_tau": list(self.audit_tau),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {
            "settings_deg",
            "alpha_grid_deg",
            "tau",
            "window",
            "d_exponent",
            "coincidence_mode",
            "n_events",
            "seed",
            "workers",
            "audit_alpha_deg",
            "audit_tau",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        for key in ("settings_deg", "alpha_grid_deg", "audit_alpha_deg", "audit_tau"):
            if key in kwargs:
                kwargs[key] = tuple(float(v) for v in kwargs[key])
        if "coincidence_mode" in kwargs and not isinstance(
            kwargs["coincidence_mode"], CoincidenceMode
        ):
            try:
                kwargs["coincidence_mode"] = CoincidenceMode(kwargs["coincidence_mode"])
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# chunked, worker-count-independent simulation


# One setting pair of a plan: settings, model parameters and stream index.
PlanPair = tuple[UnitVector3, UnitVector3, ModelParams, int]

# The workspace of a pool worker, made by _init_worker when the worker starts
# and gone when the plan's pool shuts down; the parent process never sets it.
_worker_workspace: Workspace | None = None


def _init_worker(capacity: int) -> None:
    global _worker_workspace
    _worker_workspace = Workspace(capacity)


def _chunk_counts(task: tuple, workspace: Workspace) -> tuple[int, int, int]:
    seed, stream, start, size, a1, a2, params = task
    rng = event_stream(seed, start, stream=stream)
    batch = generate_batch(rng, a1, a2, params, size, workspace=workspace)
    return _counts_from_batch(batch, params, workspace)


def _pooled_chunk_counts(task: tuple) -> tuple[int, int, int]:
    return _chunk_counts(task, _worker_workspace)


def simulate_plan(
    pairs: list[PlanPair], n_events: int, seed: int, workers: int = 1
) -> list[CoincidenceStats]:
    """Simulate every pair of a run, ``n_events`` each, as one flat plan.

    The chunks of all pairs form one task list, served by one pool of up to
    ``workers`` processes (or run in-process); each worker fills one
    reusable workspace, which lives as long as the plan.  Each chunk's
    stream is keyed by (seed, stream, chunk start), and the integer counts
    are summed per pair in plan order, so the results depend neither on the
    worker count nor on the completion order.
    """
    starts = range(0, n_events, CHUNK_SIZE)
    tasks = [
        (seed, stream, start, min(CHUNK_SIZE, n_events - start), a1, a2, params)
        for a1, a2, params, stream in pairs
        for start in starts
    ]
    capacity = min(CHUNK_SIZE, n_events)
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)),
            initializer=_init_worker,
            initargs=(capacity,),
        ) as pool:
            counts = list(pool.map(_pooled_chunk_counts, tasks, chunksize=1))
    else:
        workspace = Workspace(capacity)
        counts = [_chunk_counts(t, workspace) for t in tasks]
    stats = []
    for i, (_, _, params, _) in enumerate(pairs):
        parts = counts[i * len(starts):(i + 1) * len(starts)]
        n, n_c, sum_xy = (sum(column) for column in zip(*parts))
        stats.append(CoincidenceStats.from_counts(n, n_c, sum_xy, params=params))
    return stats


def simulate_pair_stats(
    a1: UnitVector3,
    a2: UnitVector3,
    params: ModelParams,
    n_events: int,
    seed: int,
    stream: int = 0,
    workers: int = 1,
) -> CoincidenceStats:
    """Simulate one setting pair and accumulate coincidence statistics.

    ``stream`` isolates the random streams of different setting pairs within
    one experiment; results depend on (seed, stream, n_events) only.
    """
    return simulate_plan([(a1, a2, params, stream)], n_events, seed, workers)[0]


# ---------------------------------------------------------------------------
# manifests


def _stats_dict(stats: CoincidenceStats) -> dict:
    return {
        "n_total": stats.n_total,
        "n_coincident": stats.n_coincident,
        "sum_xy": stats.sum_xy,
        "gamma_hat": stats.gamma_hat,
        "stderr_gamma": stats.stderr_gamma,
        "e_conditional": stats.e_conditional,
        "stderr_e": stats.stderr_e,
        "mode": stats.mode.value if stats.mode else None,
        "window": stats.window,
        "tau": stats.tau,
    }


@dataclass(frozen=True)
class RunManifest:
    """Config snapshot plus results, serializable to structured text.

    ``reproducible_json`` covers kind, version, config (minus workers) and
    results; it is bit-identical for identical (seed, config) regardless of
    worker count.  Timestamps and durations live outside it.
    """

    kind: str
    config: dict
    results: dict
    version: str = __version__
    created_utc: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())
    duration_s: float = 0.0
    workers: int = 1

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "config": self.config,
            "results": self.results,
            "version": self.version,
            "created_utc": self.created_utc,
            "duration_s": self.duration_s,
            "workers": self.workers,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        data = json.loads(text)
        return cls(
            kind=data["kind"],
            config=data["config"],
            results=data["results"],
            version=data["version"],
            created_utc=data["created_utc"],
            duration_s=data["duration_s"],
            workers=data["workers"],
        )

    def reproducible_json(self) -> str:
        config = {k: v for k, v in self.config.items() if k != "workers"}
        payload = {
            "kind": self.kind,
            "version": self.version,
            "config": config,
            "results": self.results,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.reproducible_json().encode("utf-8")).hexdigest()


def _make_manifest(kind: str, config: ExperimentConfig, results: dict, t0: float) -> RunManifest:
    return RunManifest(
        kind=kind,
        config=config.to_dict(),
        results=results,
        duration_s=time.perf_counter() - t0,
        workers=config.workers,
    )


# ---------------------------------------------------------------------------
# correlation sweep


@dataclass(frozen=True)
class SweepRow:
    """One angle of the correlation sweep, with the -cos(alpha) reference."""

    alpha_deg: float
    stats: CoincidenceStats
    reference: float

    @property
    def flagged(self) -> bool:
        return not self.stats.has_correlation


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    manifest: RunManifest


def run_correlation_sweep(config: ExperimentConfig) -> SweepResult:
    """Conditional correlation versus setting angle.

    Angles with zero surviving coincidences are flagged and the sweep
    continues; the undefined correlation is left empty, never zeroed.
    """
    t0 = time.perf_counter()
    params = config.model_params()
    a1 = UnitVector3.from_angle_deg(0.0)
    plan = [
        (a1, UnitVector3.from_angle_deg(alpha_deg), params, i)
        for i, alpha_deg in enumerate(config.alpha_grid_deg)
    ]
    all_stats = simulate_plan(plan, config.n_events, config.seed, config.workers)
    rows = [
        SweepRow(
            alpha_deg=alpha_deg,
            stats=stats,
            reference=-math.cos(math.radians(alpha_deg)),
        )
        for alpha_deg, stats in zip(config.alpha_grid_deg, all_stats)
    ]
    results = {
        "rows": [
            {
                "alpha_deg": r.alpha_deg,
                "reference_minus_cos": r.reference,
                "flagged": r.flagged,
                **_stats_dict(r.stats),
            }
            for r in rows
        ]
    }
    return SweepResult(rows=rows, manifest=_make_manifest("sweep", config, results, t0))


# ---------------------------------------------------------------------------
# four-settings CHSH experiment

PAIR_LABELS = ("ac", "ad", "bc", "bd")


@dataclass(frozen=True)
class ChshResult:
    pair_stats: dict[str, CoincidenceStats]
    quartet: CorrelationQuartet
    report: InequalityReport
    manifest: RunManifest


def run_chsh_experiment(config: ExperimentConfig) -> ChshResult:
    """Simulate the four CHSH setting pairs and evaluate both inequalities."""
    t0 = time.perf_counter()
    params = config.model_params()
    a, b, c, d = config.settings_deg
    pair_angles = {"ac": (a, c), "ad": (a, d), "bc": (b, c), "bd": (b, d)}
    plan = [
        (UnitVector3.from_angle_deg(th1), UnitVector3.from_angle_deg(th2), params, i)
        for i, (th1, th2) in enumerate(pair_angles[label] for label in PAIR_LABELS)
    ]
    all_stats = simulate_plan(plan, config.n_events, config.seed, config.workers)
    pair_stats = dict(zip(PAIR_LABELS, all_stats))
    for label in PAIR_LABELS:
        if pair_stats[label].n_coincident == 0:
            th1, th2 = pair_angles[label]
            raise EmptyEnsembleError(
                f"empty coincidence ensemble for pair {label} "
                f"(settings {th1} deg, {th2} deg)"
            )
    quartet = CorrelationQuartet(
        e_ac=pair_stats["ac"].e_conditional,
        e_ad=pair_stats["ad"].e_conditional,
        e_bc=pair_stats["bc"].e_conditional,
        e_bd=pair_stats["bd"].e_conditional,
        gamma_ac=pair_stats["ac"].gamma_hat,
        gamma_ad=pair_stats["ad"].gamma_hat,
        gamma_bc=pair_stats["bc"].gamma_hat,
        gamma_bd=pair_stats["bd"].gamma_hat,
        stderr_e_ac=pair_stats["ac"].stderr_e,
        stderr_e_ad=pair_stats["ad"].stderr_e,
        stderr_e_bc=pair_stats["bc"].stderr_e,
        stderr_e_bd=pair_stats["bd"].stderr_e,
    )
    report = verdict(quartet)
    results = {
        "pairs": {label: _stats_dict(pair_stats[label]) for label in PAIR_LABELS},
        "pair_settings_deg": {label: list(pair_angles[label]) for label in PAIR_LABELS},
        "report": {
            "chsh_lhs": report.chsh_lhs,
            "chsh_stderr": report.chsh_stderr,
            "gamma_min": report.gamma_min,
            "gammas": list(report.gammas),
            "modified_bound": report.modified_bound,
            "violates_chsh": report.violates_chsh,
            "violates_modified": report.violates_modified,
            "gamma_threshold_for_lhs": report.gamma_threshold_for_lhs,
        },
    }
    return ChshResult(
        pair_stats=pair_stats,
        quartet=quartet,
        report=report,
        manifest=_make_manifest("chsh", config, results, t0),
    )


# ---------------------------------------------------------------------------
# bound audit


@dataclass(frozen=True)
class BoundAuditResult:
    reports: list[BoundReport]
    manifest: RunManifest


def run_bound_audit(config: ExperimentConfig) -> BoundAuditResult:
    """Simulated coincidence rates against the analytic bounds on a
    (tau, alpha) grid; same-bin tagging with W = tau throughout."""
    if config.coincidence_mode is not CoincidenceMode.SAME_BIN:
        raise ConfigError("the bound audit requires same-bin mode with W = tau")
    t0 = time.perf_counter()
    a1 = UnitVector3.from_angle_deg(0.0)
    grid = [(tau, alpha_deg) for tau in config.audit_tau for alpha_deg in config.audit_alpha_deg]
    plan = [
        (
            a1,
            UnitVector3.from_angle_deg(alpha_deg),
            ModelParams(
                tau=tau,
                window=tau,
                d_exponent=config.d_exponent,
                coincidence_mode=CoincidenceMode.SAME_BIN,
            ),
            stream,
        )
        for stream, (tau, alpha_deg) in enumerate(grid)
    ]
    all_stats = simulate_plan(plan, config.n_events, config.seed, config.workers)
    reports: list[BoundReport] = [
        check_simulated_gamma(stats, math.radians(alpha_deg), tau)
        for (tau, alpha_deg), stats in zip(grid, all_stats)
    ]
    results = {
        "rows": [
            {
                "alpha_deg": math.degrees(r.alpha),
                "tau": r.tau,
                "closed_form": r.closed_form,
                "quadrature": r.quadrature,
                "quad_rel_tol": (
                    EQUAL_QUAD_REL_TOL
                    if equal_settings_apply(r.alpha)
                    else UNEQUAL_QUAD_REL_TOL
                ),
                "simulated_gamma": r.simulated_gamma,
                "stderr_gamma": r.stderr_gamma,
                "satisfied": r.satisfied,
            }
            for r in reports
        ]
    }
    return BoundAuditResult(
        reports=reports, manifest=_make_manifest("bounds", config, results, t0)
    )


# ---------------------------------------------------------------------------
# tabular output


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])
    return buf.getvalue()


def rows_to_table(rows: list[dict], columns: list[str], precision: int = 6) -> str:
    def cell(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return f"{value:.{precision}g}"
        return str(value)

    grid = [columns] + [[cell(row.get(c)) for c in columns] for row in rows]
    widths = [max(len(r[i]) for r in grid) for i in range(len(columns))]
    lines = []
    for k, r in enumerate(grid):
        lines.append("  ".join(s.rjust(w) for s, w in zip(r, widths)))
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


SWEEP_COLUMNS = [
    "alpha_deg",
    "n_total",
    "n_coincident",
    "gamma_hat",
    "stderr_gamma",
    "e_conditional",
    "stderr_e",
    "reference_minus_cos",
    "flagged",
]

CHSH_COLUMNS = [
    "pair",
    "setting_1_deg",
    "setting_2_deg",
    "n_total",
    "n_coincident",
    "gamma_hat",
    "stderr_gamma",
    "e_conditional",
    "stderr_e",
]

BOUNDS_COLUMNS = [
    "alpha_deg",
    "tau",
    "closed_form",
    "quadrature",
    "quad_rel_tol",
    "simulated_gamma",
    "stderr_gamma",
    "satisfied",
]


def sweep_table_rows(result: SweepResult) -> list[dict]:
    return result.manifest.results["rows"]


def chsh_table_rows(result: ChshResult) -> list[dict]:
    rows = []
    for label in PAIR_LABELS:
        entry = dict(result.manifest.results["pairs"][label])
        th1, th2 = result.manifest.results["pair_settings_deg"][label]
        entry.update({"pair": label, "setting_1_deg": th1, "setting_2_deg": th2})
        rows.append(entry)
    return rows


def bounds_table_rows(result: BoundAuditResult) -> list[dict]:
    return result.manifest.results["rows"]
