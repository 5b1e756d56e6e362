"""Experiment orchestration: configs, seeded parallel runs, manifests.

Event generation is split into fixed-size chunks; each chunk owns a
counter-based random stream keyed by (seed, stream index, chunk start).
Each run (a sweep, a CHSH experiment, a bound audit) is one flat plan: the
chunks of all its setting pairs, each pair with its own model parameters and
stream index, served by one process pool, or run in-process for one worker.
Each chunk is counted block by block by ``coincidence.chunk_counts``.
Partial counts are integers, summed per pair in plan order, so results are
bit-identical for any worker count, any completion order and any block
size.  The chunk size is part of the algorithm, not configuration:
changing it would change the sampled stream.

Each run returns its ``RunManifest``, the one record of its numbers: the
CLI renders and writes it, and the reproduction checks read its
``results``.  A sweep row holds the pair's ``CoincidenceStats`` fields plus
``alpha_deg``, ``reference_minus_cos`` and ``flagged``; a CHSH run holds
each pair's fields under ``pairs`` and the ``InequalityReport`` under
``report``; an audit row holds a ``BoundReport`` with its angle as
``alpha_deg``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from enum import Enum

from . import __version__
from .bell import PAIR_LABELS, verdict
from .bounds import UNEQUAL_QUAD_MIN_DEG, BoundReport, check_simulated_gamma
from .coincidence import CoincidenceStats, chunk_counts
from .model import CoincidenceMode, ModelParams, UnitVector3

__all__ = [
    "ConfigError",
    "EmptyEnsembleError",
    "ExperimentConfig",
    "RunManifest",
    "simulate_pair_stats",
    "run_correlation_sweep",
    "run_chsh_experiment",
    "run_bound_audit",
]

CHUNK_SIZE = 1 << 19
# events per setting pair: a plan holds all its 2^17 chunk tasks, 17.5 MiB
MAX_EVENTS = 1 << 36

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


_EXPECTED = {tuple: "a list of numbers", float: "a number", int: "an integer"}


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _record(obj) -> dict:
    """A dataclass as a JSON-ready dict of its fields: enums by value,
    tuples as lists."""
    def plain(value):
        if isinstance(value, Enum):
            return value.value
        return list(value) if isinstance(value, tuple) else value

    return asdict(obj, dict_factory=lambda items: {k: plain(v) for k, v in items})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines an experiment, plus the worker count.

    The worker count influences wall-clock time only, never results; it is
    excluded from the manifest's reproducibility digest.
    """

    settings_deg: tuple[float, float, float, float] = DEFAULT_SETTINGS
    alpha_grid_deg: tuple[float, ...] = DEFAULT_ALPHA_GRID
    tau: float = ModelParams.tau
    window: float = ModelParams.window
    d_exponent: float = ModelParams.d_exponent
    coincidence_mode: CoincidenceMode = ModelParams.coincidence_mode
    n_events: int = 10_000_000
    seed: int = DEFAULT_SEED
    workers: int = 1
    audit_alpha_deg: tuple[float, ...] = DEFAULT_AUDIT_ALPHA
    audit_tau: tuple[float, ...] = DEFAULT_AUDIT_TAU

    def __post_init__(self) -> None:
        # each field takes the type of its default: a tuple field takes a list
        # or tuple of real numbers, a float field any real number, both stored
        # as floats; the others take their exact type
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if kind is tuple:
                ok = isinstance(value, (list, tuple)) and all(map(_is_real, value))
            else:
                ok = _is_real(value) if kind is float else type(value) is kind
            if not ok:
                expected = _EXPECTED.get(kind, kind.__name__)
                raise ConfigError(f"{f.name} must be {expected}, got {value!r}")
            if kind in (tuple, float):
                try:
                    value = tuple(map(float, value)) if kind is tuple else float(value)
                except OverflowError:
                    raise ConfigError(f"{f.name} holds a number too large for a float") from None
                object.__setattr__(self, f.name, value)
        if len(self.settings_deg) != 4:
            raise ConfigError("settings_deg must hold exactly four angles")
        for name in ("settings_deg", "alpha_grid_deg", "audit_alpha_deg"):
            if not all(math.isfinite(a) for a in getattr(self, name)):
                raise ConfigError(f"{name} must contain finite angles")
        for name in ("alpha_grid_deg", "audit_alpha_deg", "audit_tau"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must not be empty")
        try:
            self.model_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 1 <= self.n_events <= MAX_EVENTS:
            raise ConfigError(f"n_events must be in [1, 2^36 = {MAX_EVENTS}], got {self.n_events}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit non-negative integer")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not all(0.0 <= a <= 180.0 for a in self.audit_alpha_deg):
            raise ConfigError(
                f"audit_alpha_deg values must be in [0, 180], got {list(self.audit_alpha_deg)}"
            )
        near = [a for a in self.audit_alpha_deg if 0.0 < min(a, 180.0 - a) < UNEQUAL_QUAD_MIN_DEG]
        if near:
            raise ConfigError(
                f"audit_alpha_deg values other than 0 and 180 must lie at least "
                f"{UNEQUAL_QUAD_MIN_DEG} degrees from both, where the unequal-settings "
                f"quadrature holds its tolerance; got {near}"
            )
        for tau in self.audit_tau:
            try:
                self.audit_params(tau)
            except ValueError as exc:
                raise ConfigError(f"audit_tau: {exc}") from None

    def model_params(self) -> ModelParams:
        return ModelParams(
            tau=self.tau,
            window=self.window,
            d_exponent=self.d_exponent,
            coincidence_mode=self.coincidence_mode,
        )

    def audit_params(self, tau: float) -> ModelParams:
        """The model parameters of the audit rows at resolution ``tau``:
        same-bin tagging, whose cut is ``tau``."""
        return replace(self.model_params(), tau=tau, coincidence_mode=CoincidenceMode.SAME_BIN)

    def to_dict(self) -> dict:
        return _record(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "coincidence_mode" in kwargs:
            try:
                kwargs["coincidence_mode"] = CoincidenceMode(kwargs["coincidence_mode"])
            except ValueError:
                names = " or ".join(repr(m.value) for m in CoincidenceMode)
                raise ConfigError(f"coincidence_mode must be {names}, "
                                  f"got {kwargs['coincidence_mode']!r}") from None
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# chunked, worker-count-independent simulation


# One setting pair of a plan: settings, model parameters and stream index.
PlanPair = tuple[UnitVector3, UnitVector3, ModelParams, int]


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def simulate_plan(
    pairs: list[PlanPair], n_events: int, seed: int, workers: int = 1
) -> list[CoincidenceStats]:
    """Simulate every pair of a run, ``n_events`` each, as one flat plan.

    The chunks of all pairs form one task list, served by one pool of up to
    ``workers`` processes, and no more than there are tasks or CPUs to run
    them (or run in-process).  Each chunk's stream is keyed by (seed,
    stream, chunk start), and the integer counts are summed per pair in
    plan order, so the results depend neither on the worker count nor on
    the completion order.  ``n_events`` outside [1, MAX_EVENTS] is refused
    before the plan is built.
    """
    if not 1 <= n_events <= MAX_EVENTS:
        raise ValueError(f"n_events must be in [1, 2^36 = {MAX_EVENTS}], got {n_events}")
    starts = range(0, n_events, CHUNK_SIZE)
    tasks = [
        (seed, stream, start, min(CHUNK_SIZE, n_events - start), a1, a2, params)
        for a1, a2, params, stream in pairs
        for start in starts
    ]
    pool_size = min(workers, len(tasks), _available_cpus())
    if pool_size > 1:
        # imported here, so an in-process run never loads the pool's
        # multiprocessing machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            counts = list(pool.map(chunk_counts, tasks, chunksize=1))
    else:
        counts = list(map(chunk_counts, tasks))
    stats = []
    for i, (_, _, params, _) in enumerate(pairs):
        parts = counts[i * len(starts):(i + 1) * len(starts)]
        n, n_c, sum_xy = (sum(column) for column in zip(*parts))
        stats.append(CoincidenceStats(n, n_c, sum_xy, params))
    return stats


def _simulate_rows(rows: list[tuple], config: ExperimentConfig) -> list[CoincidenceStats]:
    """The statistics of each row (theta1, theta2, params) of a run, its
    settings in degrees; row i draws stream i."""
    plan = [(UnitVector3.from_angle_deg(th1), UnitVector3.from_angle_deg(th2), params, i)
            for i, (th1, th2, params) in enumerate(rows)]
    return simulate_plan(plan, config.n_events, config.seed, config.workers)


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


@dataclass(frozen=True)
class RunManifest:
    """Config snapshot plus results, serializable to structured text.

    ``reproducible_json`` covers every field but the timestamp and the
    duration, with the config minus its worker count; it is bit-identical
    for identical (seed, config) regardless of worker count.
    """

    kind: str
    config: dict
    results: dict
    version: str = __version__
    created_utc: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())
    duration_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        # keys that are not fields, such as the top-level worker count of
        # older manifests, are ignored
        data = json.loads(text)
        return cls(**{f.name: data[f.name] for f in fields(cls)})

    def reproducible_json(self) -> str:
        payload = asdict(self)
        del payload["created_utc"], payload["duration_s"]
        payload["config"].pop("workers", None)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.reproducible_json().encode("utf-8")).hexdigest()


def _make_manifest(kind: str, config: ExperimentConfig, results: dict, t0: float) -> RunManifest:
    return RunManifest(
        kind=kind,
        config=config.to_dict(),
        results=results,
        duration_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# correlation sweep


def run_correlation_sweep(config: ExperimentConfig) -> RunManifest:
    """Conditional correlation versus setting angle.

    Angles with zero surviving coincidences are flagged and the sweep
    continues; the undefined correlation is left empty, never zeroed.
    """
    t0 = time.perf_counter()
    params = config.model_params()
    all_stats = _simulate_rows([(0.0, alpha, params) for alpha in config.alpha_grid_deg], config)
    results = {
        "rows": [
            {
                "alpha_deg": alpha_deg,
                "reference_minus_cos": -math.cos(math.radians(alpha_deg)),
                "flagged": not stats.has_correlation,
                **_record(stats),
            }
            for alpha_deg, stats in zip(config.alpha_grid_deg, all_stats)
        ]
    }
    return _make_manifest("sweep", config, results, t0)


# ---------------------------------------------------------------------------
# four-settings CHSH experiment


def run_chsh_experiment(config: ExperimentConfig) -> RunManifest:
    """Simulate the four CHSH setting pairs and evaluate both inequalities."""
    t0 = time.perf_counter()
    params = config.model_params()
    angle = dict(zip("abcd", config.settings_deg))
    pair_angles = {label: (angle[label[0]], angle[label[1]]) for label in PAIR_LABELS}
    all_stats = _simulate_rows([(*pair_angles[label], params) for label in PAIR_LABELS], config)
    pair_stats = dict(zip(PAIR_LABELS, all_stats))
    for label in PAIR_LABELS:
        if pair_stats[label].n_coincident == 0:
            th1, th2 = pair_angles[label]
            raise EmptyEnsembleError(
                f"empty coincidence ensemble for pair {label} "
                f"(settings {th1} deg, {th2} deg)"
            )
    report = verdict([s.e_conditional for s in all_stats], [s.gamma_hat for s in all_stats],
                     [s.stderr_e for s in all_stats])
    results = {
        "pairs": {label: _record(pair_stats[label]) for label in PAIR_LABELS},
        "pair_settings_deg": {label: list(pair_angles[label]) for label in PAIR_LABELS},
        "report": _record(report),
    }
    return _make_manifest("chsh", config, results, t0)


# ---------------------------------------------------------------------------
# bound audit


def _audit_row(report: BoundReport) -> dict:
    """A report as a manifest row, with the angle in degrees."""
    row = _record(report)
    row["alpha_deg"] = math.degrees(row.pop("alpha"))
    return row


def run_bound_audit(config: ExperimentConfig) -> RunManifest:
    """Simulated coincidence rates against the analytic bounds on a
    (tau, alpha) grid; same-bin tagging at each resolution tau throughout,
    and the d = 3 delay law of every closed form and quadrature."""
    if config.coincidence_mode is not CoincidenceMode.SAME_BIN:
        raise ConfigError("the bound audit requires same-bin mode")
    if config.d_exponent != 3.0:
        raise ConfigError(
            f"the bound audit's closed forms and quadratures hold for d = 3 only, "
            f"got d_exponent = {config.d_exponent}"
        )
    t0 = time.perf_counter()
    grid = [(tau, alpha_deg) for tau in config.audit_tau for alpha_deg in config.audit_alpha_deg]
    all_stats = _simulate_rows([(0.0, a, config.audit_params(tau)) for tau, a in grid], config)
    results = {"rows": [
        _audit_row(check_simulated_gamma(stats, math.radians(alpha_deg), tau))
        for (tau, alpha_deg), stats in zip(grid, all_stats)
    ]}
    return _make_manifest("bounds", config, results, t0)

