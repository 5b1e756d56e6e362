"""The benchmark's workloads: the eprbsim CLI command each one runs, the
setting pairs it simulates, and the checks on its output.

Every check recomputes its reference value from the workload's own inputs
(angles, grids, event counts) with the closed forms below; none compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

GAMMA_0 = 3.0 - 3.0 / math.sqrt(2.0)  # coincidence rate needed to violate 6/gamma - 4

PAPER_TAU = 0.00025
CHSH_SETTINGS = (0.0, 90.0, 45.0, 135.0)
CHSH_LABELS = ("ac", "ad", "bc", "bd")
SWEEP_ALPHAS = tuple(float(a) for a in range(0, 181, 5))
BOUNDS_ALPHAS = (0.0, 60.0, 120.0)
# six points per decade from 1e-1 down to 1e-4
BOUNDS_TAUS = tuple(float(f"{10.0 ** (-1.0 - k / 6.0):.6g}") for k in range(19))

# Allowance for the finite-tau bias of E at tau = W = 0.00025, on top of five
# standard errors; the reproduce-paper sweep check sees deviations under 0.01.
FINITE_TAU_E_TOL = 0.02
CHSH_MIN = 2.6
TRIANGLE_E_TOL = 0.01
EQUAL_QUAD_RTOL = 1e-5
UNEQUAL_QUAD_RTOL = 1e-7


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


@dataclass(frozen=True)
class PairRun:
    """One operation: one setting pair, simulated as the CLI's runner does.

    ``stream`` is the random-stream index the runner gives this pair inside
    its experiment; ``audit`` marks a bound-audit row, which also evaluates
    the analytic bound and its quadrature at (theta2 - theta1, tau).
    """

    theta1: float
    theta2: float
    tau: float
    window: float
    mode: str
    events: int
    stream: int
    workers: int
    audit: bool = False


@dataclass(frozen=True)
class Workload:
    """A CLI command run in whole rounds, and how to read and check its output.

    ``pair_runs(events, workers)`` lists the operations in the order and with
    the stream indices the runner uses, so in-process replays draw the same
    events.  ``read_rows(results, events)`` turns the manifest's results into
    one count row per operation; ``check(runs, rows, events)`` returns one
    pass flag per operation and messages for the failures.
    """

    name: str
    cli_args: tuple[str, ...]
    events: int
    smoke_events: int
    workers: int
    pair_runs_for: Callable[[int, int], list[PairRun]]
    read_rows: Callable[[dict, int], list[dict]]
    check: Callable[[list[PairRun], list[dict], int], tuple[list[bool], list[str]]]
    check_report: Callable[[dict], list[str]] | None = None

    def argv(self, seed: int, events: int) -> list[str]:
        return [*self.cli_args, "--workers", str(self.workers), "--seed", str(seed),
                "--events", str(events)]

    def pair_runs(self, events: int) -> list[PairRun]:
        return self.pair_runs_for(events, self.workers)


def _chsh_runs(events: int, workers: int) -> list[PairRun]:
    a, b, c, d = CHSH_SETTINGS
    angles = {"ac": (a, c), "ad": (a, d), "bc": (b, c), "bd": (b, d)}
    return [PairRun(*angles[label], PAPER_TAU, PAPER_TAU, "same-bin", events, i, workers)
            for i, label in enumerate(CHSH_LABELS)]


def _sweep_runs(events: int, workers: int) -> list[PairRun]:
    return [PairRun(0.0, alpha, PAPER_TAU, 1.0, "continuous", events, i, workers)
            for i, alpha in enumerate(SWEEP_ALPHAS)]


def _bounds_runs(events: int, workers: int) -> list[PairRun]:
    return [PairRun(0.0, alpha, tau, tau, "same-bin", events, i * len(BOUNDS_ALPHAS) + k,
                    workers, audit=True)
            for i, tau in enumerate(BOUNDS_TAUS) for k, alpha in enumerate(BOUNDS_ALPHAS)]


# ---------------------------------------------------------------------------
# output checks
#
# A row is a dict with the counts of one operation: n_total, n_coincident,
# sum_xy, and for audit rows the reported quadrature.


def _chsh_rows(results: dict, events: int) -> list[dict]:
    return [dict(results["pairs"][label]) for label in CHSH_LABELS]


def _sweep_rows(results: dict, events: int) -> list[dict]:
    return [dict(r) for r in results["rows"]]


def _bounds_rows(results: dict, events: int) -> list[dict]:
    # the audit reports gamma = n_coincident / n_events, not the counts
    return [
        {
            "alpha_deg": r["alpha_deg"],
            "tau": r["tau"],
            "n_total": events,
            "n_coincident": round(r["simulated_gamma"] * events),
            "quadrature": r["quadrature"],
        }
        for r in results["rows"]
    ]


def equal_settings_exact(tau: float) -> float:
    t = tau ** (2.0 / 3.0)
    root = math.sqrt(1.0 - t)
    return 4.0 * math.pi * (t * root + t / (1.0 + root))


def unequal_settings_exact(alpha_deg: float, tau: float) -> float:
    return 16.0 * tau / math.sin(math.radians(alpha_deg))


def _check_chsh(runs: list[PairRun], rows: list[dict], events: int):
    ok, msgs, e = [], [], []
    for run, row in zip(runs, rows):
        n, n_c = row["n_total"], row["n_coincident"]
        good = n == events and n_c > 0
        if good:
            e.append(row["sum_xy"] / n_c)
            ref = -math.cos(math.radians(run.theta1 - run.theta2))
            tol = FINITE_TAU_E_TOL + 5.0 * math.sqrt((1.0 - ref * ref) / n_c)
            good = abs(e[-1] - ref) <= tol
        if not good:
            msgs.append(f"pair {run.theta1},{run.theta2}: n={n} n_c={n_c} outside tolerance")
        ok.append(good)
    if not all(ok):
        return ok, msgs
    chsh = abs(e[0] - e[1] + e[2] + e[3])
    gamma_min = min(r["n_coincident"] / r["n_total"] for r in rows)
    # at 10M events 2.6 lies below 2*sqrt(2) minus the bias allowance minus
    # five standard errors; a smaller sample lowers it to keep that margin
    sigma = math.sqrt(sum(0.5 / r["n_coincident"] for r in rows))
    chsh_min = min(CHSH_MIN, 2.0 * math.sqrt(2.0) - 4 * FINITE_TAU_E_TOL - 5.0 * sigma)
    failures = []
    if not chsh > chsh_min:
        failures.append(f"CHSH {chsh:.4f} <= {chsh_min:.4f}")
    if not gamma_min < GAMMA_0 / 100.0:
        failures.append(f"gamma_min {gamma_min:.3g} not << gamma_0")
    if not chsh <= 6.0 / gamma_min - 4.0:
        failures.append(f"corrected bound violated: {chsh:.4f} > 6/{gamma_min:.3g} - 4")
    if failures:
        return [False] * len(rows), failures
    return ok, msgs


def _check_chsh_report(results: dict) -> list[str]:
    """The CLI's reported CHSH figures must equal those recomputed from its counts."""
    pairs = [results["pairs"][label] for label in CHSH_LABELS]
    e = [p["sum_xy"] / p["n_coincident"] for p in pairs]
    chsh = abs(e[0] - e[1] + e[2] + e[3])
    gamma_min = min(p["n_coincident"] / p["n_total"] for p in pairs)
    report = results["report"]
    msgs = []
    if not math.isclose(report["chsh_lhs"], chsh, rel_tol=1e-12):
        msgs.append(f"reported CHSH {report['chsh_lhs']} != {chsh}")
    if not math.isclose(report["modified_bound"], 6.0 / gamma_min - 4.0, rel_tol=1e-12):
        msgs.append(f"reported bound {report['modified_bound']} != 6/{gamma_min} - 4")
    if report["violates_modified"]:
        msgs.append("reported a violation of the corrected bound")
    return msgs


def _check_sweep(runs: list[PairRun], rows: list[dict], events: int):
    ok, msgs = [], []
    for run, row in zip(runs, rows):
        n, n_c = row["n_total"], row["n_coincident"]
        ref = -(1.0 - 2.0 * run.theta2 / 180.0)
        tol = max(TRIANGLE_E_TOL, 5.0 * math.sqrt((1.0 - ref * ref) / events))
        good = n == events and n_c == n and abs(row["sum_xy"] / n - ref) <= tol
        if not good:
            msgs.append(f"alpha {run.theta2}: n={n} n_c={n_c} sum_xy={row['sum_xy']}")
        ok.append(good)
    return ok, msgs


def _check_bounds(runs: list[PairRun], rows: list[dict], events: int):
    ok, msgs = [], []
    for run, row in zip(runs, rows):
        alpha = run.theta2 - run.theta1
        if alpha == 0.0:
            exact, rtol = equal_settings_exact(run.tau), EQUAL_QUAD_RTOL
        else:
            exact, rtol = unequal_settings_exact(alpha, run.tau), UNEQUAL_QUAD_RTOL
        good = row["n_total"] == events and math.isclose(row["quadrature"], exact, rel_tol=rtol)
        if not good:
            msgs.append(f"alpha {alpha} tau {run.tau}: quadrature {row['quadrature']} != {exact}")
        ok.append(good)
    # gamma falls with tau at every alpha.  Adjacent grid points are a sixth
    # of a decade apart, which 1e5 events cannot resolve at tau ~ 1e-4,
    # so the order is demanded between every two tau at least a decade apart.
    for i, (ri, a) in enumerate(zip(runs, rows)):
        for j, (rj, b) in enumerate(zip(runs, rows)):
            if ri.theta2 == rj.theta2 and ri.tau >= 10.0 * rj.tau * (1 - 1e-9):
                if not a["n_coincident"] > b["n_coincident"]:
                    ok[i] = ok[j] = False
                    msgs.append(f"alpha {ri.theta2}: gamma(tau={ri.tau}) <= gamma(tau={rj.tau})")
    return ok, msgs


def check_rows(workload: Workload, rows: list[dict], events: int):
    """Per-operation pass flags and failure messages for one round."""
    runs = workload.pair_runs(events)
    if len(rows) != len(runs):
        return [False] * len(runs), [f"expected {len(runs)} rows, got {len(rows)}"]
    for run, row in zip(runs, rows):
        # the audit reports alpha as degrees(radians(alpha)), off in the last digit
        if "alpha_deg" in row and not math.isclose(row["alpha_deg"], run.theta2 - run.theta1,
                                                   abs_tol=1e-9):
            return [False] * len(runs), [f"row order: alpha {row['alpha_deg']} for {run}"]
        if "tau" in row and row["tau"] != run.tau:
            return [False] * len(runs), [f"row order: tau {row['tau']} for {run}"]
    return workload.check(runs, rows, events)


def check_manifest(workload: Workload, results: dict, events: int):
    """Check a CLI manifest's results: the rows, then the reported summary."""
    ok, msgs = check_rows(workload, workload.read_rows(results, events), events)
    if all(ok) and workload.check_report is not None:
        msgs = workload.check_report(results)
        ok = [not msgs] * len(ok)
    return ok, msgs


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's headline experiment: kernel-bound, 5e-4 of events kept
        Workload(
            name="chsh_10m",
            cli_args=("chsh", "--settings", _csv(CHSH_SETTINGS), "--tau", repr(PAPER_TAU),
                      "--window", repr(PAPER_TAU), "--mode", "same-bin", "--d-exponent", "3"),
            events=10_000_000,
            smoke_events=1_000_000,
            workers=2,
            pair_runs_for=_chsh_runs,
            read_rows=_chsh_rows,
            check=_check_chsh,
            check_report=_check_chsh_report,
        ),
        # no post-selection: every event is reduced, 37 pools of 2 chunks each
        Workload(
            name="sweep_nopostsel",
            cli_args=("sweep", "--mode", "continuous", "--window", "1", "--tau",
                      repr(PAPER_TAU), "--d-exponent", "3", "--alpha-grid",
                      _csv(SWEEP_ALPHAS)),
            events=1_000_000,
            smoke_events=100_000,
            workers=2,
            pair_runs_for=_sweep_runs,
            read_rows=_sweep_rows,
            check=_check_sweep,
        ),
        # the rate-bound audit: serial, dominated by the scipy quadrature
        Workload(
            name="bounds_tau_curve",
            cli_args=("bounds", "--mode", "same-bin", "--d-exponent", "3", "--alpha-grid",
                      _csv(BOUNDS_ALPHAS), "--tau-grid", _csv(BOUNDS_TAUS)),
            events=100_000,
            smoke_events=20_000,
            workers=1,
            pair_runs_for=_bounds_runs,
            read_rows=_bounds_rows,
            check=_check_bounds,
        ),
    )
}
