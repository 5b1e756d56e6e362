"""Acceptance suite: one test per headline criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with `pytest -rA` or -s).
Three checks are known to fail for mathematical reasons and are asserted
faithfully anyway, with the complete numeric evidence in the failure
message:

* criterion 5 (partly): the cot-form closed expression for the
  unequal-settings rate bound is not equal to its own defining integral;
  the integral evaluates to 16*tau/sin(alpha) = 8*tau*(cot+tan)(alpha/2),
  so the demanded 1e-6 agreement cannot hold at any of the listed angles;
* criterion 6 (partly): at alpha = 150 deg the simulated coincidence rate
  (about 4*tau/(pi*sin(alpha)), with the analyzed-sphere normalization)
  genuinely exceeds the cot form, which vanishes as alpha -> pi while the
  true rate grows; compliance holds at 30 and 90 deg and at equal settings;
* criterion 7 (partly): `reproduce-paper` runs the two checks above and
  therefore exits 3, not 0; worker-count determinism itself passes.

Each headline experiment runs once: criteria 1, 2, 3 and 6 assert on the
manifests that one `reproduce-paper --out` run keeps, each on the run of
the config it names.  Criterion 7's 1-vs-8 worker test makes its own runs.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from eprbsim import CoincidenceMode, ExperimentConfig, RunManifest, run_chsh_experiment
from eprbsim.bell import gamma_threshold, modified_bound
from eprbsim.bounds import (approx_equal_settings, equal_settings_bound, equal_settings_quadrature,
                            unequal_settings_bound, unequal_settings_quadrature)

SRC = str(Path(__file__).resolve().parents[1] / "src")
WORKERS = 2

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
GAMMA_0 = 3.0 - 3.0 / math.sqrt(2.0)

# the manifests reproduce-paper --out writes, as DIR/<check>-<label>.json
RUN_LABELS = ["1-base", "1-half", "2-triangle", *(f"3-seed{k}" for k in range(5)),
              "6-audit", "7-workers1", "7-workers8"]


@pytest.fixture(scope="module")
def reproduction(tmp_path_factory):
    """One `reproduce-paper --workers 2 --out DIR` run: its process, summary and manifests
    by label.  DIR holds only those, each manifest with the digest the summary records."""
    out = tmp_path_factory.mktemp("reproduction")
    proc = subprocess.run(
        [sys.executable, "-m", "eprbsim", "reproduce-paper", "--workers", str(WORKERS),
         "--out", str(out)],
        capture_output=True, text=True, timeout=1800, env=dict(os.environ, PYTHONPATH=SRC))
    files = sorted(p.name for p in out.iterdir())
    assert files == sorted([f"{k}.json" for k in RUN_LABELS] + ["reproduction_summary.json"])
    summary = json.loads((out / "reproduction_summary.json").read_text())
    manifests = {k: RunManifest.from_json((out / f"{k}.json").read_text()) for k in RUN_LABELS}
    recorded = {f"{s['number']}-{k}": d for s in summary for k, d in s["digests"].items()}
    assert {k: m.digest() for k, m in manifests.items()} == recorded
    return SimpleNamespace(proc=proc, summary=summary, manifests=manifests)


def manifest_of(reproduction, label: str, config: ExperimentConfig) -> RunManifest:
    """The manifest of run ``label``, which must be the run of ``config``."""
    manifest = reproduction.manifests[label]
    assert ExperimentConfig.from_dict(manifest.config) == config, f"{label} ran another config"
    return manifest


def announce(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})", flush=True)


def max_cosine_deviation(manifest):
    """Largest |E(alpha) + cos(alpha)| over the sweep and the correlation
    standard error at the angle where it occurs."""
    worst, worst_se = -1.0, 0.0
    for row in manifest.results["rows"]:
        assert row["e_conditional"] is not None, f"starved angle {row['alpha_deg']}"
        dev = abs(row["e_conditional"] - row["reference_minus_cos"])
        if dev > worst:
            worst, worst_se = dev, row["stderr_e"]
    return worst, worst_se


def test_criterion_1_cosine_recovery(reproduction):
    config = ExperimentConfig(workers=WORKERS)
    base = manifest_of(reproduction, "1-base", config)
    halved = replace(config, tau=config.tau / 2.0, window=config.window / 2.0)
    half = manifest_of(reproduction, "1-half", halved)
    max_base, se_base = max_cosine_deviation(base)
    max_half, se_half = max_cosine_deviation(half)
    se_comb = math.sqrt(se_base**2 + se_half**2)
    elapsed = base.duration_s
    detail = (
        f"max dev {max_base:.4f} <= 0.02; halved-tau max {max_half:.4f} "
        f"<= {max_base + se_comb:.4f}; grid in {elapsed:.0f}s < 300s"
    )
    ok = max_base <= 0.02 and max_half <= max_base + se_comb and elapsed < 300.0
    announce(1, "cosine recovery", ok, detail)
    assert max_base <= 0.02, detail
    assert max_half <= max_base + se_comb, detail
    assert elapsed < 300.0, detail


def test_criterion_2_triangle_law_without_postselection(reproduction):
    config = ExperimentConfig(alpha_grid_deg=(0.0, 45.0, 90.0, 135.0, 180.0), window=1.0,
                              coincidence_mode=CoincidenceMode.CONTINUOUS, n_events=1_000_000,
                              workers=WORKERS)
    worst = 0.0
    for row in manifest_of(reproduction, "2-triangle", config).results["rows"]:
        assert row["gamma_hat"] == 1.0, "full window must keep every pair"
        target = -(1.0 - 2.0 * math.radians(row["alpha_deg"]) / math.pi)
        worst = max(worst, abs(row["e_conditional"] - target))
    detail = f"max |E + (1 - 2a/pi)| = {worst:.4f} <= 0.01 at N=1e6"
    announce(2, "triangle law without post-selection", worst <= 0.01, detail)
    assert worst <= 0.01, detail


def test_criterion_3_strong_correlations_without_violation(reproduction):
    config = ExperimentConfig(workers=WORKERS)
    lines = []
    failures = []
    for k in range(5):
        run = manifest_of(reproduction, f"3-seed{k}", replace(config, seed=config.seed + k))
        report = run.results["report"]
        gamma_max = max(report["gammas"])
        lines.append(f"seed+{k}: lhs={report['chsh_lhs']:.4f} gamma_max={gamma_max:.2e} "
                     f"bound={report['modified_bound']:.0f}")
        if not (
            report["chsh_lhs"] >= 2.6
            and gamma_max <= 0.1
            and report["modified_bound"] >= 56.0
            and report["violates_chsh"]
            and not report["violates_modified"]
        ):
            failures.append(lines[-1])
    detail = "; ".join(lines)
    announce(3, "CHSH > 2.6 while corrected bound holds", not failures, detail)
    assert not failures, f"headline verdict failed at: {failures}"


def test_criterion_4_threshold_exactness():
    err_threshold = abs(gamma_threshold(TWO_SQRT_TWO) - GAMMA_0)
    err_bound = abs(modified_bound(GAMMA_0) - TWO_SQRT_TWO)
    detail = f"|dg0|={err_threshold:.2e}, |dbound|={err_bound:.2e} (tol 1e-12)"
    ok = err_threshold <= 1e-12 and err_bound <= 1e-12
    announce(4, "threshold constants exact", ok, detail)
    assert err_threshold <= 1e-12, detail
    assert err_bound <= 1e-12, detail


def test_criterion_5_closed_forms_vs_quadrature():
    failures = []
    tau = 1e-3
    for alpha_deg in (30.0, 45.0, 60.0, 90.0, 135.0):
        alpha = math.radians(alpha_deg)
        quadr = unequal_settings_quadrature(alpha, tau)
        closed = unequal_settings_bound(alpha, tau)
        rel = abs(quadr - closed) / closed
        if rel > 1e-6:
            failures.append(
                f"unequal alpha={alpha_deg:g}: quadrature={quadr:.6e} vs "
                f"cot form={closed:.6e}, rel gap {rel:.3e} > 1e-6"
            )
    for t in (1.0, 1e-1, 1e-2, 1e-4):
        quadr = equal_settings_quadrature(t)
        closed = equal_settings_bound(t)
        rel = abs(quadr - closed) / closed
        if rel > 1e-5:
            failures.append(f"equal tau={t:g}: rel gap {rel:.3e} > 1e-5")
    rel_4pi = abs(equal_settings_quadrature(1.0) - 4.0 * math.pi) / (4.0 * math.pi)
    if rel_4pi > 1e-9:
        failures.append(f"tau=1 vs 4pi: rel gap {rel_4pi:.3e} > 1e-9")
    rel_approx = abs(approx_equal_settings(1e-4) - equal_settings_bound(1e-4)) / (
        equal_settings_bound(1e-4)
    )
    if rel_approx > 0.01:
        failures.append(f"power-law approx at tau=1e-4: rel gap {rel_approx:.3e} > 1%")
    detail = "all forms agree" if not failures else f"{len(failures)} mismatches"
    announce(5, "closed forms vs quadrature", not failures, detail)
    assert not failures, (
        "closed form / quadrature mismatches (the unequal-settings integral "
        "evaluates to 16*tau/sin(alpha), not 8*tau*cot(alpha/2)):\n"
        + "\n".join(failures)
    )


def test_criterion_6_simulated_rates_vs_bounds(reproduction):
    config = ExperimentConfig(workers=WORKERS)  # audit grid: {0,30,90,150} x {1e-2,1e-3}
    failures = []
    by_alpha = {}
    for row in manifest_of(reproduction, "6-audit", config).results["rows"]:
        margin = row["simulated_gamma"] - 4.0 * row["stderr_gamma"]
        if margin > row["closed_form"]:
            failures.append(
                f"alpha={row['alpha_deg']:g} tau={row['tau']:g}: "
                f"gamma-4se={margin:.4e} > closed form={row['closed_form']:.4e} "
                f"(exact integral {row['quadrature']:.4e})"
            )
        by_alpha.setdefault(row["alpha_deg"], []).append(row)
    for alpha_deg, rows in by_alpha.items():
        rows = sorted(rows, key=lambda r: -r["tau"])
        for hi, lo in zip(rows[:-1], rows[1:]):
            slack = 4.0 * math.sqrt(hi["stderr_gamma"]**2 + lo["stderr_gamma"]**2)
            if lo["simulated_gamma"] > hi["simulated_gamma"] + slack:
                failures.append(f"alpha={alpha_deg:g}: rate not decreasing with tau")
    detail = ("all rates within bounds, decreasing with tau" if not failures
              else f"{len(failures)} bound violations")
    announce(6, "simulated rates vs analytic bounds", not failures, detail)
    assert not failures, (
        "bound compliance failures (the cot form undershoots the exact rate "
        "integral by cos^2(alpha/2), which bites at wide angles):\n"
        + "\n".join(failures)
    )


def test_criterion_7_worker_determinism():
    config = ExperimentConfig(n_events=1_000_000)
    solo = run_chsh_experiment(replace(config, workers=1))
    pooled = run_chsh_experiment(replace(config, workers=8))
    same = solo.reproducible_json() == pooled.reproducible_json()
    detail = f"digests {solo.digest()[:12]} / {pooled.digest()[:12]}"
    announce(7, "bit-identical manifests for 1 vs 8 workers", same, detail)
    assert same, "results must not depend on the worker count"


def test_criterion_7_reproduce_paper_exit_code(reproduction):
    proc, summary = reproduction.proc, reproduction.summary
    failed = [f"[{s['number']}] {s['name']}: {s['detail']}" for s in summary if not s["passed"]]
    detail = f"exit code {proc.returncode}, failing checks: {[s['number'] for s in summary if not s['passed']]}"
    announce(7, "reproduce-paper exits 0", proc.returncode == 0, detail)
    assert proc.returncode == 0, (
        "reproduce-paper must exit 0 with every check green; it exited "
        f"{proc.returncode} because the checks below fail for the reasons "
        "documented in the module docstring:\n" + "\n".join(failed) + "\n--- stdout ---\n"
        + proc.stdout
    )
