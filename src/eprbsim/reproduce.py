"""The end-to-end reproduction battery behind `eprbsim reproduce-paper`.

Runs the correlation sweep, the four-settings CHSH experiment, and the
bound audit at their default parameters and checks every headline number:
cosine recovery, the triangle law without post-selection, inequality
verdicts across seeds, threshold constants, closed forms against
quadrature, bound compliance, and worker-count determinism.

Two checks are expected to fail and are reported honestly rather than
patched over: the cot-form closed expression for the unequal-settings rate
bound differs from its own defining integral by a factor 1/cos^2(alpha/2)
(exact value 16*tau/sin(alpha)), and for the same reason simulated rates at
wide angles (150 deg) exceed the cot form while satisfying the exact
integral.  See README for the full analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bell import VIOLATION_SIGMAS, gamma_threshold, modified_bound
from .bounds import (
    approx_equal_settings,
    equal_settings_bound,
    equal_settings_quadrature,
    unequal_settings_bound,
    unequal_settings_quadrature,
)
from .model import CoincidenceMode
from .runner import (
    ConfigError,
    ExperimentConfig,
    run_bound_audit,
    run_chsh_experiment,
    run_correlation_sweep,
)

TRIANGLE_ALPHA_DEG = (0.0, 45.0, 90.0, 135.0, 180.0)
UNEQUAL_CLOSED_FORM_ALPHA_DEG = (30.0, 45.0, 60.0, 90.0, 135.0)
EQUAL_CLOSED_FORM_TAU = (1.0, 1e-1, 1e-2, 1e-4)
HEADLINE_SEEDS = 5  # check 3 runs the CHSH experiment at seed, seed + 1, ...


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str


def _sweep_max_deviation(result) -> tuple[float, float]:
    """Max |E + cos(alpha)| over the grid and the stderr at the arg max."""
    worst = -1.0
    worst_se = 0.0
    for row in result.rows:
        if row.stats.e_conditional is None:
            raise RuntimeError(f"no coincidences at alpha = {row.alpha_deg} deg")
        dev = abs(row.stats.e_conditional - row.reference)
        if dev > worst:
            worst = dev
            worst_se = row.stats.stderr_e
    return worst, worst_se


def check_cosine_recovery(config: ExperimentConfig) -> CheckResult:
    base = run_correlation_sweep(config)
    half = run_correlation_sweep(
        replace(config, tau=config.tau / 2.0, window=config.window / 2.0)
    )
    max_base, se_base = _sweep_max_deviation(base)
    max_half, se_half = _sweep_max_deviation(half)
    se_comb = math.sqrt(se_base**2 + se_half**2)
    elapsed = base.manifest.duration_s
    ok = max_base <= 0.02 and max_half <= max_base + se_comb and elapsed < 300.0
    detail = (
        f"max|E+cos a|={max_base:.4f} (tol 0.02); halved-tau max {max_half:.4f} "
        f"<= {max_base:.4f}+{se_comb:.4f}; sweep {elapsed:.1f}s (target 300s)"
    )
    return CheckResult(1, "cosine recovery at tau = W -> 0", ok, detail)


def check_triangle_law(config: ExperimentConfig) -> CheckResult:
    cfg = replace(
        config,
        alpha_grid_deg=TRIANGLE_ALPHA_DEG,
        window=1.0,
        coincidence_mode=CoincidenceMode.CONTINUOUS,
        n_events=1_000_000,
    )
    result = run_correlation_sweep(cfg)
    worst = 0.0
    full_window = True
    for row in result.rows:
        target = -(1.0 - 2.0 * math.radians(row.alpha_deg) / math.pi)
        worst = max(worst, abs(row.stats.e_conditional - target))
        full_window = full_window and row.stats.gamma_hat == 1.0
    ok = worst <= 0.01 and full_window
    detail = f"max|E+(1-2a/pi)|={worst:.4f} (tol 0.01); gamma=1 everywhere: {full_window}"
    return CheckResult(2, "triangle law without post-selection", ok, detail)


def check_headline_verdict(config: ExperimentConfig) -> CheckResult:
    ok = True
    details = []
    for k in range(HEADLINE_SEEDS):
        res = run_chsh_experiment(replace(config, seed=config.seed + k))
        r = res.report
        gamma_max = max(r.gammas)
        seed_ok = (
            r.chsh_lhs >= 2.6
            and gamma_max <= 0.1
            and r.modified_bound >= 56.0
            and r.violates_chsh
            and not r.violates_modified
        )
        ok = ok and seed_ok
        details.append(f"seed+{k}: lhs={r.chsh_lhs:.3f} max gamma={gamma_max:.2e}")
    detail = (
        "CHSH > 2.6 with gamma <= 0.1, corrected bound >= 56 never violated; "
        + "; ".join(details)
    )
    return CheckResult(3, "strong correlations, no corrected-inequality violation", ok, detail)


def check_threshold_constants(_: ExperimentConfig) -> CheckResult:
    lhs = 2.0 * math.sqrt(2.0)
    g0 = 3.0 - 3.0 / math.sqrt(2.0)
    err1 = abs(gamma_threshold(lhs) - g0)
    err2 = abs(modified_bound(g0) - lhs)
    ok = err1 <= 1e-12 and err2 <= 1e-12
    detail = f"|gamma_threshold(2sqrt2)-g0|={err1:.2e}, |bound(g0)-2sqrt2|={err2:.2e} (tol 1e-12)"
    return CheckResult(4, "threshold gamma_0 = 3 - 3/sqrt(2) exactness", ok, detail)


def check_closed_forms(_: ExperimentConfig) -> CheckResult:
    failures = []
    tau = 1e-3
    for alpha_deg in UNEQUAL_CLOSED_FORM_ALPHA_DEG:
        alpha = math.radians(alpha_deg)
        q = unequal_settings_quadrature(alpha, tau)
        c = unequal_settings_bound(alpha, tau)
        rel = abs(q - c) / c
        if rel > 1e-6:
            failures.append(f"alpha={alpha_deg:g}: quad/cot-form-1={rel:.3e}")
    for t in EQUAL_CLOSED_FORM_TAU:
        q = equal_settings_quadrature(t)
        c = equal_settings_bound(t)
        rel = abs(q - c) / c
        if rel > 1e-5:
            failures.append(f"equal tau={t:g}: rel={rel:.3e}")
    err_4pi = abs(equal_settings_quadrature(1.0) - 4.0 * math.pi) / (4.0 * math.pi)
    if err_4pi > 1e-9:
        failures.append(f"tau=1 vs 4pi: rel={err_4pi:.3e}")
    gap = abs(approx_equal_settings(1e-4) - equal_settings_bound(1e-4)) / equal_settings_bound(1e-4)
    if gap > 0.01:
        failures.append(f"6pi tau^(2/3) approx at tau=1e-4: rel={gap:.3e}")
    ok = not failures
    detail = (
        "all closed forms match quadrature at stated tolerances"
        if ok
        else "; ".join(failures)
    )
    return CheckResult(5, "closed forms vs quadrature", ok, detail)


def check_bound_compliance(config: ExperimentConfig) -> CheckResult:
    audit = run_bound_audit(config)
    failures = []
    by_alpha: dict[float, list] = {}
    for rep in audit.reports:
        if not rep.satisfied:
            margin = rep.simulated_gamma - VIOLATION_SIGMAS * rep.stderr_gamma
            failures.append(
                f"alpha={math.degrees(rep.alpha):g} tau={rep.tau:g}: "
                f"gamma-{VIOLATION_SIGMAS:g}se={margin:.4e} > bound={rep.closed_form:.4e}"
            )
        by_alpha.setdefault(rep.alpha, []).append(rep)
    for alpha, reps in by_alpha.items():
        reps = sorted(reps, key=lambda r: -r.tau)
        for hi, lo in zip(reps[:-1], reps[1:]):
            slack = VIOLATION_SIGMAS * math.sqrt(hi.stderr_gamma**2 + lo.stderr_gamma**2)
            if lo.simulated_gamma > hi.simulated_gamma + slack:
                failures.append(
                    f"alpha={math.degrees(alpha):g}: gamma not decreasing "
                    f"({hi.tau:g} -> {lo.tau:g})"
                )
    ok = not failures
    detail = (
        "simulated rates satisfy the bounds and decrease with tau"
        if ok
        else "; ".join(failures)
    )
    return CheckResult(6, "simulated rates vs analytic bounds", ok, detail)


def check_worker_determinism(config: ExperimentConfig) -> CheckResult:
    cfg = replace(config, n_events=1_000_000)
    solo = run_chsh_experiment(replace(cfg, workers=1))
    pooled = run_chsh_experiment(replace(cfg, workers=8))
    same = solo.manifest.reproducible_json() == pooled.manifest.reproducible_json()
    detail = (
        f"1-worker digest {solo.manifest.digest()[:12]} == "
        f"8-worker digest {pooled.manifest.digest()[:12]}: {same}"
    )
    return CheckResult(7, "bit-identical results for 1 vs 8 workers", same, detail)


ALL_CHECKS = (
    check_cosine_recovery,
    check_triangle_law,
    check_headline_verdict,
    check_threshold_constants,
    check_closed_forms,
    check_bound_compliance,
    check_worker_determinism,
)


def run_all(config: ExperimentConfig, echo=print) -> list[CheckResult]:
    last = config.seed + HEADLINE_SEEDS - 1  # check 3's last seed, refused before any check
    try:
        replace(config, seed=last)
    except ConfigError as exc:
        raise ConfigError(f"reproduce-paper also runs seed {last}: {exc}") from None
    results = []
    for check in ALL_CHECKS:
        res = check(config)
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        echo(f"[{res.number}] {res.name}: {status}")
        echo(f"    {res.detail}")
    n_pass = sum(r.passed for r in results)
    echo(f"{n_pass}/{len(results)} checks passed")
    return results
