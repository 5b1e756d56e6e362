"""Rate-bound closed forms against their quadrature oracles.

Frozen quadrature expectations come from an independent dense-grid
evaluation of the integrands; the unequal-settings integral has the exact
value 16*tau/sin(alpha), which the small-angle cot form underestimates by
the factor cos^2(alpha/2).  Tests assert what each routine actually
computes; the acceptance suite separately records where the printed closed
form and the integral disagree.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eprbsim import CoincidenceMode, ModelParams, UnitVector3, bounds
from eprbsim.bounds import (
    EQUAL_QUAD_REL_TOL,
    UNEQUAL_QUAD_MIN_DEG,
    UNEQUAL_QUAD_REL_TOL,
    approx_equal_settings,
    check_simulated_gamma,
    equal_settings_bound,
    equal_settings_quadrature,
    gamma_max,
    unequal_settings_bound,
    unequal_settings_quadrature,
)
from eprbsim.bell import exceeds
from eprbsim.coincidence import CoincidenceStats, accumulate
from eprbsim.model import event_stream, generate_batch
from eprbsim.runner import simulate_pair_stats

FOUR_PI = 4.0 * math.pi
SRC = str(Path(__file__).resolve().parents[1] / "src")

# six points per decade from 1e-1 to 1e-4, to six significant digits: the
# tau grid of the benchmark's bound audit
AUDIT_TAU_GRID = [float(f"{10.0 ** (-1.0 - k / 6.0):.6g}") for k in range(19)]
# plus both ends of the range the audit is run at
DENSE_TAU_GRID = AUDIT_TAU_GRID + [1.0, 1e-6]


@pytest.mark.parametrize("function, args", [
    pytest.param(f, args, id=f"{f.__name__}{args}") for f, args in [
        (approx_equal_settings, (math.nan,)), (approx_equal_settings, (math.inf,)),
        (unequal_settings_bound, (1.0, math.nan)), (unequal_settings_bound, (1.0, math.inf)),
        (unequal_settings_quadrature, (1.0, math.nan)),
        (unequal_settings_quadrature, (1.0, math.inf)),
    ]
])
def test_nan_and_inf_tau_are_refused(function, args):
    """tau must be finite and > 0: nan and inf are refused, not returned as
    a nan or infinite bound (-inf already fails tau > 0)."""
    with pytest.raises(ValueError, match="tau must be > 0 and finite"):
        function(*args)


class TestUnequalSettingsBound:
    def test_right_angle(self):
        assert unequal_settings_bound(math.pi / 2, 1e-3) == pytest.approx(8e-3, rel=1e-14)

    def test_opposite_settings(self):
        assert unequal_settings_bound(math.pi, 1e-3) == pytest.approx(0.0, abs=1e-18)

    def test_quarter_angle(self):
        assert unequal_settings_bound(math.pi / 4, 1e-3) == pytest.approx(
            0.01931370849898476, rel=1e-12
        )

    def test_rejects_zero_angle(self):
        with pytest.raises(ValueError, match="equal_settings_bound"):
            unequal_settings_bound(0.0, 1e-3)

    @pytest.mark.parametrize("alpha, tau, message", [
        (math.pi + 1e-9, 1e-3, "alpha must be in"),
        (-0.5, 1e-3, "alpha must be in"),
        (math.pi / 2, 0.0, "tau must be > 0"),
        (math.pi / 2, -1e-3, "tau must be > 0"),
    ])
    def test_rejects_out_of_range(self, alpha, tau, message):
        with pytest.raises(ValueError, match=message):
            unequal_settings_bound(alpha, tau)

    def test_strictly_decreasing_in_alpha(self):
        alphas = np.linspace(0.05, math.pi, 100)
        vals = [unequal_settings_bound(a, 1e-3) for a in alphas]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_linear_in_tau(self):
        a = math.pi / 3
        assert unequal_settings_bound(a, 2e-3) == pytest.approx(
            2.0 * unequal_settings_bound(a, 1e-3), rel=1e-14
        )


class TestUnequalSettingsQuadrature:
    def test_right_angle_value(self):
        assert unequal_settings_quadrature(math.pi / 2, 1.0) == pytest.approx(
            16.0, rel=1e-6
        )

    def test_sixty_degree_value(self):
        assert unequal_settings_quadrature(math.pi / 3, 1.0) == pytest.approx(
            18.475208614068027, rel=1e-6
        )

    @pytest.mark.parametrize("alpha_deg", [30, 45, 60, 90, 135, 150])
    def test_matches_exact_integral_value(self, alpha_deg):
        """The piecewise antiderivative of 1/max(sin^2, sin^2) gives exactly
        16*tau/sin(alpha) over a full period."""
        alpha = math.radians(alpha_deg)
        tau = 7e-4
        assert unequal_settings_quadrature(alpha, tau) == pytest.approx(
            16.0 * tau / math.sin(alpha), rel=1e-7
        )

    def test_exceeds_cot_form_by_secant_squared(self):
        for alpha_deg in (30, 60, 90, 120):
            alpha = math.radians(alpha_deg)
            ratio = unequal_settings_quadrature(alpha, 1e-3) / unequal_settings_bound(
                alpha, 1e-3
            )
            assert ratio == pytest.approx(1.0 / math.cos(alpha / 2.0) ** 2, rel=1e-6)

    def test_rejects_boundary_angles(self):
        with pytest.raises(ValueError):
            unequal_settings_quadrature(0.0, 1e-3)
        with pytest.raises(ValueError):
            unequal_settings_quadrature(math.pi, 1e-3)

    @pytest.mark.parametrize("tau", [0.0, -1e-3])
    def test_rejects_non_positive_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be > 0"):
            unequal_settings_quadrature(math.pi / 2, tau)

    def test_dense_angle_grid_at_module_tolerance(self):
        tau = 7e-4
        for alpha_deg in range(1, 180):
            alpha = math.radians(alpha_deg)
            assert unequal_settings_quadrature(alpha, tau) == pytest.approx(
                16.0 * tau / math.sin(alpha), rel=UNEQUAL_QUAD_REL_TOL
            ), alpha_deg

    def test_linear_in_tau(self):
        a = math.radians(50.0)
        assert unequal_settings_quadrature(a, 3e-3) == pytest.approx(
            3.0 * unequal_settings_quadrature(a, 1e-3), rel=1e-10
        )

    @pytest.mark.parametrize("alpha_deg", [UNEQUAL_QUAD_MIN_DEG, 180.0 - UNEQUAL_QUAD_MIN_DEG])
    @pytest.mark.parametrize("tau", [0.1, 1e-4])
    def test_module_tolerance_at_the_audit_angle_limits(self, alpha_deg, tau):
        """The audit refuses angles nearer 0 or 180 than these, other than 0
        and 180 themselves."""
        alpha = math.radians(alpha_deg)
        assert unequal_settings_quadrature(alpha, tau) == pytest.approx(
            16.0 * tau / math.sin(alpha), rel=UNEQUAL_QUAD_REL_TOL
        )


class TestEqualSettingsBound:
    def test_full_resolution_is_whole_sphere(self):
        assert equal_settings_bound(1.0) == pytest.approx(FOUR_PI, rel=1e-15)

    def test_small_tau_approaches_power_law(self):
        exact = equal_settings_bound(1e-6)
        assert exact == pytest.approx(6.0 * math.pi * 1e-4, rel=1e-3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            equal_settings_bound(0.0)
        with pytest.raises(ValueError):
            equal_settings_bound(1.1)


class TestEqualSettingsQuadrature:
    @pytest.mark.parametrize("tau", [0.0, -1e-3, 1.1])
    def test_rejects_out_of_range(self, tau):
        with pytest.raises(ValueError, match=r"tau must be in \(0, 1\]"):
            equal_settings_quadrature(tau)

    def test_saturated_integrand_gives_four_pi(self):
        assert equal_settings_quadrature(1.0) == pytest.approx(FOUR_PI, rel=1e-9)

    @pytest.mark.parametrize("tau", [1.0, 1e-1, 1e-2, 1e-4])
    def test_matches_closed_form(self, tau):
        assert equal_settings_quadrature(tau) == pytest.approx(
            equal_settings_bound(tau), rel=1e-5
        )

    def test_dense_tau_grid_at_module_tolerance(self):
        for tau in DENSE_TAU_GRID:
            assert equal_settings_quadrature(tau) == pytest.approx(
                equal_settings_bound(tau), rel=EQUAL_QUAD_REL_TOL
            ), tau

    @pytest.mark.parametrize("tau", [1e-30, 1e-60])
    def test_tiny_tau_at_module_tolerance(self, tau):
        # the saturated cap shrinks to tau^(1/3); its edge must still resolve
        assert equal_settings_quadrature(tau) == pytest.approx(
            equal_settings_bound(tau), rel=EQUAL_QUAD_REL_TOL
        )

    @pytest.mark.parametrize("tau", AUDIT_TAU_GRID + [1.0])  # 1e-2 and 1e-3 among them
    def test_blocks_give_the_whole_grid_bits(self, monkeypatch, tau):
        """Row blocks of the shipped size, and of one row each, give the
        bits of the whole grid evaluated at once."""
        blocked = equal_settings_quadrature(tau)
        for nodes in (1, 1 << 30):
            monkeypatch.setattr(bounds, "_MAX_GRID_NODES", nodes)
            assert equal_settings_quadrature(tau) == blocked, nodes

    def test_one_row_blocks_at_tiny_tau(self):
        # a row of 5,488 nodes is a block of its own; the whole grid would
        # take gigabytes, so the closed form is the reference
        assert equal_settings_quadrature(1e-300) == pytest.approx(
            equal_settings_bound(1e-300), rel=1e-12
        )

    @pytest.mark.parametrize("tau", [1.0, 1e-1, 1e-4, 1e-30, 1e-300])
    def test_peak_memory_bounded(self, tau):
        """One call holds at most one block of temporaries: a 2 MB peak,
        where the whole grid took 3.8 MB at tau = 1 and 72 MB at 1e-300."""
        tracemalloc.start()
        try:
            equal_settings_quadrature(tau)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak

    def test_monotone_in_tau(self):
        low = equal_settings_quadrature(0.5)
        high = equal_settings_quadrature(0.9)
        assert 0.0 < low < high < FOUR_PI


class TestApproxEqualSettings:
    def test_values(self):
        assert approx_equal_settings(1e-6) == pytest.approx(6.0 * math.pi * 1e-4, rel=1e-15)
        assert approx_equal_settings(1e-3) == pytest.approx(0.1884955592153876, rel=1e-12)

    def test_relative_gap_to_exact_form(self):
        gap = abs(approx_equal_settings(1e-4) - equal_settings_bound(1e-4))
        assert gap / equal_settings_bound(1e-4) < 0.01

    @pytest.mark.parametrize("tau", [0.0, -1e-3])
    def test_rejects_non_positive_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be > 0"):
            approx_equal_settings(tau)


class TestGammaMax:
    @pytest.mark.parametrize("alpha_deg", [1.0, 15.0, 45.0, 90.0, 150.0, 179.0])
    def test_is_the_unequal_quadrature_over_four_pi(self, alpha_deg):
        alpha = math.radians(alpha_deg)
        for tau in (1.0, 1e-3, 1e-300):
            got = gamma_max(alpha, ModelParams(tau=tau))
            assert got == pytest.approx(unequal_settings_quadrature(alpha, tau) / FOUR_PI,
                                        rel=UNEQUAL_QUAD_REL_TOL)
            assert got == pytest.approx(4.0 * tau / (math.pi * math.sin(alpha)), rel=1e-15)

    def test_continuous_window_counts_twice(self):
        """The band |t1 - t2| <= W is up to 2W wide where the same-bin rule
        keeps at most one bin of width tau = W."""
        alpha = math.radians(60.0)
        same_bin = gamma_max(alpha, ModelParams(tau=1e-3, window=0.5))
        continuous = gamma_max(alpha, ModelParams(tau=0.5, window=1e-3,
                                                  coincidence_mode=CoincidenceMode.CONTINUOUS))
        assert continuous == 2.0 * same_bin

    @pytest.mark.parametrize("alpha, params, message", [
        (0.0, ModelParams(), "alpha"),
        (math.pi, ModelParams(), "alpha"),
        (-1.0, ModelParams(), "alpha"),
        (1.0, ModelParams(d_exponent=2.0), "d = 3"),
    ])
    def test_refuses_equal_settings_and_other_exponents(self, alpha, params, message):
        with pytest.raises(ValueError, match=message):
            gamma_max(alpha, params)

    @pytest.mark.parametrize("mode", list(CoincidenceMode))
    @pytest.mark.parametrize("alpha_deg", [45.0, 90.0, 150.0])
    def test_simulated_rates_do_not_exceed_it(self, mode, alpha_deg):
        params = ModelParams(tau=1e-3, window=1e-3, coincidence_mode=mode)
        alpha = math.radians(alpha_deg)
        stats = simulate_pair_stats(UnitVector3.from_angle_deg(0.0),
                                    UnitVector3.from_angle_deg(alpha_deg), params, 1_000_000, 5)
        assert stats.n_coincident > 1_000
        assert not exceeds(stats.gamma_hat, stats.stderr_gamma, gamma_max(alpha, params))


class TestCheckSimulatedGamma:
    def same_bin_params(self, tau: float) -> ModelParams:
        return ModelParams(tau=tau, window=tau, coincidence_mode=CoincidenceMode.SAME_BIN)

    def test_right_angle_compliance(self):
        tau = 1e-3
        stats = simulate_pair_stats(
            UnitVector3.from_angle_deg(0.0),
            UnitVector3.from_angle_deg(90.0),
            self.same_bin_params(tau),
            2_000_000,
            seed=601,
        )
        report = check_simulated_gamma(stats, math.pi / 2, tau)
        assert report.closed_form == pytest.approx(8e-3, rel=1e-12)
        assert report.simulated_gamma <= 8e-3
        assert report.satisfied
        assert report.simulated_gamma + 4.0 * report.stderr_gamma <= report.closed_form
        assert report.quad_rel_tol == UNEQUAL_QUAD_REL_TOL

    def test_equal_settings_path(self):
        tau = 1e-3
        stats = simulate_pair_stats(
            UnitVector3.from_angle_deg(25.0),
            UnitVector3.from_angle_deg(25.0),
            self.same_bin_params(tau),
            2_000_000,
            seed=602,
        )
        report = check_simulated_gamma(stats, 0.0, tau)
        assert report.closed_form == pytest.approx(equal_settings_bound(tau), rel=1e-12)
        assert report.quadrature == pytest.approx(equal_settings_bound(tau), rel=1e-5)
        assert report.satisfied
        assert report.simulated_gamma + 4.0 * report.stderr_gamma <= report.closed_form
        assert report.quad_rel_tol == EQUAL_QUAD_REL_TOL

    def test_antipodal_settings_use_equal_settings_path(self):
        # a2 = -a1 gives T1 = T2, so the equal-settings bound applies at pi
        tau = 1e-3
        stats = simulate_pair_stats(
            UnitVector3.from_angle_deg(0.0),
            UnitVector3.from_angle_deg(180.0),
            self.same_bin_params(tau),
            2_000_000,
            seed=606,
        )
        report = check_simulated_gamma(stats, math.pi, tau)
        assert report.closed_form == pytest.approx(equal_settings_bound(tau), rel=1e-12)
        assert report.quadrature == pytest.approx(
            equal_settings_bound(tau), rel=EQUAL_QUAD_REL_TOL
        )
        assert report.satisfied
        assert report.simulated_gamma + 4.0 * report.stderr_gamma <= report.closed_form
        assert report.quad_rel_tol == EQUAL_QUAD_REL_TOL

    def test_trivial_full_resolution(self):
        params = self.same_bin_params(1.0)
        a = UnitVector3.from_angle_deg(0.0)
        batch = generate_batch(event_stream(603, 0), a, a, params, 10_000)
        stats = accumulate(batch, params)
        assert stats.gamma_hat == 1.0
        report = check_simulated_gamma(stats, 0.0, 1.0)
        assert report.satisfied  # bound 4*pi exceeds any probability
        assert report.simulated_gamma + 4.0 * report.stderr_gamma <= report.closed_form

    @pytest.mark.parametrize(
        "n_coincident, satisfied",
        [(7, True), (9, True), (2_000, False)],
    )
    def test_satisfied_unless_four_sigma_above(self, n_coincident, satisfied):
        """Violated only when gamma - 4 sigma exceeds the closed form
        (8e-2 at tau = 1e-2, 90 deg); a rate above the bound by less than
        four standard errors is no violation.  Counts out of 100 and 10,000
        events."""
        tau = 1e-2
        n_total = 100 if n_coincident < 100 else 10_000
        stats = CoincidenceStats.from_counts(
            n_total, n_coincident, 0, params=self.same_bin_params(tau)
        )
        report = check_simulated_gamma(stats, math.pi / 2, tau)
        assert report.closed_form == pytest.approx(8e-2, rel=1e-12)
        assert report.satisfied is satisfied

    @pytest.mark.parametrize("steps, satisfied", [(0, True), (1, False)])
    def test_satisfied_at_exactly_four_sigma(self, steps, satisfied):
        """A rate exactly four standard errors above the closed form still
        satisfies it; one ulp more does not.  With sigma = 2^-10 both the
        rate and gamma - 4 sigma are exact near the bound 8e-2."""
        tau, sigma = 1e-2, 2.0**-10
        closed = unequal_settings_bound(math.pi / 2, tau)
        gamma = closed + 4.0 * sigma
        assert gamma - 4.0 * sigma == closed
        for _ in range(steps):
            gamma = math.nextafter(gamma, math.inf)
        stats = CoincidenceStats(
            n_total=10_000, n_coincident=839, sum_xy=0, gamma_hat=gamma, stderr_gamma=sigma,
            e_conditional=0.0, stderr_e=0.01, mode=CoincidenceMode.SAME_BIN,
            window=tau, tau=tau,
        )
        report = check_simulated_gamma(stats, math.pi / 2, tau)
        assert report.closed_form == closed
        assert report.satisfied is satisfied

    def test_rejects_continuous_statistics(self):
        params = ModelParams(tau=1e-3, window=1e-3, coincidence_mode=CoincidenceMode.CONTINUOUS)
        a = UnitVector3.from_angle_deg(0.0)
        batch = generate_batch(event_stream(604, 0), a, a, params, 10_000)
        stats = accumulate(batch, params)
        with pytest.raises(ValueError, match="same-bin"):
            check_simulated_gamma(stats, 0.0, 1e-3)

    @pytest.mark.parametrize("alpha", [-1e-9, math.pi + 1e-9, 4.0])
    def test_rejects_angle_outside_zero_to_pi(self, alpha):
        stats = CoincidenceStats.from_counts(1_000, 1, 1, params=self.same_bin_params(1e-3))
        with pytest.raises(ValueError, match=r"alpha must be in \[0, pi\]"):
            check_simulated_gamma(stats, alpha, 1e-3)

    def test_window_is_not_read_and_tau_must_match(self):
        """Same-bin mode reads no window: statistics of one stream at W =
        5e-3 and at W = tau = 1e-3 give the same report.  Statistics at
        another tau are refused."""
        a = UnitVector3.from_angle_deg(0.0)
        reports = []
        for window in (5e-3, 1e-3):
            params = ModelParams(tau=1e-3, window=window, coincidence_mode=CoincidenceMode.SAME_BIN)
            stats = accumulate(generate_batch(event_stream(605, 0), a, a, params, 10_000), params)
            assert stats.window == window and stats.n_coincident > 0
            reports.append(check_simulated_gamma(stats, 0.0, 1e-3))
        assert reports[0] == reports[1]
        with pytest.raises(ValueError, match="statistics were taken at tau = 0.001"):
            check_simulated_gamma(stats, 0.0, 2e-3)


def test_package_runs_without_scipy():
    """``import eprbsim`` and a small bound audit, with scipy made unimportable."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import eprbsim\n"
        "from eprbsim.cli import main\n"
        "sys.exit(main(['bounds', '--events', '20000', '--alpha-grid', '0,90,180',\n"
        "               '--tau-grid', '0.01', '--seed', '7', '--format', 'csv']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("alpha_deg")
    assert len(lines) == 4
