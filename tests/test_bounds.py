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
from pathlib import Path

import numpy as np
import pytest

from eprbsim import CoincidenceMode, ModelParams, UnitVector3, simulate_pair_stats
from eprbsim.bounds import (
    EQUAL_QUAD_REL_TOL,
    UNEQUAL_QUAD_MIN_DEG,
    UNEQUAL_QUAD_REL_TOL,
    approx_equal_settings,
    check_simulated_gamma,
    equal_settings_bound,
    equal_settings_quadrature,
    unequal_settings_bound,
    unequal_settings_quadrature,
)
from eprbsim.coincidence import CoincidenceStats, accumulate
from eprbsim.model import event_stream, generate_batch

FOUR_PI = 4.0 * math.pi
SRC = str(Path(__file__).resolve().parents[1] / "src")

# six points per decade from 1e-1 to 1e-4, the tau grid of the benchmark's
# bound audit, plus both ends of the range the audit is run at
DENSE_TAU_GRID = [round(10.0 ** (-1.0 - k / 6.0), 6) for k in range(19)] + [1.0, 1e-6]


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

    def test_rejects_continuous_statistics(self):
        params = ModelParams(tau=1e-3, window=1e-3, coincidence_mode=CoincidenceMode.CONTINUOUS)
        a = UnitVector3.from_angle_deg(0.0)
        batch = generate_batch(event_stream(604, 0), a, a, params, 10_000)
        stats = accumulate(batch, params)
        with pytest.raises(ValueError, match="same-bin"):
            check_simulated_gamma(stats, 0.0, 1e-3)

    def test_rejects_window_mismatch(self):
        params = ModelParams(tau=1e-3, window=5e-3, coincidence_mode=CoincidenceMode.SAME_BIN)
        a = UnitVector3.from_angle_deg(0.0)
        batch = generate_batch(event_stream(605, 0), a, a, params, 10_000)
        stats = accumulate(batch, params)
        with pytest.raises(ValueError, match="W = tau"):
            check_simulated_gamma(stats, 0.0, 1e-3)


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
