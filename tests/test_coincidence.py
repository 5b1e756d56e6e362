"""Window post-selection, estimators, and the exact probability oracles."""

import math

import numpy as np
import pytest

from eprbsim.coincidence import (
    CoincidenceStats,
    _counts_from_batch,
    accumulate,
    coincidence_mask,
    coincidence_probability_exact,
    same_bin_probability_exact,
)
from eprbsim.model import (
    CoincidenceMode,
    EventBatch,
    ModelParams,
    UnitVector3,
    event_stream,
    generate_batch,
)
from eprbsim.runner import simulate_pair_stats

X_AXIS = UnitVector3(1.0, 0.0, 0.0)


def continuous(window: float, tau: float = 0.25) -> ModelParams:
    return ModelParams(tau=tau, window=window, coincidence_mode=CoincidenceMode.CONTINUOUS)


def same_bin(tau: float) -> ModelParams:
    return ModelParams(tau=tau, window=tau, coincidence_mode=CoincidenceMode.SAME_BIN)


def is_coincident(t1: float, t2: float, params: ModelParams) -> bool:
    """The window test on one pair of tags, through the array mask."""
    return bool(coincidence_mask(np.array([t1]), np.array([t2]), params)[0])


class TestIsCoincident:
    def test_zero_separation_always_coincident(self):
        # the narrowest window ModelParams accepts (W = 0 is rejected)
        assert is_coincident(0.3, 0.3, continuous(math.ulp(0.0)))
        assert is_coincident(0.3, 0.3, same_bin(0.1))

    def test_continuous_window(self):
        assert not is_coincident(0.500, 0.515, continuous(0.01))
        assert is_coincident(0.500, 0.508, continuous(0.01))

    def test_window_boundary_inclusive(self):
        assert is_coincident(0.5, 0.6, continuous(0.1))

    def test_same_bin_indices(self):
        params = same_bin(0.1)
        assert is_coincident(0.19, 0.11, params)
        assert not is_coincident(0.19, 0.21, params)


class TestAccumulate:
    def test_equal_settings_exact_anticorrelation(self):
        params = same_bin(0.01)
        a = UnitVector3.from_angle_deg(20.0)
        batch = generate_batch(event_stream(7, 0), a, a, params, 200_000)
        stats = accumulate(batch, params)
        assert stats.n_coincident > 0
        assert stats.e_conditional == -1.0
        assert stats.stderr_e == 0.0

    def test_empty_stream_raises(self):
        empty = EventBatch(*(np.empty(0, dtype) for dtype in (np.int8, np.int8, float, float)))
        with pytest.raises(ValueError, match="no events"):
            accumulate(empty, same_bin(0.1))

    def test_zero_coincidences_flagged_undefined(self):
        params = continuous(window=1e-9, tau=0.5)
        batch = generate_batch(event_stream(8, 0), X_AXIS, UnitVector3.from_angle_deg(45.0),
                               params, 50)
        stats = accumulate(batch, params)
        assert stats.n_total == 50
        assert stats.n_coincident == 0
        assert stats.e_conditional is None
        assert stats.stderr_e is None
        assert not stats.has_correlation

    def test_batch_and_pair_paths_agree(self):
        """The array reduction equals a pair-by-pair loop over the same
        events in both modes."""
        for params in (same_bin(0.05), continuous(0.05)):
            batch = generate_batch(
                event_stream(9, 0), X_AXIS, UnitVector3.from_angle_deg(30.0), params, 5_000
            )
            cont = params.coincidence_mode is CoincidenceMode.CONTINUOUS
            n_c = sum_xy = 0
            for x1, x2, t1, t2 in zip(batch.x1, batch.x2, batch.t1, batch.t2):
                if cont:
                    hit = abs(t1 - t2) <= params.window
                else:
                    hit = math.floor(t1 / params.tau) == math.floor(t2 / params.tau)
                if hit:
                    n_c += 1
                    sum_xy += int(x1) * int(x2)
            stats = accumulate(batch, params)
            assert n_c > 0
            assert (stats.n_total, stats.n_coincident, stats.sum_xy) == (5_000, n_c, sum_xy)

    def test_merge_of_partials_equals_whole(self):
        """Counts summed over slices of a batch, as the runner sums its
        chunks, equal the counts of the whole batch."""
        params = same_bin(0.02)
        a2 = UnitVector3.from_angle_deg(60.0)
        whole = generate_batch(event_stream(10, 0), X_AXIS, a2, params, 30_000)
        parts = [
            _counts_from_batch(
                EventBatch(whole.x1[lo:hi], whole.x2[lo:hi], whole.t1[lo:hi], whole.t2[lo:hi]),
                params,
            )
            for lo, hi in [(0, 7_000), (7_000, 19_000), (19_000, 30_000)]
        ]
        n, n_c, sum_xy = (sum(column) for column in zip(*parts))
        assert CoincidenceStats.from_counts(n, n_c, sum_xy, params=params) == accumulate(
            whole, params
        )

    def test_stderr_formulas(self):
        params = same_bin(0.05)
        batch = generate_batch(
            event_stream(12, 0), X_AXIS, UnitVector3.from_angle_deg(45.0), params, 100_000
        )
        stats = accumulate(batch, params)
        g, n = stats.gamma_hat, stats.n_total
        assert stats.stderr_gamma == pytest.approx(math.sqrt(g * (1 - g) / n), rel=1e-12)
        e, nc = stats.e_conditional, stats.n_coincident
        assert stats.stderr_e == pytest.approx(math.sqrt((1 - e * e) / nc), rel=1e-12)

    def test_right_angle_limit(self):
        """Post-selected correlation at 90 degrees sits at the cosine value 0."""
        stats = simulate_pair_stats(
            X_AXIS, UnitVector3.from_angle_deg(90.0), same_bin(0.00025),
            10_000_000, seed=501,
        )
        assert abs(stats.e_conditional) < 0.02

    def test_diagonal_limit(self):
        """Post-selected correlation at 45 degrees approaches -cos(45deg)."""
        stats = simulate_pair_stats(
            X_AXIS, UnitVector3.from_angle_deg(45.0), same_bin(0.00025),
            10_000_000, seed=502,
        )
        assert stats.e_conditional == pytest.approx(-math.cos(math.pi / 4), abs=0.03)


class TestConditioningInvariants:
    @pytest.mark.parametrize("tau,window,d,seed", [
        (0.1, 0.1, 3.0, 1),
        (0.001, 0.001, 3.0, 2),
        (0.03, 0.2, 2.0, 3),
        (0.25, 0.04, 5.0, 4),
    ])
    def test_no_correlation_manufactured_at_equal_settings(self, tau, window, d, seed):
        for mode in CoincidenceMode:
            params = ModelParams(tau=tau, window=window, d_exponent=d, coincidence_mode=mode)
            a = UnitVector3.from_angle_deg(77.0)
            batch = generate_batch(event_stream(seed, 0), a, a, params, 50_000)
            stats = accumulate(batch, params)
            assert stats.e_conditional == -1.0

    def test_window_monotonicity(self):
        base = continuous(math.ulp(0.0), tau=0.5)
        batch = generate_batch(
            event_stream(13, 0), X_AXIS, UnitVector3.from_angle_deg(50.0), base, 20_000
        )
        previous = -1
        for w in (math.ulp(0.0), 0.001, 0.01, 0.1, 0.5, 1.0):
            n_c = accumulate(batch, continuous(w, tau=0.5)).n_coincident
            assert n_c >= previous
            previous = n_c

    def test_full_window_recovers_triangle_law(self):
        alpha_deg = 60.0
        params = continuous(1.0)
        stats = simulate_pair_stats(
            X_AXIS, UnitVector3.from_angle_deg(alpha_deg), params, 1_000_000, seed=503
        )
        assert stats.gamma_hat == 1.0
        expected = -(1.0 - 2.0 * math.radians(alpha_deg) / math.pi)
        assert stats.e_conditional == pytest.approx(expected, abs=0.004)


class TestCoincidenceProbabilityExact:
    def test_window_covers_square(self):
        assert coincidence_probability_exact(1.0, 1.0, 1.0) == 1.0

    def test_rectangular_band_value(self):
        assert coincidence_probability_exact(1.0, 2.0, 0.1) == pytest.approx(0.0975, abs=1e-15)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(2024)
        n = 10**7
        u = rng.random(n)
        v = 2.0 * rng.random(n)
        hits = float((np.abs(u - v) <= 0.1).mean())
        p = coincidence_probability_exact(1.0, 2.0, 0.1)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits - p) < 3.0 * sigma

    def test_degenerate_sides(self):
        assert coincidence_probability_exact(0.0, 0.0, 0.0) == 1.0
        assert coincidence_probability_exact(0.0, 2.0, 0.1) == pytest.approx(0.05)
        assert coincidence_probability_exact(0.5, 0.0, 0.1) == pytest.approx(0.2)
        assert coincidence_probability_exact(0.0, 0.05, 0.1) == 1.0

    def test_density_upper_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            T1, T2 = rng.uniform(0.01, 1.0, size=2)
            W = rng.uniform(0.0, 1.0)
            p = coincidence_probability_exact(T1, T2, W)
            assert 0.0 <= p <= 1.0
            assert p <= min(1.0, 2.0 * W * min(T1, T2) / (T1 * T2)) + 1e-12

    def test_monotone_in_window(self):
        values = [coincidence_probability_exact(0.7, 0.9, w) for w in np.linspace(0, 1, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestSameBinProbabilityExact:
    def test_equals_density_when_endpoint_bins_differ(self):
        # T2/tau is an integer here, so every bin mass is tau/T and the sum
        # telescopes to tau * min / (T1*T2) exactly
        assert same_bin_probability_exact(0.7, 0.4, 0.05) == pytest.approx(
            0.05 * 0.4 / (0.7 * 0.4), rel=1e-12
        )

    def test_never_exceeds_density(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            T1, T2 = rng.uniform(0.01, 1.0, size=2)
            tau = rng.uniform(0.001, 1.0)
            p = same_bin_probability_exact(T1, T2, tau)
            assert p <= min(1.0, tau * min(T1, T2) / (T1 * T2)) + 1e-12

    def test_against_monte_carlo(self):
        T1, T2, tau = 0.7, 0.4, 0.05
        rng = np.random.default_rng(2025)
        n = 10**6
        t1 = rng.random(n) * T1
        t2 = rng.random(n) * T2
        hits = float((np.floor(t1 / tau) == np.floor(t2 / tau)).mean())
        p = same_bin_probability_exact(T1, T2, tau)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits - p) < 4.0 * sigma

    def test_shared_endpoint_bin_case(self):
        # both scales end inside the same bin: only that bin contributes
        # fully, so the probability drops below the density
        p = same_bin_probability_exact(0.32, 0.33, 0.25)
        density = 0.25 * 0.32 / (0.32 * 0.33)
        assert p < density

    def test_degenerate_sides(self):
        assert same_bin_probability_exact(0.0, 0.0, 0.1) == 1.0
        assert same_bin_probability_exact(0.0, 0.4, 0.1) == pytest.approx(0.25)
        assert same_bin_probability_exact(0.4, 0.0, 0.1) == pytest.approx(0.25)

    def test_model_rate_matches_geometry(self):
        """Empirical same-bin rate at fixed delay scales matches the exact
        bin geometry within Monte Carlo error."""
        T1, T2, tau = 0.61, 0.37, 0.02
        rng = event_stream(14, 0)
        n = 1_000_000
        t1 = rng.random(n) * T1
        t2 = rng.random(n) * T2
        hits = float((np.floor(t1 / tau) == np.floor(t2 / tau)).mean())
        p = same_bin_probability_exact(T1, T2, tau)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits - p) < 4.0 * sigma
        assert hits <= min(1.0, tau * min(T1, T2) / (T1 * T2)) + 3.0 * sigma
