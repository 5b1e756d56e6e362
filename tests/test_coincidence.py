"""Window post-selection, estimators, the exact per-pair probability, and
the screen."""

import decimal
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from eprbsim import coincidence
from eprbsim.coincidence import (
    OVERLAP_EPS,
    CoincidenceStats,
    _block_counts,
    _counts_from_batch,
    _outcome_counts,
    _screen,
    _screen_direction,
    _screen_limit,
    _station_tag_estimate,
    _tag_slack,
    accumulate,
    chunk_counts,
    coincidence_mask,
    coincidence_probability,
)
from eprbsim.model import (
    CoincidenceMode,
    EventBatch,
    ModelParams,
    UnitVector3,
    _delay,
    _events_from_uniforms,
    _hidden_direction,
    _overlap,
    _station,
    batch_streams,
    event_stream,
    generate_batch,
)
from eprbsim.runner import simulate_pair_stats

CONTINUOUS, SAME_BIN = CoincidenceMode.CONTINUOUS, CoincidenceMode.SAME_BIN
X_AXIS = UnitVector3(1.0, 0.0)
Y_AXIS = UnitVector3(0.0, 1.0)
# a setting not made by from_angle_deg, its components exact decimals
EXACT = UnitVector3(0.28, -0.96)


def continuous(window: float, tau: float = 0.25) -> ModelParams:
    return ModelParams(tau=tau, window=window, coincidence_mode=CoincidenceMode.CONTINUOUS)


def same_bin(tau: float) -> ModelParams:
    return ModelParams(tau=tau, window=tau, coincidence_mode=CoincidenceMode.SAME_BIN)


def exact_overlaps(u: np.ndarray, a1: UnitVector3, a2: UnitVector3) -> tuple:
    """The kernel's float64 overlaps (d1, d2) of the hidden directions of
    ``u``, one station call each."""
    s = _hidden_direction(u)
    return _overlap(s, a1), _overlap(s, a2)


def screen_overlaps(u: np.ndarray, a1: UnitVector3, a2: UnitVector3) -> tuple:
    """The screen's float32 overlaps (d~1, d~2), the kernel's ``_overlap``
    of the float32 direction, one station call each."""
    h = _screen_direction(u)
    return _overlap(h, a1), _overlap(h, a2)


def tag_estimates(u: np.ndarray, a1: UnitVector3, a2: UnitVector3, params: ModelParams) -> tuple:
    """The screen's float32 tag estimates (t~1, t~2), one station call
    each."""
    h = _screen_direction(u)
    return tuple(_station_tag_estimate(h, a, t_row, params.d_exponent)
                 for a, t_row in ((a1, u[2]), (a2, u[3])))


U32 = 2.0 ** -24  # float32's unit roundoff

# wrong versions of coincidence._tag_slack that the screen's fuzz must catch
SLACK_MUTATIONS = {
    "no slack": lambda d_exponent: 0.0,
    "no drift": lambda d_exponent: 20 * U32,
    "linear drift below d = 2": lambda d_exponent: (
        min(0.5 * d_exponent * (OVERLAP_EPS / 2 + 4 * U32), 1.0) + 20 * U32),
}


def assert_within_slack(estimates: tuple, batch: EventBatch, d_exponent: float) -> None:
    """Each station's float32 tag estimates are non-negative and within
    ``_tag_slack`` of the kernel's tags."""
    for estimate, t in zip(estimates, (batch.t1, batch.t2)):
        assert estimate.dtype == np.float32 and np.all(estimate >= 0.0)
        assert np.abs(estimate.astype(np.float64) - t).max() <= _tag_slack(d_exponent)


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

    def test_each_mode_reads_its_cut_only(self):
        """``cut`` is W in continuous mode and tau in same-bin mode, and the
        mask reads no other width."""
        narrow_window = ModelParams(tau=0.1, window=1e-9, coincidence_mode=SAME_BIN)
        coarse_bins = continuous(0.01, tau=1.0)
        assert (narrow_window.cut, coarse_bins.cut) == (0.1, 0.01)
        assert is_coincident(0.19, 0.11, narrow_window)
        assert not is_coincident(0.19, 0.11, coarse_bins)


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
        assert CoincidenceStats(n, n_c, sum_xy, params) == accumulate(whole, params)

    @pytest.mark.parametrize("counts, message", [
        ((0, 0, 0), "no events"),
        ((10, 11, 0), "n_coincident <= n_total"),
        ((10, -1, 0), "n_coincident <= n_total"),
        ((10, 5, 6), "cannot exceed n_coincident"),
        ((10, 5, -6), "cannot exceed n_coincident"),
    ])
    def test_stats_refuse_impossible_counts(self, counts, message):
        """A count out of range is refused before any estimator is
        derived, not met by a math domain error from a standard error."""
        with pytest.raises(ValueError, match=message):
            CoincidenceStats(*counts, same_bin(0.1))

    def test_stats_derive_their_estimators(self):
        """The record is made from its counts and parameters alone: the
        estimators cannot be passed, and the fields keep their order."""
        stats = CoincidenceStats(10, 5, 1, same_bin(0.1))
        assert (stats.gamma_hat, stats.e_conditional) == (0.5, 0.2)
        assert (stats.mode, stats.window, stats.tau) == (CoincidenceMode.SAME_BIN, 0.1, 0.1)
        assert [f.name for f in fields(CoincidenceStats)] == [
            "n_total", "n_coincident", "sum_xy", "gamma_hat", "stderr_gamma",
            "e_conditional", "stderr_e", "mode", "window", "tau"]
        for name in ("gamma_hat", "stderr_gamma"):
            with pytest.raises(TypeError, match=name):
                CoincidenceStats(10, 5, 1, same_bin(0.1), **{name: 0.5})

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
        assert coincidence_probability(1.0, 1.0, CONTINUOUS, 1.0) == 1.0

    def test_rectangular_band_value(self):
        assert coincidence_probability(1.0, 2.0, CONTINUOUS, 0.1) == pytest.approx(0.0975,
                                                                                 abs=1e-15)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(2024)
        n = 10**7
        u = rng.random(n)
        v = 2.0 * rng.random(n)
        hits = float((np.abs(u - v) <= 0.1).mean())
        p = coincidence_probability(1.0, 2.0, CONTINUOUS, 0.1)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits - p) < 3.0 * sigma

    def test_degenerate_sides(self):
        assert coincidence_probability(0.0, 0.0, CONTINUOUS, 0.0) == 1.0
        assert coincidence_probability(0.0, 2.0, CONTINUOUS, 0.1) == pytest.approx(0.05)
        assert coincidence_probability(0.5, 0.0, CONTINUOUS, 0.1) == pytest.approx(0.2)
        assert coincidence_probability(0.0, 0.05, CONTINUOUS, 0.1) == 1.0

    def test_density_upper_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            T1, T2 = rng.uniform(0.01, 1.0, size=2)
            W = rng.uniform(0.0, 1.0)
            p = coincidence_probability(T1, T2, CONTINUOUS, W)
            assert 0.0 <= p <= 1.0
            assert p <= min(1.0, 2.0 * W * min(T1, T2) / (T1 * T2)) + 1e-12

    def test_monotone_in_window(self):
        values = [coincidence_probability(0.7, 0.9, CONTINUOUS, w) for w in np.linspace(0, 1, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestSameBinProbabilityExact:
    def test_equals_density_when_endpoint_bins_differ(self):
        # T2/tau is an integer here, so every bin mass is tau/T and the sum
        # telescopes to tau * min / (T1*T2) exactly
        assert coincidence_probability(0.7, 0.4, SAME_BIN, 0.05) == pytest.approx(
            0.05 * 0.4 / (0.7 * 0.4), rel=1e-12
        )

    def test_never_exceeds_density(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            T1, T2 = rng.uniform(0.01, 1.0, size=2)
            tau = rng.uniform(0.001, 1.0)
            p = coincidence_probability(T1, T2, SAME_BIN, tau)
            assert p <= min(1.0, tau * min(T1, T2) / (T1 * T2)) + 1e-12

    def test_against_monte_carlo(self):
        T1, T2, tau = 0.7, 0.4, 0.05
        rng = np.random.default_rng(2025)
        n = 10**6
        t1 = rng.random(n) * T1
        t2 = rng.random(n) * T2
        hits = float((np.floor(t1 / tau) == np.floor(t2 / tau)).mean())
        p = coincidence_probability(T1, T2, SAME_BIN, tau)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits - p) < 4.0 * sigma

    def test_shared_endpoint_bin_case(self):
        # both scales end inside the same bin: only that bin contributes
        # fully, so the probability drops below the density
        p = coincidence_probability(0.32, 0.33, SAME_BIN, 0.25)
        density = 0.25 * 0.32 / (0.32 * 0.33)
        assert p < density

    def test_tiny_tau_without_a_bin_array(self):
        """10^15 bins per unit of time: the closed form needs no array of
        them, and beyond float64's range no count of them."""
        assert coincidence_probability(1.0, 1.0, SAME_BIN, 1e-15) == pytest.approx(1e-15, rel=1e-12)
        # lo / tau overflows: no bin count is formed
        assert coincidence_probability(1.0, 1.0, SAME_BIN, 1e-320) == 1e-320
        assert coincidence_probability(1e10, 2e10, SAME_BIN, 1e-300) == 5e-311

    def test_degenerate_sides(self):
        assert coincidence_probability(0.0, 0.0, SAME_BIN, 0.1) == 1.0
        assert coincidence_probability(0.0, 0.4, SAME_BIN, 0.1) == pytest.approx(0.25)
        assert coincidence_probability(0.4, 0.0, SAME_BIN, 0.1) == pytest.approx(0.25)

    def test_model_rate_matches_geometry(self):
        """Empirical same-bin rate at fixed delay scales matches the exact
        bin geometry within Monte Carlo error."""
        T1, T2, tau = 0.61, 0.37, 0.02
        rng = event_stream(14, 0)
        n = 1_000_000
        t1 = rng.random(n) * T1
        t2 = rng.random(n) * T2
        hits = float((np.floor(t1 / tau) == np.floor(t2 / tau)).mean())
        p = coincidence_probability(T1, T2, SAME_BIN, tau)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits - p) < 4.0 * sigma
        assert hits <= min(1.0, tau * min(T1, T2) / (T1 * T2)) + 3.0 * sigma


def exact_band(T1: float, T2: float, W: float) -> Fraction:
    """P(|t1 - t2| <= W) in exact arithmetic: the rectangle less the two
    corners beyond the band, each a triangle clipped to the rectangle."""
    T1, T2, W = Fraction(T1), Fraction(T2), Fraction(W)
    if T1 == 0 or T2 == 0:
        hi = max(T1, T2)
        return Fraction(1) if hi <= W else W / hi

    def corner(c: Fraction, side: Fraction) -> Fraction:
        c = max(c, Fraction(0))
        return (c * c - max(c - side, Fraction(0)) ** 2) / 2

    return 1 - (corner(T2 - W, T1) + corner(T1 - W, T2)) / (T1 * T2)


def exact_bins(T1: float, T2: float, tau: float) -> Fraction:
    """P(same bin) in exact arithmetic: the sum over bins j of the chances
    that both tags land in bin j, each clamp(T - j tau, 0, tau) / T.  The
    k = floor(lo / tau) bins below lo are full at both stations, and the
    bins above bin k hold no share of lo."""
    T1, T2, tau = Fraction(T1), Fraction(T2), Fraction(tau)
    lo, hi = min(T1, T2), max(T1, T2)
    if hi == 0:
        return Fraction(1)
    if lo == 0:  # a tag of 0 lies in bin 0
        return min(tau, hi) / hi
    k = math.floor(lo / tau)

    def share(T: Fraction) -> Fraction:
        return min(max(T - k * tau, Fraction(0)), tau)

    return (k * tau * tau + share(T1) * share(T2)) / (T1 * T2)


class TestCoincidenceProbability:
    """``coincidence_probability`` in both modes against exact rational
    arithmetic, over scales and cuts from 1e-300 to 1.  The scale 0.5 ** 1000
    is the delay of d = 2000 at a.s = 1/sqrt(2), where T1 T2 underflows;
    at (1, 1, 1e-20) and (1, 0.5, 1e-12), taking the band's corners from
    the whole rectangle cancels."""

    SCALES = [0.0, 1e-300, 0.5 ** 1000, 1e-170, 1e-20, 0.05, 0.32, 0.33, 0.5, 1.0]
    CUTS = [1e-300, 1e-20, 1e-12, 2.5e-4, 0.05, 0.25, 1.0]

    @pytest.mark.parametrize("mode, exact", [(CONTINUOUS, exact_band), (SAME_BIN, exact_bins)],
                             ids=["continuous", "same-bin"])
    def test_within_1e_13_of_exact_arithmetic(self, mode, exact):
        """Relative error at most 1e-13 where P is a normal float, and
        absolute error at most 1e-13 of the smallest normal below; an array
        call equals the calls on its elements."""
        rng = np.random.default_rng(26)
        scales = np.concatenate([self.SCALES, rng.random(6), 10.0 ** rng.uniform(-300.0, 0.0, 6)])
        T1, T2 = (grid.ravel() for grid in np.meshgrid(scales, scales))
        for cut in [*self.CUTS, *10.0 ** rng.uniform(-300.0, 0.0, 4)]:
            got = coincidence_probability(T1, T2, mode, cut)
            for t1, t2, p in zip(T1, T2, got):
                assert coincidence_probability(float(t1), float(t2), mode, cut) == p
                want = exact(t1, t2, cut)
                bound = Fraction(1e-13) * max(want, Fraction(sys.float_info.min))
                assert abs(Fraction(float(p)) - want) <= bound, (t1, t2, cut, p, float(want))

    @pytest.mark.parametrize("T1, T2, mode, cut", [
        (-0.1, 0.5, CONTINUOUS, 0.1), (0.5, math.nan, SAME_BIN, 0.1),
        (0.5, 0.5, SAME_BIN, 0.0), (0.5, 0.5, CONTINUOUS, -1e-9),
    ])
    def test_refuses_negative_scales_and_widths(self, T1, T2, mode, cut):
        with pytest.raises(ValueError, match="need T1, T2 >= 0"):
            coincidence_probability(T1, T2, mode, cut)

    @pytest.mark.parametrize("T1, T2, mode, cut", [
        (0.5, 0.7, SAME_BIN, math.inf), (math.inf, math.inf, SAME_BIN, 0.1),
        (math.inf, 0.7, CONTINUOUS, 0.1), (0.5, math.inf, CONTINUOUS, 0.1),
    ])
    def test_infinite_scale_or_tau_is_refused(self, T1, T2, mode, cut):
        """A tag scale and tau must be finite: an infinite one is refused,
        not returned as nan or 0 (nan and -inf already fail T, tau >= 0),
        while continuous mode keeps every pair at W = inf."""
        with pytest.raises(ValueError, match="need T1, T2 >= 0 and finite"):
            coincidence_probability(T1, T2, mode, cut)
        assert coincidence_probability(0.5, 0.7, CONTINUOUS, math.inf) == 1.0


class TestCutAgainstPerPairProbability:
    """Given its hidden direction, a pair's tags are independent uniforms on
    [0, T1) and [0, T2), so the cut keeps it with the chance P =
    ``coincidence_probability(T1, T2)``.  The counts of ``chunk_counts`` on
    a chunk are then sums of independent Bernoulli(P) over its pairs: z =
    (n_c - sum P) / sqrt(sum P (1 - P)) is close to N(0, 1), and so is the
    z of sum_xy against sum P x1 x2.  This tests the tag draws, the screen
    and the cut as one layer, on the directions the chunk drew.  The seeds,
    the cases and the bound |z| <= 4 were fixed in advance."""

    N = 1 << 19

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("mode, cut, alpha_deg", [
        (SAME_BIN, 1e-2, 45.0), (SAME_BIN, 2.5e-4, 45.0),
        (CONTINUOUS, 2.5e-4, 150.0), (SAME_BIN, 2.5e-4, 0.0),
    ])
    def test_counts_within_four_sigma_of_the_exact_sums(self, seed, mode, cut, alpha_deg):
        params = ModelParams(tau=cut, window=cut, coincidence_mode=mode)
        a1, a2 = X_AXIS, UnitVector3.from_angle_deg(alpha_deg)
        u = np.array([rng.random(self.N) for rng in batch_streams(seed, 0, self.N, rows=4)])
        counts = chunk_counts((seed, 0, 0, self.N, a1, a2, params))
        # the chunk's own pairs: the kernel on these uniforms gives its counts
        assert _counts_from_batch(_events_from_uniforms(u, a1, a2, params), params) == counts
        s, ones = _hidden_direction(u), np.ones(self.N)
        x1, T1 = _station(s, 1, a1, ones, params.d_exponent)
        x2, T2 = _station(s, -1, a2, ones, params.d_exponent)
        P = coincidence_probability(T1, T2, mode, cut)
        sigma = math.sqrt(np.sum(P * (1.0 - P)))
        z_count = (counts[1] - np.sum(P)) / sigma
        z_xy = (counts[2] - np.sum(P * (x1 * x2))) / sigma
        assert abs(z_count) <= 4.0 and abs(z_xy) <= 4.0, (z_count, z_xy)


class TestScreen:
    """``_block_counts`` screens with float32 tag estimates, then runs the
    exact kernel on the kept pairs; its counts of one block must equal the
    kernel's on the whole block, also for pairs built to sit at the edge of
    the cut."""

    @staticmethod
    def edge_uniforms(seed: int, n: int, a1, a2, params, cut: float) -> np.ndarray:
        """Uniforms whose tags sit at the edge of the cut.

        Half of the station-1 tags are moved to 0, 1 or 2 cut widths (plus
        up to 1e-6 of one).  Each station-2 tag is then placed one cut width
        away from its station-1 tag, to within 1e-6 of it, or anywhere
        within three cut widths.  A tenth of the pairs, and those that
        would need a uniform outside [0, 1), keep their random tags.
        """
        u = event_stream(seed, 0).random((4, n))
        batch = generate_batch(event_stream(seed, 0), a1, a2, params, n)
        T1, T2 = batch.t1 / u[2], batch.t2 / u[3]
        rng = np.random.default_rng(seed)
        half = rng.random((2, n)) < 0.5
        t1 = np.where(half[0], cut * rng.integers(0, 3, n) * (1.0 + rng.uniform(0.0, 1e-6, n)),
                      batch.t1)
        width = rng.choice([-1.0, 1.0], n) * (1.0 + rng.uniform(-1e-6, 1e-6, n))
        t2 = t1 + cut * np.where(half[1], width, rng.uniform(-3.0, 3.0, n))
        with np.errstate(divide="ignore", invalid="ignore"):
            u2, u3 = t1 / T1, t2 / T2
        usable = np.arange(n) % 10 != 0
        for v in (u2, u3):
            usable &= np.isfinite(v) & (v >= 0.0) & (v < 1.0)
        u[2:] = np.where(usable, [u2, u3], u[2:])
        return u

    @pytest.mark.parametrize("mode", list(CoincidenceMode))
    @pytest.mark.parametrize("alpha_deg", [0.0, 45.0, 90.0, 180.0])
    @pytest.mark.parametrize("cut", [1.0, 0.1, 2.5e-4, 1e-9, 1e-300, sys.float_info.min,
                                     2.0 ** -126, 1.2e-38])
    def test_screened_counts_equal_whole_block(self, mode, alpha_deg, cut):
        params = ModelParams(tau=cut, window=cut, coincidence_mode=mode)
        a1, a2 = UnitVector3.from_angle_deg(30.0), UnitVector3.from_angle_deg(30.0 + alpha_deg)
        n = 20_000
        u = self.edge_uniforms(41, n, a1, a2, params, cut)
        want = _counts_from_batch(_events_from_uniforms(u, a1, a2, params), params)
        assert _block_counts([u], a1, a2, params) == want
        assert want[1] > (0 if cut < 1e-9 else n // 100)

    @staticmethod
    def fuzzed_setting(rng) -> UnitVector3:
        """A setting at a random angle, or in three of ten cases one
        normalised from random components."""
        if rng.random() < 0.3:
            v = rng.normal(size=2)
            return UnitVector3(*(float(c) for c in v / np.linalg.norm(v)))
        return UnitVector3.from_angle_deg(rng.uniform(-360.0, 360.0))

    @staticmethod
    def pushed_uniforms(rng, n: int, a1, a2, params, cut: float) -> np.ndarray:
        """Random uniforms (4, n), with up to half the pairs moved so that
        |t1 - t2| lies within a relative 1e-17 to 1e-6 of the cut, on either
        side.  A quarter of the moved pairs have s within 1e-6 turns of
        perpendicular to one setting, where T is flattest and the drift is
        smallest, and half have t1 placed at 0, 1 or 2 cut widths,
        the floor of a bin.  Each move solves for a tag's uniform from the
        kernel's delay; a pair that would need a uniform outside [0, 1)
        keeps its random tags."""
        u = rng.random((4, n))
        moved = rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False)
        flat = moved[rng.random(len(moved)) < 0.25]
        for a, j in ((a1, flat[0::2]), (a2, flat[1::2])):
            turn = math.atan2(a.y, a.x) / (2.0 * math.pi) + rng.choice([-0.25, 0.25], len(j))
            u1 = np.mod(turn + rng.uniform(-1e-6, 1e-6, len(j)), 1.0)
            u[1, j] = np.where(u1 < 1.0, u1, 0.0)
        s = _hidden_direction(u)
        T1, T2 = (_station(s, 1, a, np.ones(n), params.d_exponent)[1] for a in (a1, a2))
        floor = moved[rng.random(len(moved)) < 0.5]
        t1 = u[2] * T1
        t1[floor] = cut * rng.integers(0, 3, len(floor))
        rel = rng.choice([-1.0, 1.0], len(moved)) * 10.0 ** rng.uniform(-17.0, -6.0, len(moved))
        t2 = t1[moved] + rng.choice([-1.0, 1.0], len(moved)) * cut * (1.0 + rel)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u2, u3 = t1[moved] / T1[moved], t2 / T2[moved]
        usable = np.ones(len(moved), bool)
        for v in (u2, u3):
            usable &= np.isfinite(v) & (v >= 0.0) & (v < 1.0)
        u[2, moved[usable]] = u2[usable]
        u[3, moved[usable]] = u3[usable]
        return u

    @classmethod
    def fuzz_screen(cls, mode: CoincidenceMode) -> tuple[tuple | None, int]:
        """Seeded fuzz of the screen's soundness proof: random settings, and
        a2 = a1 in a fifth of cases; d in {1, 2, 3} or
        uniform on (0.05, 50); cuts log-uniform from 1e-300 to 1; pairs pushed
        to the edge of the cut.  Returns the first block whose counts differ
        from the kernel's, as (a1, a2, d, cut, screened, kernel), or None,
        and the number of coincident pairs up to there."""
        rng = np.random.default_rng(20062)
        n, coincident = 4_096, 0
        for _ in range(1_000):
            a1 = cls.fuzzed_setting(rng)
            a2 = a1 if rng.random() < 0.2 else cls.fuzzed_setting(rng)
            d_exponent = (float(rng.choice([1.0, 2.0, 3.0])) if rng.random() < 0.5
                          else rng.uniform(0.05, 50.0))
            cut = 10.0 ** rng.uniform(-300.0, 0.0)
            params = ModelParams(tau=cut, window=cut, d_exponent=d_exponent,
                                 coincidence_mode=mode)
            u = cls.pushed_uniforms(rng, n, a1, a2, params, cut)
            want = _counts_from_batch(_events_from_uniforms(u, a1, a2, params), params)
            got = _block_counts([u], a1, a2, params)
            if got != want:
                return (a1, a2, d_exponent, cut, got, want), coincident
            coincident += want[1]
        return None, coincident

    @pytest.mark.parametrize("mode", list(CoincidenceMode))
    def test_fuzzed_screen_keeps_every_coincident_pair(self, mode):
        """Each block's counts must equal the kernel's."""
        mismatch, coincident = self.fuzz_screen(mode)
        assert mismatch is None, mismatch
        # not vacuous: about 5.09e5 (same-bin) and 6.37e5 (continuous) pairs
        # coincide, nearly all of them pushed ones
        assert coincident > 100_000

    @pytest.mark.parametrize("mutation", list(SLACK_MUTATIONS))
    def test_fuzz_catches_each_documented_mutation(self, monkeypatch, mutation):
        """The fuzz finds a block with wrong counts under each mutation of
        ``_tag_slack``: no slack, the rounding term alone (no drift), and
        the drift p dx of p >= 1 also for p < 1.  The proof's other terms
        have room that the fuzz cannot reach, since the measured overlap
        error, 3.1e-7, is an eighth of the eps / 4 it allows: the limit
        tightened by a relative 2e-6, OVERLAP_EPS = 1e-8 and the slack
        without its 20 u32 each pass the fuzz.  So would the former
        mutations of the directed bounds; their factor M and the 2^-40
        slack are gone, and the slack's spare u32 covers what the 2^-40
        covered."""
        monkeypatch.setattr(coincidence, "_tag_slack", SLACK_MUTATIONS[mutation])
        mismatch, _ = self.fuzz_screen(CoincidenceMode.SAME_BIN)
        assert mismatch is not None

    @staticmethod
    def solved_pairs(u: np.ndarray, target: float, scale: np.ndarray) -> np.ndarray:
        """The pairs of ``u`` for which a station-2 tag uniform v < 1 in the
        precision of ``scale``, within four ulps of target / scale, has
        fl(v * scale) = ``target``; with that v in row 3."""
        dtype = scale.dtype.type
        target = dtype(target)
        found = np.full(scale.shape, np.nan, scale.dtype)
        lo = hi = target / scale
        for _ in range(5):
            for v in (lo, hi):
                hit = np.isnan(found) & (v * scale == target) & (v < 1.0)
                found[hit] = v[hit]
            lo, hi = np.nextafter(lo, dtype(0.0)), np.nextafter(hi, dtype(np.inf))
        placed = ~np.isnan(found)
        w = u[:, placed]
        w[3] = found[placed]
        return w

    @classmethod
    def check_limit(cls, mode: CoincidenceMode, d_exponent: float, cut: float) -> None:
        """Station 1's tag is 0 (u2 = 0), and station 2's tag uniform is
        solved from each drawn direction: so that the float32 estimate gap
        is ``_screen_limit`` exactly, where ``_screen`` keeps the pair, or
        one float32 ulp above it, where it drops it; and so that the
        kernel's tag gap is the cut or one float64 ulp to either side,
        where ``_block_counts`` must give the whole block's kernel counts."""
        params = ModelParams(tau=cut, window=cut, d_exponent=d_exponent, coincidence_mode=mode)
        a1, a2 = UnitVector3.from_angle_deg(30.0), UnitVector3.from_angle_deg(75.0)
        u = event_stream(34, 0).random((4, 256))
        u[2] = 0.0
        # station 2's delay T, as the screen estimates it and as the kernel makes it
        ones = np.ones(u.shape[1])
        T_estimate = _station_tag_estimate(_screen_direction(u), a2, ones, d_exponent)
        T = _station(_hidden_direction(u), -1, a2, ones, d_exponent)[1]

        limit = _screen_limit(params)
        for target, kept in ((limit, True), (np.nextafter(limit, np.float32(np.inf)), False)):
            w = cls.solved_pairs(u, target, T_estimate)
            t1, t2 = tag_estimates(w, a1, a2, params)
            assert w.shape[1] > 50 and np.all(np.abs(t1 - t2) == target)
            assert len(_screen(w, a1, a2, d_exponent, limit)) == (w.shape[1] if kept else 0)

        coincident = 0
        for target in (math.nextafter(cut, 0.0), cut, math.nextafter(cut, 1.0)):
            w = cls.solved_pairs(u, target, T)
            batch = _events_from_uniforms(w, a1, a2, params)
            assert w.shape[1] > 50 and np.all(np.abs(batch.t1 - batch.t2) == target)
            want = _counts_from_batch(batch, params)
            assert _block_counts([w], a1, a2, params) == want
            coincident += want[1]
        assert coincident > 50

    @pytest.mark.parametrize("mode", list(CoincidenceMode))
    @pytest.mark.parametrize("d_exponent", [3.0, 1.0])
    @pytest.mark.parametrize("cut", [2.5e-4, 0.3])
    def test_pairs_at_the_screen_limit_and_the_cut(self, mode, d_exponent, cut):
        self.check_limit(mode, d_exponent, cut)

    def test_limit_pairs_catch_no_slack(self, monkeypatch):
        """Without the slack, the screen drops some pair whose kernel tags
        coincide at the cut; so it does in all eight cases above.  The
        other two mutations pass them all: with station 1's tag at 0, the
        estimate errs by at most 1.9e-7, below the 20 u32 = 1.2e-6 that
        both keep, so only the fuzz catches them."""
        monkeypatch.setattr(coincidence, "_tag_slack", SLACK_MUTATIONS["no slack"])
        with pytest.raises(AssertionError):
            self.check_limit(CoincidenceMode.CONTINUOUS, 3.0, 2.5e-4)


class TestTagBounds:
    """The screen's assumptions: float32 trigonometry within a tenth of the
    overlap margin, and kernel tags within the slack of the screen's
    estimates."""

    @pytest.mark.parametrize("trig", [np.cos, np.sin])
    def test_float32_trig_within_a_tenth_of_the_margin(self, trig):
        phi = 2.0 * np.pi * np.concatenate(
            [np.arange(1 << 22) / (1 << 22), np.random.default_rng(5).random(1 << 20)])
        err = np.abs(trig(phi.astype(np.float32)).astype(np.float64) - trig(phi))
        assert err.max() <= OVERLAP_EPS / 10

    @pytest.mark.parametrize("a", [UnitVector3.from_angle_deg(45.0), X_AXIS, Y_AXIS, EXACT])
    def test_screen_overlaps_within_a_tenth_of_the_margin(self, a):
        n = 1 << 16
        u = event_stream(33, 0).random((4, n))
        approx = screen_overlaps(u, a, a)[0]
        exact = exact_overlaps(u, a, a)[0]
        assert np.abs(approx - exact).max() <= OVERLAP_EPS / 10

    @pytest.mark.parametrize("d_exponent", [3.0, 2.0, 1.0, 0.7, 40.0])
    @pytest.mark.parametrize("a2", [UnitVector3.from_angle_deg(45.0), X_AXIS, Y_AXIS, EXACT])
    def test_kernel_tags_within_bounds(self, d_exponent, a2):
        params = ModelParams(d_exponent=d_exponent)
        a1 = UnitVector3.from_angle_deg(100.0)
        n = 50_000
        u = event_stream(32, 0).random((4, n))
        batch = generate_batch(event_stream(32, 0), a1, a2, params, n)
        assert_within_slack(tag_estimates(u, a1, a2, params), batch, d_exponent)

    @pytest.mark.parametrize("d_exponent, budget", [(3.0, 2.01), (2.0, 0.0), (1.0, 2.01),
                                                    (0.7, 16.0)])
    def test_float32_delay_law_within_its_budget_on_a_binade(self, d_exponent, budget):
        """Every float32 base b in [1/2, 1), 2^23 of them, through float32
        ``model._delay``, against float64 b^p' for p' = d/2 rounded to
        float32.  The relative error stays within the budget of the proof's
        delay step (``_station_tag_estimate``), in u32: 2.01 for one or two
        correctly rounded steps, 0 for d = 2 and 16 for ``np.power``;
        measured, 1.62 (d = 3), 0.71 (d = 1) and 0.92 (d = 0.7)."""
        p = float(np.float32(0.5 * d_exponent))
        worst, part = 0.0, 1 << 21
        for start in range(0x3F000000, 0x3F800000, part):  # 1/2 up to 1, as bits
            b = np.arange(start, start + part, dtype=np.uint32).view(np.float32)
            want = np.power(b.astype(np.float64), p)
            got = _delay(b, d_exponent).astype(np.float64)
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
        assert worst <= budget * U32

    # [2, 4) and [4, float32(2 pi)], each as [low, high) in float32
    PHI_RANGES = {"2-4": (2.0, 4.0),
                  "4-2pi": (4.0, np.nextafter(np.float32(2.0 * np.pi), np.float32(8.0)))}

    @pytest.mark.parametrize("low, high", PHI_RANGES.values(), ids=PHI_RANGES)
    def test_float32_trig_within_a_tenth_of_the_margin_from_2_to_2pi(self, low, high):
        """Every float32 phi in [2, 4), 2^23 of them, and in [4,
        float32(2 pi)], 4,788,188, through float32 cos and sin, against
        float64 of the same input.  The screen's delta adds the float32
        rounding of the kernel's phi, at most half an ulp, 2^-22 below 8;
        measured, the trig error alone is 7.2e-8 (2-4) and 6.0e-8 (4-2pi) on
        numpy's AVX-512 path, 3.3e-8 on its baseline path."""
        first, stop = np.array([low, high], dtype=np.float32).view(np.uint32).tolist()
        worst, part = 0.0, 1 << 21
        for start in range(first, stop, part):
            phi = np.arange(start, min(start + part, stop), dtype=np.uint32).view(np.float32)
            wide = phi.astype(np.float64)
            for trig in (np.cos, np.sin):
                worst = max(worst, float(np.max(np.abs(trig(phi).astype(np.float64) - trig(wide)))))
        assert worst + 2.0 ** -22 <= OVERLAP_EPS / 10

    @pytest.mark.parametrize("d_exponent", [3.0, 2.0])
    def test_slack_is_tight_at_the_paper_exponents(self, d_exponent):
        """The slack widens the cut by less than 4e-5, a sixth of the
        paper's tau = 2.5e-4."""
        assert _tag_slack(d_exponent) < 2e-5

    @pytest.mark.parametrize("components", [(0.6, 0.8), (0.28, -0.96)])
    def test_screen_overlap_stays_float32_for_numpy_components(self, components):
        """A setting built from np.float64 components still gives a float32
        screen overlap: a numpy scalar would promote the products to
        float64."""
        a = UnitVector3(*np.array(components))
        u = event_stream(38, 0).random((4, 64))
        assert _overlap(_screen_direction(u), a).dtype == np.float32

    @pytest.mark.parametrize("a", [UnitVector3.from_angle_deg(45.0), X_AXIS, Y_AXIS, EXACT])
    def test_screen_overlaps_near_the_poles_within_a_tenth_of_the_margin(self, a):
        """z = 1 - 2u within 2e-7 of +-1, where the radius is smallest."""
        n = 1 << 16
        u = event_stream(34, 0).random((4, n))
        near = 1e-7 * np.random.default_rng(34).random(n)
        u[0] = np.where(np.arange(n) % 2 == 0, near, 1.0 - near)
        approx = screen_overlaps(u, a, a)[0]
        exact = exact_overlaps(u, a, a)[0]
        assert np.abs(approx - exact).max() <= OVERLAP_EPS / 10

    @staticmethod
    def aligned_uniforms(a: UnitVector3, targets: np.ndarray) -> np.ndarray:
        """Uniforms (2, 2m) of z and phi at which a.s hits each target, with
        s on the equator (u0 = 1/2, z = 0), at both roots in phi."""
        rho, psi = math.hypot(a.x, a.y), math.atan2(a.y, a.x)
        delta = np.arccos(np.minimum(targets * rho, 1.0))
        phi = np.concatenate([psi + delta, psi - delta])
        u1 = np.mod(phi / (2.0 * np.pi), 1.0)
        u1[u1 >= 1.0] = 0.0
        return np.array([np.full(len(phi), 0.5), u1])

    @pytest.mark.parametrize("d_exponent", [3.0, 2.0, 1.0, 0.7, 40.0])
    @pytest.mark.parametrize("a2", [UnitVector3.from_angle_deg(45.0), X_AXIS, Y_AXIS, EXACT])
    def test_kernel_tags_within_bounds_near_alignment(self, d_exponent, a2):
        """|a.s| placed at 1 - 1e-7, 1 - eps and 1 - 2 eps, where T is
        smallest and steepest, at each station."""
        params = ModelParams(d_exponent=d_exponent)
        a1 = UnitVector3.from_angle_deg(100.0)
        tops = np.array([1.0 - 1e-7, 1.0 - OVERLAP_EPS, 1.0 - 2.0 * OVERLAP_EPS])
        targets = np.concatenate([tops, -tops])
        n = 4_096
        u = event_stream(35, 0).random((4, n))
        placed = np.concatenate([self.aligned_uniforms(a, targets) for a in (a1, a2)], axis=1)
        m = placed.shape[1] // 2
        u[:2, :2 * m] = placed
        d1, d2 = exact_overlaps(u, a1, a2)
        want = np.tile(targets, 2)
        assert np.abs(d1[:m] - want).max() < 1e-12
        assert np.abs(d2[m:2 * m] - want).max() < 1e-12
        batch = generate_batch(RowGenerator(u), a1, a2, params, n)
        assert_within_slack(tag_estimates(u, a1, a2, params), batch, d_exponent)

    @pytest.mark.parametrize("d_exponent", [2.0 ** 21, 1e7, 1e300])
    def test_huge_exponent_gets_the_kernel_counts(self, d_exponent):
        """From d ~ 3.8e5 on the slack exceeds 1 and the screen keeps every
        pair; a d/2 beyond float32's range is capped, with no warning."""
        params = ModelParams(tau=2.5e-4, window=2.5e-4, d_exponent=d_exponent)
        a1, a2 = UnitVector3.from_angle_deg(100.0), UnitVector3.from_angle_deg(45.0)
        n = 1_000
        u = event_stream(36, 0).random((4, n))
        want = _counts_from_batch(_events_from_uniforms(u, a1, a2, params), params)
        assert _tag_slack(d_exponent) > 1.0
        assert _block_counts([u], a1, a2, params) == want

    @pytest.mark.parametrize("d_exponent", [3.0, 0.7])
    @pytest.mark.parametrize("a", [X_AXIS, UnitVector3.from_angle_deg(100.0), EXACT])
    def test_each_station_reads_its_own_setting_only(self, a, d_exponent):
        """A station's screen overlap and tag estimate are byte-identical
        under any change of the other station's setting.  At u0 = 0, where
        r = 0, every term of the overlap is a signed zero."""
        params = ModelParams(d_exponent=d_exponent)
        n = 4_096
        u = event_stream(37, 0).random((4, n))
        u[0, :512] = 0.0
        others = [UnitVector3.from_angle_deg(45.0), X_AXIS, Y_AXIS, EXACT]
        station_1 = {(screen_overlaps(u, a, b)[0].tobytes(),
                      tag_estimates(u, a, b, params)[0].tobytes()) for b in others}
        station_2 = {(screen_overlaps(u, b, a)[1].tobytes(),
                      tag_estimates(u, b, a, params)[1].tobytes()) for b in others}
        assert len(station_1) == 1 and len(station_2) == 1


class TestScreenArithmetic:
    """The arithmetic of the screen's proof (``_station_tag_estimate``,
    ``_block_counts``) as exact rational inequalities, on the constants the
    code uses, so that a change to ``OVERLAP_EPS``, ``_tag_slack`` or
    ``_screen_limit`` that breaks the proof fails here.  u32 = 2^-24 and
    eps = OVERLAP_EPS."""

    U32 = Fraction(1, 2 ** 24)
    SQRT2_ABOVE = Fraction(14143, 10000)
    D_EXPONENTS = [0.7, 1.0, 2.0, 3.0, 2.0 ** 21]

    def test_overlap_and_base_fit_their_margins(self):
        eps, u32 = Fraction(OVERLAP_EPS), self.U32
        assert self.SQRT2_ABOVE ** 2 >= 2
        # the overlap: sqrt(2) delta + 2^-20 < eps / 4, with delta < eps / 10
        assert self.SQRT2_ABOVE * eps / 10 + Fraction(1, 2 ** 20) < eps / 4
        # the base: (eps/4)(2 + eps/4), the screen's 2.01 u32 and the
        # kernel's 2^-52 of rounding fit in dx = eps/2 + 4 u32
        assert eps * eps / 16 + Fraction(201, 100) * u32 + Fraction(1, 2 ** 52) <= 4 * u32

    @classmethod
    def drift(cls, d_exponent: float) -> Fraction:
        """An upper bound on the proof's drift: p dx for p = d/2 >= 1, else
        dx^p, and at most 1; dx^p from 40-digit decimal logarithms, raised by
        a relative 1e-30 to cover their rounding."""
        dx = Fraction(OVERLAP_EPS) / 2 + 4 * cls.U32
        p = Fraction(d_exponent) / 2
        if p >= 1:
            return min(p * dx, Fraction(1))
        with decimal.localcontext(decimal.Context(prec=40)):
            base = decimal.Decimal(dx.numerator) / decimal.Decimal(dx.denominator)
            power = (decimal.Decimal(float(p)) * base.ln()).exp()
        return min(Fraction(power) * (1 + Fraction(1, 10 ** 30)), Fraction(1))

    @pytest.mark.parametrize("d_exponent", D_EXPONENTS)
    def test_slack_covers_drift_and_roundings(self, d_exponent):
        """The slack exceeds the drift by the 19 u32 of the tag's roundings,
        and by 2^-53 more, for the same-bin floor's 2^-52 over two tags.  It
        adds 20 u32 to a float64 drift, so its spare is a u32 less its own
        rounding."""
        spare = Fraction(_tag_slack(d_exponent)) - self.drift(d_exponent) - 19 * self.U32
        assert spare >= Fraction(1, 2 ** 53)

    def test_limit_is_at_least_the_cut_plus_twice_the_slack(self):
        cuts = [*np.logspace(-300.0, -1.0, 300), 2.5e-4, 0.5, 1.0 - 2.0 ** -53]
        for mode in CoincidenceMode:
            for d_exponent in self.D_EXPONENTS:
                twice = 2 * Fraction(_tag_slack(d_exponent))
                for cut in map(float, cuts):
                    limit = _screen_limit(ModelParams(tau=cut, window=cut, d_exponent=d_exponent,
                                                      coincidence_mode=mode))
                    assert Fraction(float(limit)) >= Fraction(cut) + twice, (mode, d_exponent, cut)


class RowGenerator:
    """Stands in for a numpy Generator whose successive draws are the rows
    of ``u``."""

    def __init__(self, u: np.ndarray) -> None:
        self.rows = iter(u)

    def random(self, out):
        out[:] = next(self.rows)
        return out


class TestOutcomeScreen:
    """Without a cut (tau = 1 or W = 1), ``_outcome_counts`` counts agreements
    from where phi falls against each station's half-turn, and gives a block
    the exact overlaps when a pair lies within 2^-30 turns of a half-turn's
    end or when u0 = 0; its counts must equal the kernel's for hidden
    directions placed where a.s is near 0."""

    TARGETS = [sign * v for v in (OVERLAP_EPS / 2, OVERLAP_EPS, 2 * OVERLAP_EPS, 1e-12)
               for sign in (1.0, -1.0)]

    @staticmethod
    def placed_uniforms(a: UnitVector3, targets, z: np.ndarray) -> np.ndarray:
        """Uniforms (2, m) of z and phi whose hidden direction s has a.s at
        each target, for each z and both roots in phi.  The closed-form root
        is rounded twice, to phi and to turns, so u1 then takes one Newton
        step in turns on the kernel's own overlap."""
        rho, psi = math.hypot(a.x, a.y), math.atan2(a.y, a.x)
        t, z = np.meshgrid(targets, z)
        r = np.sqrt(1.0 - z * z)
        delta = np.arccos(t / (r * rho))
        phi = np.concatenate([(psi + delta).ravel(), (psi - delta).ravel()])
        u = np.array([np.tile((1.0 - z.ravel()) / 2.0, 2), np.mod(phi / (2.0 * np.pi), 1.0)])
        s = _hidden_direction(u)
        # d(a.s)/du1 = 2 pi (sx a.y - sy a.x)
        step = (_overlap(s, a) - np.tile(t.ravel(), 2)) / (2.0 * np.pi * (s[0] * a.y - s[1] * a.x))
        u[1] = np.mod(u[1] - step, 1.0)
        u[1, u[1] >= 1.0] = 0.0
        return u

    @pytest.mark.parametrize("mode", list(CoincidenceMode))
    @pytest.mark.parametrize("a1, a2", [
        (UnitVector3.from_angle_deg(30.0), UnitVector3.from_angle_deg(75.0)),
        (EXACT, UnitVector3.from_angle_deg(160.0)),
        (UnitVector3.from_angle_deg(50.0), -UnitVector3.from_angle_deg(50.0)),
        (Y_AXIS, UnitVector3.from_angle_deg(200.0)),
    ])
    def test_edge_overlaps_give_the_kernel_counts(self, mode, a1, a2):
        params = ModelParams(tau=1.0, window=1.0, coincidence_mode=mode)
        z = np.linspace(-0.3, 0.3, 25)
        placed = [self.placed_uniforms(a, self.TARGETS, z) for a in (a1, a2)]
        # u0 = 0 puts s on the z axis, where the kernel's a.s is exactly 0
        zeros = np.array([[0.0, 0.0], [0.25, 0.75]])
        n = 4_099
        u = event_stream(43, 0).random((4, n))
        zphi = np.concatenate([*placed, zeros], axis=1)
        u[:2, :zphi.shape[1]] = zphi

        # the placements are where they were meant to be
        d1, d2 = exact_overlaps(u, a1, a2)
        m = placed[0].shape[1]
        want = np.tile(np.repeat([self.TARGETS], len(z), axis=0).ravel(), 2)
        assert np.abs(d1[:m] - want).max() < 1e-15
        assert np.abs(d2[m:2 * m] - want).max() < 1e-15
        assert d1[2 * m] == 0.0 and d2[2 * m + 1] == 0.0

        batch = generate_batch(RowGenerator(u), a1, a2, params, n)
        sign_xy = np.where(batch.x1 == batch.x2, 1, -1)
        want = _counts_from_batch(batch, params)
        assert want[:2] == (n, n)
        # each placed event alone, so that no two errors can cancel
        for j in range(zphi.shape[1]):
            assert _outcome_counts([u[:2, j:j + 1]], a1, a2) == (1, 1, sign_xy[j])
        block = u.copy()
        block[2:] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome_counts([block], a1, a2) == want
            # only z and phi are needed
            assert _outcome_counts([block[:2]], a1, a2) == want

    def test_float64_trig_within_2_to_the_minus_40(self):
        """delta, the error of numpy's float64 cos and sin of the kernel's
        phi, which the half-turn count's proof takes below 2^-40."""
        if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
            pytest.skip("no long double wider than float64 to compare against")
        u1 = np.concatenate([np.arange(1 << 20) / (1 << 20),
                             np.random.default_rng(7).random(1 << 20)])
        phi = 2.0 * np.pi * u1
        wide = phi.astype(np.longdouble)
        for trig in (np.cos, np.sin):
            err = np.abs(trig(phi).astype(np.longdouble) - trig(wide))
            assert err.max() <= 2.0 ** -40

    SETTINGS = [Y_AXIS, X_AXIS, -X_AXIS,
                UnitVector3.from_angle_deg(90.0), UnitVector3.from_angle_deg(270.0)]

    @classmethod
    def fuzzed_settings(cls, rng) -> tuple[UnitVector3, UnitVector3]:
        """Pairs of random angles, a2 = a1, a2 = -a1, multiples of 90
        degrees and exact axes."""
        def angle():
            return UnitVector3.from_angle_deg(rng.uniform(-360.0, 360.0))

        def axis(settings):
            return settings[rng.integers(len(settings))]

        kind = rng.integers(10)
        a1 = angle() if kind < 5 else axis(cls.SETTINGS)
        if kind in (2, 6):
            return a1, a1
        if kind in (3, 7):
            return a1, -a1
        return a1, angle() if kind < 5 else axis(cls.SETTINGS)

    @staticmethod
    def ends(a: UnitVector3) -> list[float]:
        """The u1 at the two ends of a setting's half-turn."""
        p = math.atan2(a.y, a.x) / (2.0 * math.pi)
        return [(p - 0.25) % 1.0, (p + 0.25) % 1.0]

    @pytest.mark.parametrize("mode", list(CoincidenceMode))
    def test_fuzzed_half_turn_counts_equal_the_kernel(self, monkeypatch, mode):
        """Seeded fuzz: blocks of random pairs, some with u1 moved to within
        1e-17 to 1e-6 of a half-turn's end, or u0 at 0, 2^-53 or 1 - 2^-53.
        Each block alone, and all of them together, must give the kernel's
        counts; some blocks must be counted from the half-turns alone and
        some from the exact overlaps."""
        params = ModelParams(tau=1.0, window=1.0, coincidence_mode=mode)
        exact_calls = []

        def counting_hidden_direction(u):
            exact_calls.append(u.shape[1])
            return _hidden_direction(u)

        monkeypatch.setattr(coincidence, "_hidden_direction", counting_hidden_direction)
        rng = np.random.default_rng(20061)
        n_blocks = 0
        for _ in range(300):
            a1, a2 = self.fuzzed_settings(rng)
            ends = [b for a in (a1, a2) for b in self.ends(a)]
            blocks = []
            for _ in range(4):
                n = int(rng.integers(1, 600))
                u = rng.random((4, n))
                for j in rng.choice(n, size=min(n, int(rng.integers(0, 4))), replace=False):
                    offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-17.0, -6.0)
                    u[1, j] = (ends[rng.integers(len(ends))] + offset) % 1.0
                    if u[1, j] >= 1.0:
                        u[1, j] = 0.0
                if rng.random() < 0.1:
                    u[0, rng.integers(n)] = rng.choice([0.0, 2.0 ** -53, 1.0 - 2.0 ** -53])
                want = _counts_from_batch(_events_from_uniforms(u, a1, a2, params), params)
                assert _outcome_counts([u], a1, a2) == want, (a1, a2)
                blocks.append((u, want))
            total = tuple(sum(w[i] for _, w in blocks) for i in range(3))
            assert _outcome_counts((u for u, _ in blocks), a1, a2) == total
            n_blocks += len(blocks)
        # each block is counted twice: alone and in the run of four
        assert n_blocks // 4 < len(exact_calls) // 2 < n_blocks * 3 // 4


class TestReducedDispatch:
    # the trig pins behind the screen's delta and the outcome path's 2^-40
    TRIG_PINS = [
        "TestTagBounds::test_float32_trig_within_a_tenth_of_the_margin",
        "TestTagBounds::test_screen_overlaps_within_a_tenth_of_the_margin",
        "TestTagBounds::test_float32_trig_within_a_tenth_of_the_margin_from_2_to_2pi",
        "TestOutcomeScreen::test_float64_trig_within_2_to_the_minus_40",
    ]

    # numpy's X86_V3 (AVX2) level: the dispatched features above it
    ABOVE_X86_V3 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

    @staticmethod
    def enabled(names=None) -> list[str]:
        """The features that numpy dispatches to and finds here, of ``names``
        if given."""
        umath = pytest.importorskip("numpy._core._multiarray_umath")
        return [f for f in umath.__cpu_dispatch__
                if umath.__cpu_features__.get(f) and (names is None or f in names)]

    @staticmethod
    def run_without(features: list[str], tests: list[str], passed: int) -> None:
        """Run ``tests`` in a child process with ``features`` switched off
        (``NPY_DISABLE_CPU_FEATURES``, set in the child only); the child
        asserts that they are off, and ``passed`` tests pass."""
        repo = Path(__file__).resolve().parents[1]
        check = (
            "import sys, pytest, numpy._core._multiarray_umath as m\n"
            f"assert not any(m.__cpu_features__[f] for f in {features!r})\n"
            "sys.exit(pytest.main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(repo / "src"),
                   NPY_DISABLE_CPU_FEATURES=" ".join(features))
        proc = subprocess.run([sys.executable, "-c", check, "-q", "-p", "no:cacheprovider", *tests],
                              cwd=repo, env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1].startswith(f"{passed} passed"), proc.stdout

    def test_trig_pins_hold_on_numpy_baseline_dispatch(self):
        """numpy picks its float32 cos and sin by CPU at run time.  With
        every dispatched feature that numpy reports enabled switched off, a
        child process runs on numpy's baseline path, and the trig pins hold
        there too."""
        features = self.enabled()
        if not features:
            pytest.skip("numpy dispatches no feature beyond its baseline here")
        self.run_without(features, [f"tests/test_coincidence.py::{pin}" for pin in self.TRIG_PINS],
                         passed=9)

    @pytest.mark.parametrize("level", ["baseline", "X86_V3"])
    def test_golden_pins_hold_on_reduced_dispatch(self, level):
        """Every count and digest of the golden runs is the same on numpy's
        baseline path and at its X86_V3 (AVX2) level, where the features
        above it are off."""
        features = self.enabled(None if level == "baseline" else self.ABOVE_X86_V3)
        if not features or (level == "X86_V3" and not self.enabled(["X86_V3"])):
            pytest.skip(f"numpy's {level} level is what it runs here")
        self.run_without(features, ["tests/test_golden.py"], passed=9)
