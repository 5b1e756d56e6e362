"""Window post-selection, estimators, and the exact probability oracles."""

import math
import sys
import warnings

import numpy as np
import pytest

from eprbsim import coincidence
from eprbsim.coincidence import (
    OVERLAP_EPS,
    CoincidenceStats,
    _block_counts,
    _counts_from_batch,
    _screen_direction,
    _screen_overlap,
    _station_tag_bounds,
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
    _events_from_uniforms,
    _hidden_direction,
    _overlap,
    _station,
    event_stream,
    generate_batch,
)
from eprbsim.runner import simulate_pair_stats

X_AXIS = UnitVector3(1.0, 0.0, 0.0)
Z_AXIS = UnitVector3(0.0, 0.0, 1.0)


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
    """The screen's float32 overlaps (d~1, d~2), one station call each."""
    h = _screen_direction(u)
    return _screen_overlap(h, a1), _screen_overlap(h, a2)


def tag_bounds(u: np.ndarray, a1: UnitVector3, a2: UnitVector3, params: ModelParams) -> tuple:
    """The screen's float32 tag bounds (lo1, hi1, lo2, hi2), one station
    call each."""
    h = _screen_direction(u)
    return (*_station_tag_bounds(h, a1, u[2], params),
            *_station_tag_bounds(h, a2, u[3], params))


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

    def test_tiny_tau_without_a_bin_array(self):
        """10^15 bins per unit of time: the closed form needs no array of
        them, and beyond float64's range no count of them."""
        assert same_bin_probability_exact(1.0, 1.0, 1e-15) == pytest.approx(1e-15, rel=1e-12)
        # lo / tau overflows: no bin count is formed
        assert same_bin_probability_exact(1.0, 1.0, 1e-320) == 1e-320
        assert same_bin_probability_exact(1e10, 2e10, 1e-300) == 5e-311

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


class TestScreen:
    """``_block_counts`` screens with float32 bounds, then runs the exact
    kernel on the kept pairs; its counts of one block must equal the
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
        """An in-plane setting at a random angle, or in three of ten cases a
        random direction off the plane."""
        if rng.random() < 0.3:
            v = rng.normal(size=3)
            return UnitVector3(*(float(c) for c in v / np.linalg.norm(v)))
        return UnitVector3.from_angle_deg(rng.uniform(-360.0, 360.0))

    @staticmethod
    def pushed_uniforms(rng, n: int, a1, a2, params, cut: float) -> np.ndarray:
        """Random uniforms (4, n), with up to half the pairs moved so that
        |t1 - t2| lies within a relative 1e-17 to 1e-6 of the cut, on either
        side.  A quarter of the moved pairs have s within 1e-6 turns of
        perpendicular to one setting, where T is flattest and the bounds are
        widened by M alone, and half have t1 placed at 0, 1 or 2 cut widths,
        the floor of a bin.  Each move solves for a tag's uniform from the
        kernel's delay; a pair that would need a uniform outside [0, 1)
        keeps its random tags."""
        u = rng.random((4, n))
        moved = rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False)
        flat = moved[rng.random(len(moved)) < 0.25]
        for a, j in ((a1, flat[0::2]), (a2, flat[1::2])):
            if a.z != 0.0:
                u[0, j] = 0.5  # s in the plane, so a.s = r (a.x cos(phi) + a.y sin(phi))
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

    @pytest.mark.parametrize("mode", list(CoincidenceMode))
    def test_fuzzed_screen_keeps_every_coincident_pair(self, mode):
        """Seeded fuzz of the screen's soundness proof: random settings, off
        the plane too and a2 = a1 in a fifth of cases; d in {1, 2, 3} or
        uniform on (0.05, 50); cuts log-uniform from 1e-300 to 1; pairs pushed
        to the edge of the cut.  Each block's counts must equal the
        kernel's.  It catches each of these mutations: OVERLAP_EPS = 1e-8,
        the limit tightened by a relative 2e-6, M = 2^-26 for d = 1, 2, 3,
        and no _SCREEN_SLACK."""
        rng = np.random.default_rng(20062)
        n, coincident = 4_096, 0
        for _ in range(1_000):
            a1 = self.fuzzed_setting(rng)
            a2 = a1 if rng.random() < 0.2 else self.fuzzed_setting(rng)
            d_exponent = (float(rng.choice([1.0, 2.0, 3.0])) if rng.random() < 0.5
                          else rng.uniform(0.05, 50.0))
            cut = 10.0 ** rng.uniform(-300.0, 0.0)
            params = ModelParams(tau=cut, window=cut, d_exponent=d_exponent,
                                 coincidence_mode=mode)
            u = self.pushed_uniforms(rng, n, a1, a2, params, cut)
            want = _counts_from_batch(_events_from_uniforms(u, a1, a2, params), params)
            assert _block_counts([u], a1, a2, params) == want, (a1, a2, d_exponent, cut)
            coincident += want[1]
        # not vacuous: about 4.9e5 (same-bin) and 6.1e5 (continuous) pairs
        # coincide, nearly all of them pushed ones
        assert coincident > 100_000


class TestTagBounds:
    """The screen's assumptions: float32 trigonometry within a tenth of the
    overlap margin, and kernel tags inside the screen's bounds."""

    @pytest.mark.parametrize("trig", [np.cos, np.sin])
    def test_float32_trig_within_a_tenth_of_the_margin(self, trig):
        phi = 2.0 * np.pi * np.concatenate(
            [np.arange(1 << 22) / (1 << 22), np.random.default_rng(5).random(1 << 20)])
        err = np.abs(trig(phi.astype(np.float32)).astype(np.float64) - trig(phi))
        assert err.max() <= OVERLAP_EPS / 10

    @pytest.mark.parametrize("a", [UnitVector3.from_angle_deg(45.0), X_AXIS, Z_AXIS,
                                   UnitVector3(0.48, 0.6, 0.64)])
    def test_screen_overlaps_within_a_tenth_of_the_margin(self, a):
        n = 1 << 16
        u = event_stream(33, 0).random((4, n))
        approx = screen_overlaps(u, a, a)[0]
        exact = exact_overlaps(u, a, a)[0]
        assert np.abs(approx - exact).max() <= OVERLAP_EPS / 10

    @pytest.mark.parametrize("d_exponent", [3.0, 2.0, 1.0, 0.7, 40.0])
    @pytest.mark.parametrize("a2", [UnitVector3.from_angle_deg(45.0), X_AXIS, Z_AXIS,
                                    UnitVector3(0.48, 0.6, 0.64)])
    def test_kernel_tags_within_bounds(self, d_exponent, a2):
        params = ModelParams(d_exponent=d_exponent)
        a1 = UnitVector3.from_angle_deg(100.0)
        n = 50_000
        u = event_stream(32, 0).random((4, n))
        lo1, hi1, lo2, hi2 = tag_bounds(u, a1, a2, params)
        batch = generate_batch(event_stream(32, 0), a1, a2, params, n)
        # np.power is not correctly rounded; the cut's limit allows for that
        slack = 0.0 if d_exponent in (1.0, 2.0, 3.0) else 2.0 ** -45
        for lo, t, hi in ((lo1, batch.t1, hi1), (lo2, batch.t2, hi2)):
            assert np.all(lo - slack <= t) and np.all(t <= hi + slack)
            assert np.all(lo >= 0.0) and np.median(hi - lo) < 1e-4

    @pytest.mark.parametrize("a", [UnitVector3.from_angle_deg(45.0), X_AXIS, Z_AXIS,
                                   UnitVector3(0.48, 0.6, 0.64)])
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
        s = t a plus a perpendicular part, at both roots in phi."""
        rho, psi = math.hypot(a.x, a.y), math.atan2(a.y, a.x)
        z = targets * a.z
        delta = np.arccos(np.minimum(targets * rho / np.sqrt(1.0 - z * z), 1.0))
        phi = np.concatenate([psi + delta, psi - delta])
        u1 = np.mod(phi / (2.0 * np.pi), 1.0)
        u1[u1 >= 1.0] = 0.0
        return np.array([np.tile((1.0 - z) / 2.0, 2), u1])

    @pytest.mark.parametrize("d_exponent", [3.0, 2.0, 1.0, 0.7, 40.0])
    @pytest.mark.parametrize("a2", [UnitVector3.from_angle_deg(45.0), X_AXIS, Z_AXIS,
                                    UnitVector3(0.48, 0.6, 0.64)])
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
        lo1, hi1, lo2, hi2 = tag_bounds(u, a1, a2, params)
        batch = generate_batch(RowGenerator(u), a1, a2, params, n)
        slack = 0.0 if d_exponent in (1.0, 2.0, 3.0) else 2.0 ** -45
        for lo, t, hi in ((lo1, batch.t1, hi1), (lo2, batch.t2, hi2)):
            assert np.all(lo - slack <= t) and np.all(t <= hi + slack)
            assert np.all(lo >= 0.0)

    def test_huge_exponent_gets_bounds_that_hold_for_every_tag(self):
        """Beyond d ~ 2^20 the float32 errors are not small; the bounds are 0
        and 1."""
        params = ModelParams(d_exponent=2.0 ** 21)
        a1, a2 = UnitVector3.from_angle_deg(100.0), UnitVector3.from_angle_deg(45.0)
        n = 1_000
        u = event_stream(36, 0).random((4, n))
        lo1, hi1, lo2, hi2 = tag_bounds(u, a1, a2, params)
        assert np.all(lo1 == 0.0) and np.all(lo2 == 0.0)
        assert np.all(hi1 == 1.0) and np.all(hi2 == 1.0)

    @pytest.mark.parametrize("d_exponent", [3.0, 0.7])
    @pytest.mark.parametrize("a", [X_AXIS, UnitVector3.from_angle_deg(100.0),
                                   UnitVector3(0.48, 0.6, 0.64)])
    def test_each_station_reads_its_own_setting_only(self, a, d_exponent):
        """A station's screen overlaps and tag bounds are byte-identical
        under any change of the other station's setting, in-plane or not.
        At u0 = 0, where r = 0, every term of the overlap is a signed zero."""
        params = ModelParams(d_exponent=d_exponent)
        n = 4_096
        u = event_stream(37, 0).random((4, n))
        u[0, :512] = 0.0
        others = [UnitVector3.from_angle_deg(45.0), X_AXIS, Z_AXIS,
                  UnitVector3(0.48, 0.6, 0.64)]
        station_1 = {(screen_overlaps(u, a, b)[0].tobytes(),
                      *(x.tobytes() for x in tag_bounds(u, a, b, params)[:2])) for b in others}
        station_2 = {(screen_overlaps(u, b, a)[1].tobytes(),
                      *(x.tobytes() for x in tag_bounds(u, b, a, params)[2:])) for b in others}
        assert len(station_1) == 1 and len(station_2) == 1


class RowGenerator:
    """Stands in for a numpy Generator whose successive draws are the rows
    of ``u``."""

    def __init__(self, u: np.ndarray) -> None:
        self.rows = iter(u)

    def random(self, out):
        out[:] = next(self.rows)
        return out


class TestOutcomeScreen:
    """Without a cut (tau = 1 or W = 1), ``_block_counts`` counts agreements
    from where phi falls against each station's half-turn, and gives a block
    the exact overlaps when a pair lies within 2^-30 turns of a half-turn's
    end, when u0 = 0, or when a setting is off the plane; its counts must
    equal the kernel's for hidden directions placed where a.s is near 0."""

    TARGETS = [sign * v for v in (OVERLAP_EPS / 2, OVERLAP_EPS, 2 * OVERLAP_EPS, 1e-12)
               for sign in (1.0, -1.0)]

    @staticmethod
    def placed_uniforms(a: UnitVector3, targets, z: np.ndarray) -> np.ndarray:
        """Uniforms (2, m) of z and phi whose hidden direction s has a.s at
        each target, for each z and both roots in phi."""
        rho, psi = math.hypot(a.x, a.y), math.atan2(a.y, a.x)
        t, z = np.meshgrid(targets, z)
        r = np.sqrt(1.0 - z * z)
        delta = np.arccos((t - z * a.z) / (r * rho))
        phi = np.concatenate([(psi + delta).ravel(), (psi - delta).ravel()])
        u1 = np.mod(phi / (2.0 * np.pi), 1.0)
        u1[u1 >= 1.0] = 0.0
        return np.array([np.tile((1.0 - z.ravel()) / 2.0, 2), u1])

    @staticmethod
    def zero_uniforms(a: UnitVector3) -> tuple[float, float]:
        """z and phi uniforms at which the kernel's a.s is exactly 0: s along
        the z axis for an in-plane setting, s = (1, 0, 0) for one with
        a.x = 0."""
        return (0.0, 0.25) if a.z == 0.0 else (0.5, 0.0)

    @pytest.mark.parametrize("mode", list(CoincidenceMode))
    @pytest.mark.parametrize("a1, a2", [
        (UnitVector3.from_angle_deg(30.0), UnitVector3.from_angle_deg(75.0)),
        (UnitVector3(0.0, 0.6, 0.8), UnitVector3.from_angle_deg(50.0)),
        (UnitVector3.from_angle_deg(50.0), UnitVector3(0.0, 0.6, 0.8)),
    ])
    def test_edge_overlaps_give_the_kernel_counts(self, mode, a1, a2):
        params = ModelParams(tau=1.0, window=1.0, coincidence_mode=mode)
        z = np.linspace(-0.3, 0.3, 25)
        placed = [self.placed_uniforms(a, self.TARGETS, z) for a in (a1, a2)]
        zeros = np.array([self.zero_uniforms(a) for a in (a1, a2)]).T
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
            assert _block_counts([u[:2, j:j + 1]], a1, a2, params) == (1, 1, sign_xy[j])
        block = u.copy()
        block[2:] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _block_counts([block], a1, a2, params) == want
            # only z and phi are needed
            assert _block_counts([block[:2]], a1, a2, params) == want

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

    SETTINGS = [UnitVector3(0.0, 1.0, 0.0), X_AXIS, -X_AXIS,
                UnitVector3.from_angle_deg(90.0), UnitVector3.from_angle_deg(270.0)]
    OFF_PLANE = [Z_AXIS, UnitVector3(0.48, 0.6, 0.64), UnitVector3(0.0, 0.6, -0.8)]

    @classmethod
    def fuzzed_settings(cls, rng) -> tuple[UnitVector3, UnitVector3]:
        """In-plane pairs: random angles, a2 = a1, a2 = -a1, multiples of 90
        degrees and exact axes; a tenth of the pairs have an off-plane
        setting."""
        def angle():
            return UnitVector3.from_angle_deg(rng.uniform(-360.0, 360.0))

        def axis(settings):
            return settings[rng.integers(len(settings))]

        kind = rng.integers(10)
        a1 = angle() if kind < 5 else axis(cls.SETTINGS)
        if kind == 9:
            a2 = axis(cls.OFF_PLANE)
            return (a1, a2) if rng.random() < 0.5 else (a2, a1)
        if kind in (2, 6):
            return a1, a1
        if kind in (3, 7):
            return a1, -a1
        return a1, angle() if kind < 5 else axis(cls.SETTINGS)

    @staticmethod
    def ends(a: UnitVector3) -> list[float]:
        """The u1 at the two ends of an in-plane setting's half-turn."""
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
            ends = [b for a in (a1, a2) if a.z == 0.0 for b in self.ends(a)]
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
                assert _block_counts([u], a1, a2, params) == want, (a1, a2)
                blocks.append((u, want))
            total = tuple(sum(w[i] for _, w in blocks) for i in range(3))
            assert _block_counts((u for u, _ in blocks), a1, a2, params) == total
            n_blocks += len(blocks)
        # each block is counted twice: alone and in the run of four
        assert n_blocks // 4 < len(exact_calls) // 2 < n_blocks * 3 // 4
