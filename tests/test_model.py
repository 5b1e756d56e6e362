"""Event-generation tests: sphere sampling, outcomes, delays, locality."""

import math

import numpy as np
import pytest

from eprbsim import (
    ModelParams,
    UnitVector3,
    delay_scale,
    event_stream,
    generate_batch,
    generate_pair,
    outcome,
    sample_direction,
    sample_directions,
    sample_time_tag,
)
from eprbsim.model import Workspace

X_AXIS = UnitVector3(1.0, 0.0, 0.0)


class TestUnitVector3:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            UnitVector3(1.0, 1.0, 0.0)

    def test_norm_tolerance_is_tight(self):
        with pytest.raises(ValueError):
            UnitVector3(1.0 + 1e-5, 0.0, 0.0)

    def test_from_angle_deg(self):
        v = UnitVector3.from_angle_deg(90.0)
        assert v.y == pytest.approx(1.0, abs=1e-15)
        assert v.z == 0.0

    def test_negation_and_dot(self):
        v = UnitVector3.from_angle_deg(30.0)
        assert (-v).dot(v) == pytest.approx(-1.0, abs=1e-15)


class TestSampleDirection:
    def test_mean_z_vanishes(self):
        rng = event_stream(101, 0)
        s = sample_directions(rng, 1_000_000)
        assert abs(s[:, 2].mean()) < 0.003

    def test_second_moment_is_one_third(self):
        rng = event_stream(102, 0)
        s = sample_directions(rng, 1_000_000)
        assert abs((s[:, 2] ** 2).mean() - 1.0 / 3.0) < 0.002

    def test_azimuth_uniform_ks(self):
        """Kolmogorov-Smirnov distance of atan2(y, x) against the uniform
        law on [-pi, pi) stays below 0.002 at a million samples."""
        rng = event_stream(103, 0)
        s = sample_directions(rng, 1_000_000)
        phi = np.sort(np.arctan2(s[:, 1], s[:, 0]))
        n = phi.size
        cdf = (phi + np.pi) / (2.0 * np.pi)
        d_plus = (np.arange(1, n + 1) / n - cdf).max()
        d_minus = (cdf - np.arange(0, n) / n).max()
        assert max(d_plus, d_minus) < 0.002

    def test_unit_norm(self):
        rng = event_stream(104, 0)
        s = sample_directions(rng, 10_000)
        np.testing.assert_allclose((s**2).sum(axis=1), 1.0, atol=1e-12)

    def test_scalar_sampler_is_unit(self):
        rng = event_stream(105, 0)
        for _ in range(100):
            v = sample_direction(rng)
            assert abs(v.dot(v) - 1.0) < 1e-12


class TestOutcome:
    def test_aligned(self):
        v = UnitVector3.from_angle_deg(17.0)
        assert outcome(v, v) == 1

    def test_antipodal(self):
        v = UnitVector3.from_angle_deg(17.0)
        assert outcome(v, -v) == -1

    def test_tie_breaks_positive(self):
        assert outcome(X_AXIS, UnitVector3(0.0, 1.0, 0.0)) == 1

    @pytest.mark.parametrize("alpha_deg", [60.0, 90.0, 120.0])
    def test_unconditional_triangle_law(self, alpha_deg):
        """Without post-selection the product of signs averages to
        -(1 - 2*alpha/pi), linear in the angle."""
        rng = event_stream(106, 0)
        n = 1_000_000
        s = sample_directions(rng, n)
        a = UnitVector3.from_angle_deg(0.0).as_array()
        b = UnitVector3.from_angle_deg(alpha_deg).as_array()
        x1 = np.where(s @ a >= 0.0, 1, -1)
        x2 = np.where(s @ b <= 0.0, 1, -1)
        expected = -(1.0 - 2.0 * math.radians(alpha_deg) / math.pi)
        assert abs((x1 * x2).mean() - expected) < 0.003


class TestDelayScale:
    def test_perpendicular_gives_full_scale(self):
        assert delay_scale(X_AXIS, UnitVector3(0.0, 0.0, 1.0), ModelParams()) == 1.0

    def test_parallel_gives_zero(self):
        assert delay_scale(X_AXIS, X_AXIS, ModelParams()) == 0.0

    def test_half_overlap_value(self):
        s = UnitVector3(0.5, math.sqrt(0.75), 0.0)
        T = delay_scale(X_AXIS, s, ModelParams())
        assert T == pytest.approx(0.649519052838329, abs=1e-12)

    def test_sign_symmetries(self):
        rng = event_stream(107, 0)
        params = ModelParams()
        for _ in range(200):
            a = sample_direction(rng)
            s = sample_direction(rng)
            T = delay_scale(a, s, params)
            assert delay_scale(a, -s, params) == T
            assert delay_scale(-a, s, params) == T

    def test_range(self):
        rng = event_stream(108, 0)
        params = ModelParams(d_exponent=2.5)
        for _ in range(200):
            T = delay_scale(sample_direction(rng), sample_direction(rng), params)
            assert 0.0 <= T <= 1.0


class TestSampleTimeTag:
    def test_degenerate_interval(self):
        rng = event_stream(109, 0)
        assert sample_time_tag(rng, 0.0, ModelParams()) == 0.0

    def test_uniform_mean(self):
        rng = event_stream(110, 0)
        params = ModelParams()
        tags = np.array([sample_time_tag(rng, 1.0, params) for _ in range(100_000)])
        assert abs(tags.mean() - 0.5) < 0.005

    def test_support(self):
        rng = event_stream(111, 0)
        params = ModelParams()
        tags = np.array([sample_time_tag(rng, 0.4, params) for _ in range(100_000)])
        assert tags.min() >= 0.0
        assert tags.max() < 0.4

    def test_rejects_bad_scale(self):
        rng = event_stream(112, 0)
        with pytest.raises(ValueError):
            sample_time_tag(rng, 1.5, ModelParams())


class TestGeneratePair:
    def test_equal_settings_anticorrelate(self):
        params = ModelParams()
        a = UnitVector3.from_angle_deg(33.0)
        rng = event_stream(113, 0)
        for _ in range(500):
            pair = generate_pair(rng, a, a, params)
            assert pair.x1 * pair.x2 == -1

    def test_antipodal_settings_correlate(self):
        params = ModelParams()
        a = UnitVector3.from_angle_deg(33.0)
        rng = event_stream(114, 0)
        for _ in range(500):
            pair = generate_pair(rng, a, -a, params)
            assert pair.x1 * pair.x2 == 1

    def test_perpendicular_settings_uncorrelated(self):
        params = ModelParams()
        rng = event_stream(115, 0)
        batch = generate_batch(
            rng, X_AXIS, UnitVector3.from_angle_deg(90.0), params, 1_000_000
        )
        mean = (batch.x1.astype(np.int64) * batch.x2).mean()
        assert abs(mean) < 0.003

    def test_tags_bounded_by_delay_scale(self):
        params = ModelParams()
        rng = event_stream(116, 0)
        a1 = X_AXIS
        a2 = UnitVector3.from_angle_deg(45.0)
        for _ in range(500):
            pair = generate_pair(rng, a1, a2, params)
            assert 0.0 <= pair.t1 <= delay_scale(a1, pair.s, params) <= 1.0
            assert 0.0 <= pair.t2 <= delay_scale(a2, -pair.s, params) <= 1.0

    def test_locality_station_1(self):
        """Station 1 output is bit-identical under any change of the remote
        setting, event by event."""
        params = ModelParams()
        a1 = UnitVector3.from_angle_deg(10.0)
        a2 = UnitVector3.from_angle_deg(50.0)
        a2_alt = UnitVector3.from_angle_deg(170.0)
        for i in range(10_000):
            p = generate_pair(event_stream(117, i), a1, a2, params)
            q = generate_pair(event_stream(117, i), a1, a2_alt, params)
            assert (p.x1, p.t1) == (q.x1, q.t1)

    def test_locality_station_2_batch(self):
        params = ModelParams()
        a2 = UnitVector3.from_angle_deg(75.0)
        b1 = generate_batch(event_stream(118, 0), X_AXIS, a2, params, 50_000)
        b2 = generate_batch(
            event_stream(118, 0), UnitVector3.from_angle_deg(120.0), a2, params, 50_000
        )
        assert np.array_equal(b1.x2, b2.x2)
        assert np.array_equal(b1.t2, b2.t2)

    def test_batch_deterministic(self):
        params = ModelParams()
        a2 = UnitVector3.from_angle_deg(45.0)
        b1 = generate_batch(event_stream(119, 0), X_AXIS, a2, params, 10_000)
        b2 = generate_batch(event_stream(119, 0), X_AXIS, a2, params, 10_000)
        assert np.array_equal(b1.t1, b2.t1)
        assert np.array_equal(b1.t2, b2.t2)

    def test_batch_pair_view_requires_hidden(self):
        params = ModelParams()
        batch = generate_batch(event_stream(120, 0), X_AXIS, X_AXIS, params, 10)
        with pytest.raises(ValueError):
            batch.pair(0)
        kept = generate_batch(event_stream(120, 0), X_AXIS, X_AXIS, params, 10, keep_hidden=True)
        pair = kept.pair(3)
        assert pair.x1 * pair.x2 == -1


def reference_batch(rng, a1, a2, n):
    """The kernel in its allocating form, operation for operation (d = 3)."""
    z = 1.0 - 2.0 * rng.random(n)
    phi = 2.0 * np.pi * rng.random(n)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    sx = r * np.cos(phi)
    sy = r * np.sin(phi)
    d1 = sx * a1.x + sy * a1.y + z * a1.z
    d2 = sx * a2.x + sy * a2.y + z * a2.z
    base1 = 1.0 - d1 * d1
    base2 = 1.0 - d2 * d2
    t1 = rng.random(n) * (1.0 * (base1 * np.sqrt(base1)))
    t2 = rng.random(n) * (1.0 * (base2 * np.sqrt(base2)))
    x1 = np.where(d1 >= 0.0, 1, -1).astype(np.int8)
    x2 = np.where(d2 <= 0.0, 1, -1).astype(np.int8)
    return x1, x2, t1, t2


class TestWorkspace:
    def test_reused_workspace_is_bit_identical(self):
        """Chunks generated into one reused workspace, the last one shorter,
        equal fresh batches and the allocating reference bit for bit."""
        params = ModelParams()
        a1 = UnitVector3.from_angle_deg(20.0)
        a2 = UnitVector3(0.48, 0.6, 0.64)
        workspace = Workspace(4_096)
        for start, n in ((0, 4_096), (4_096, 4_096), (8_192, 1_000)):
            reused = generate_batch(event_stream(121, start), a1, a2, params, n,
                                    workspace=workspace)
            fresh = generate_batch(event_stream(121, start), a1, a2, params, n)
            expected = reference_batch(event_stream(121, start), a1, a2, n)
            for name, want in zip(("x1", "x2", "t1", "t2"), expected):
                for got in (getattr(reused, name), getattr(fresh, name)):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()

    def test_rejects_chunk_larger_than_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            generate_batch(event_stream(122, 0), X_AXIS, X_AXIS, ModelParams(), 11,
                           workspace=Workspace(10))


class TestModelParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": 0.0},
            {"tau": 1.5},
            {"window": -0.1},
            {"window": 1.5},
            {"d_exponent": 0.0},
            {"t_max": 0.5},
            {"d_exponent": math.inf},
            {"window": 0.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)
