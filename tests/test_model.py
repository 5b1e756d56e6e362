"""Event-generation tests: sphere sampling, outcomes, delays, locality.

Every test runs the one event kernel, ``generate_batch``; the delay law is
also checked directly through ``_delay``, on the clamped base of ``_station``.
"""

import math
import sys

import numpy as np
import pytest

from eprbsim.model import (
    ModelParams,
    UnitVector3,
    _delay,
    _hidden_direction,
    _outcome,
    _overlap,
    _station,
    _station_tag,
    batch_streams,
    event_stream,
    generate_batch,
)

X_AXIS = UnitVector3(1.0, 0.0)
Y_AXIS = UnitVector3(0.0, 1.0)


class ConstantGenerator:
    """Stands in for a numpy Generator whose every draw is ``u``."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self, out):
        out.fill(self.u)
        return out


class RowsGenerator:
    """Stands in for a numpy Generator whose draws are the rows of ``u``,
    one row per draw."""

    def __init__(self, u: np.ndarray) -> None:
        self.rows = iter(u)

    def random(self, out):
        out[:] = next(self.rows)
        return out


def hidden_directions(seed: int, n: int) -> np.ndarray:
    """The hidden directions of ``generate_batch(event_stream(seed, 0), ...,
    n)``, an (n, 3) array of the kernel's (sx, sy, sz)."""
    u = event_stream(seed, 0).random((4, n))
    return np.column_stack(_hidden_direction(u))


def delay(dot_sq, d_exponent: float = 3.0) -> np.ndarray:
    """T = (1 - dot_sq)^(d/2), as ``_station`` computes it from d^2."""
    dot_sq = np.atleast_1d(np.asarray(dot_sq, dtype=float))
    return _delay(np.maximum(1.0 - dot_sq, 0.0), d_exponent)


def delay_scales(s: np.ndarray, a: UnitVector3, d_exponent: float = 3.0) -> np.ndarray:
    """T = (1 - (a.s)^2)^(d/2) for each row of s."""
    return delay((s @ np.array([a.x, a.y, 0.0])) ** 2, d_exponent)


class TestUnitVector3:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            UnitVector3(1.0, 1.0)

    def test_norm_tolerance_is_tight(self):
        with pytest.raises(ValueError):
            UnitVector3(1.0 + 1e-5, 0.0)

    @pytest.mark.parametrize("make", [
        lambda: UnitVector3(math.nan, 0.0),
        lambda: UnitVector3(1.0, math.nan),
        lambda: UnitVector3.from_angle_deg(math.nan),
    ], ids=["nan-x", "nan-y", "angle-nan"])
    def test_rejects_nan(self, make):
        """A NaN component is refused: it would pass a norm check that only
        asks whether the norm is too far from 1."""
        with pytest.raises(ValueError, match="not a unit vector"):
            make()

    def test_from_angle_deg(self):
        v = UnitVector3.from_angle_deg(90.0)
        assert v.y == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("components", [(0.48, 0.6, 0.64), (0.0, 0.0, 1.0), (0.0, 1.0, 1e-300)])
    def test_rejects_off_plane(self, components):
        """A setting lies in the x-y plane and has two components: a third
        is refused, not projected onto the plane."""
        with pytest.raises(TypeError):
            UnitVector3(*components)

    def test_negation_stays_in_plane(self):
        """The antipode of a setting is a setting."""
        v = -UnitVector3.from_angle_deg(30.0)
        assert isinstance(v, UnitVector3)
        assert (v.x, v.y) == (-math.cos(math.radians(30.0)), -math.sin(math.radians(30.0)))


class TestSampleDirection:
    def test_mean_z_vanishes(self):
        s = hidden_directions(101, 1_000_000)
        assert abs(s[:, 2].mean()) < 0.003

    def test_second_moment_is_one_third(self):
        s = hidden_directions(102, 1_000_000)
        assert abs((s[:, 2] ** 2).mean() - 1.0 / 3.0) < 0.002

    def test_azimuth_uniform_ks(self):
        """Kolmogorov-Smirnov distance of atan2(y, x) against the uniform
        law on [-pi, pi) stays below 0.002 at a million samples."""
        s = hidden_directions(103, 1_000_000)
        phi = np.sort(np.arctan2(s[:, 1], s[:, 0]))
        n = phi.size
        cdf = (phi + np.pi) / (2.0 * np.pi)
        d_plus = (np.arange(1, n + 1) / n - cdf).max()
        d_minus = (cdf - np.arange(0, n) / n).max()
        assert max(d_plus, d_minus) < 0.002

    def test_unit_norm(self):
        s = hidden_directions(104, 10_000)
        np.testing.assert_allclose((s**2).sum(axis=1), 1.0, atol=1e-12)


class TestOutcome:
    # With a = +-S the overlap a.S is 1 only up to rounding, and can round
    # above 1; the station step then clamps 1 - (a.S)^2 to 0, so both tags
    # are 0 or within a few ulps of it, never NaN.
    ALIGNED_TAG_MAX = 1e-22

    @staticmethod
    def equator_uniforms() -> np.ndarray:
        """Uniforms (4, 100) whose hidden directions lie on the equator
        (u0 = 1/2, so z = 0 and r = 1), where a setting can equal S."""
        u = event_stream(105, 0).random((4, 100))
        u[0] = 0.5
        return u

    @pytest.mark.parametrize("sign", [1, -1])
    def test_aligned_and_antipodal(self, sign):
        """a = S gives (+1, -1), a = -S gives (-1, +1)."""
        u = self.equator_uniforms()
        sx, sy, _ = _hidden_direction(u)
        for i in range(100):
            a = UnitVector3(sign * sx[i], sign * sy[i])
            batch = generate_batch(RowsGenerator(u), a, a, ModelParams(), 100)
            assert (batch.x1[i], batch.x2[i]) == (sign, -sign)
            assert 0.0 <= batch.t1[i] <= self.ALIGNED_TAG_MAX
            assert 0.0 <= batch.t2[i] <= self.ALIGNED_TAG_MAX

    def test_tie_breaks_positive(self):
        """u = 0 puts S on the z axis (r = 0), so every setting gives a.S =
        0 exactly at both stations, and both outcomes are +1."""
        batch = generate_batch(ConstantGenerator(0.0), X_AXIS, Y_AXIS, ModelParams(), 1)
        for a in (X_AXIS, Y_AXIS):
            assert _overlap(_hidden_direction(np.zeros((2, 1))), a)[0] == 0.0
        assert (batch.x1[0], batch.x2[0]) == (1, 1)

    @pytest.mark.parametrize("alpha_deg", [60.0, 90.0, 120.0])
    def test_unconditional_triangle_law(self, alpha_deg):
        """Without post-selection the product of signs averages to
        -(1 - 2*alpha/pi), linear in the angle."""
        batch = generate_batch(event_stream(106, 0), UnitVector3.from_angle_deg(0.0),
                               UnitVector3.from_angle_deg(alpha_deg), ModelParams(), 1_000_000)
        expected = -(1.0 - 2.0 * math.radians(alpha_deg) / math.pi)
        assert abs((batch.x1.astype(np.int64) * batch.x2).mean() - expected) < 0.003


class TestStation:
    """Station 2's rule on its own: measuring -s is the station step with
    sign -1, and a tie gives +1 whatever the sign."""

    @staticmethod
    def zero_overlaps() -> tuple[np.ndarray, UnitVector3]:
        """Uniforms (4, 2) and a setting at which a.s is +0 and -0 exactly:
        u0 = 0 (r = 0) with phi in the first quadrant, where both terms are
        +0, and in the third, where both are -0."""
        a = UnitVector3(0.6, 0.8)
        u = np.array([[0.0, 0.0], [0.1, 0.6], [0.3, 0.7], [0.1, 0.2]])
        d = _overlap(_hidden_direction(u), a)
        assert np.all(d == 0.0) and list(np.signbit(d)) == [False, True]
        return u, a

    @pytest.mark.parametrize("d_exponent", [3.0, 2.0, 1.0, 0.7])
    def test_minus_sign_is_the_antipode(self, d_exponent):
        """_station(s, -1, a) equals _station(-s, +1, a) byte for byte, for
        random s and settings and for a.s = +0 and -0."""
        rng = np.random.default_rng(18)
        u = rng.random((4, 4_096))
        settings = [X_AXIS, Y_AXIS, UnitVector3(0.28, -0.96),
                    *(UnitVector3.from_angle_deg(x) for x in rng.uniform(-360.0, 360.0, 4))]
        zeros, a_zero = self.zero_overlaps()
        cases = [(u, a) for a in settings] + [(zeros, a_zero)]
        for w, a in cases:
            s = _hidden_direction(w)
            minus_s = tuple(-c for c in s)
            got = _station(s, -1, a, w[3], d_exponent)
            want = _station(minus_s, 1, a, w[3], d_exponent)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want], a

    @pytest.mark.parametrize("sign", [1, -1])
    def test_ties_give_plus_one_at_either_sign(self, sign):
        assert list(_outcome(np.array([0.0, -0.0]), sign)) == [1, 1]
        assert list(_outcome(np.array([1e-300, -1e-300]), sign)) == [sign, -sign]
        u, a = self.zero_overlaps()
        assert list(_station(_hidden_direction(u), sign, a, u[2], 3.0)[0]) == [1, 1]


class TestDelayScale:
    def test_perpendicular_gives_full_scale(self):
        assert delay(0.0)[0] == 1.0

    def test_parallel_gives_zero(self):
        assert delay(1.0)[0] == 0.0

    @pytest.mark.parametrize("d_exponent", [1.0, 2.0, 3.0, 2.5])
    def test_overlap_rounded_above_one_gives_zero(self, d_exponent):
        assert delay(1.0 + 2.0**-52, d_exponent)[0] == 0.0

    @pytest.mark.parametrize("d_exponent", [0.7, 1.0, 2.0, 3.0, 2.0 ** 21])
    def test_station_tag_forms_the_tags_in_its_overlaps(self, d_exponent):
        """``_station_tag`` returns its own overlap array, in its own dtype
        (float32 stays float32); in float64 its tags equal t_row *
        _delay(max(1 - d^2, 0), d) bit for bit, also where |d| rounds above
        1 and at d = +-0."""
        rng = np.random.default_rng(19)
        edges = [0.0, -0.0, 1.0, -1.0, 1.0 + 2.0 ** -52, -1.0 - 2.0 ** -52, 1.0 + 1e-12,
                 math.nextafter(1.0, 0.0), 1e-300, 0.5]
        d = np.concatenate([edges, rng.uniform(-1.0, 1.0, 4_096)])
        t_row = rng.random(len(d))
        want = t_row * _delay(np.maximum(1.0 - d * d, 0.0), d_exponent)
        for dtype in (np.float64, np.float32):
            x = d.astype(dtype)
            got = _station_tag(x, t_row, d_exponent)
            assert got is x and got.dtype == dtype
        assert _station_tag(d, t_row, d_exponent).tobytes() == want.tobytes()

    def test_half_overlap_value(self):
        assert delay(0.25)[0] == pytest.approx(0.649519052838329, abs=1e-12)

    def test_sign_symmetries(self):
        """a -> -a leaves every tag bit-identical and negates every outcome,
        at both stations, on one random stream."""
        params = ModelParams()
        a1 = UnitVector3(0.28, -0.96)
        a2 = UnitVector3.from_angle_deg(37.0)
        b = generate_batch(event_stream(107, 0), a1, a2, params, 10_000)
        flipped = generate_batch(event_stream(107, 0), -a1, -a2, params, 10_000)
        assert flipped.t1.tobytes() == b.t1.tobytes()
        assert flipped.t2.tobytes() == b.t2.tobytes()
        assert np.array_equal(flipped.x1, -b.x1)
        assert np.array_equal(flipped.x2, -b.x2)

    def test_range(self):
        dot_sq = np.linspace(0.0, 1.0, 10_001)
        T = delay(dot_sq, 2.5)
        assert T.min() >= 0.0 and T.max() <= 1.0
        batch = generate_batch(event_stream(108, 0), X_AXIS, UnitVector3.from_angle_deg(70.0),
                               ModelParams(d_exponent=2.5), 100_000)
        for t in (batch.t1, batch.t2):
            assert t.min() >= 0.0 and t.max() < 1.0


class TestSampleTimeTag:
    def test_degenerate_interval(self):
        """u = 1/2 puts S at azimuth pi on the equator, antiparallel to a =
        x, which gives T = 0 and a zero tag."""
        batch = generate_batch(ConstantGenerator(0.5), X_AXIS, X_AXIS, ModelParams(), 1)
        assert (batch.t1[0], batch.t2[0]) == (0.0, 0.0)

    def test_uniform_mean(self):
        """Tags are uniform on [0, T): t / T averages to 1/2."""
        batch = generate_batch(event_stream(110, 0), X_AXIS, X_AXIS, ModelParams(), 100_000)
        u = batch.t1 / delay_scales(hidden_directions(110, 100_000), X_AXIS)
        assert abs(u.mean() - 0.5) < 0.005

    def test_support(self):
        a2 = UnitVector3.from_angle_deg(40.0)
        batch = generate_batch(event_stream(111, 0), X_AXIS, a2, ModelParams(), 100_000)
        s = hidden_directions(111, 100_000)
        for t, T in ((batch.t1, delay_scales(s, X_AXIS)), (batch.t2, delay_scales(-s, a2))):
            assert t.min() >= 0.0
            assert np.all(t <= T)


class TestGeneratePair:
    def test_rejects_an_empty_batch(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            generate_batch(event_stream(112, 0), X_AXIS, X_AXIS, ModelParams(), 0)

    def test_equal_settings_anticorrelate(self):
        a = UnitVector3.from_angle_deg(33.0)
        batch = generate_batch(event_stream(113, 0), a, a, ModelParams(), 100_000)
        assert np.all(batch.x1 * batch.x2 == -1)

    def test_antipodal_settings_correlate(self):
        a = UnitVector3.from_angle_deg(33.0)
        batch = generate_batch(event_stream(114, 0), a, -a, ModelParams(), 100_000)
        assert np.all(batch.x1 * batch.x2 == 1)

    def test_perpendicular_settings_uncorrelated(self):
        params = ModelParams()
        rng = event_stream(115, 0)
        batch = generate_batch(
            rng, X_AXIS, UnitVector3.from_angle_deg(90.0), params, 1_000_000
        )
        mean = (batch.x1.astype(np.int64) * batch.x2).mean()
        assert abs(mean) < 0.003

    def test_tags_bounded_by_delay_scale(self):
        a1 = X_AXIS
        a2 = UnitVector3.from_angle_deg(45.0)
        batch = generate_batch(event_stream(116, 0), a1, a2, ModelParams(), 10_000)
        s = hidden_directions(116, 10_000)
        T1, T2 = delay_scales(s, a1), delay_scales(-s, a2)
        assert np.all((0.0 <= batch.t1) & (batch.t1 <= T1) & (T1 <= 1.0))
        assert np.all((0.0 <= batch.t2) & (batch.t2 <= T2) & (T2 <= 1.0))

    def test_locality_station_1(self):
        """Station 1 output is bit-identical under any change of the remote
        setting, event by event."""
        params = ModelParams()
        a1 = UnitVector3.from_angle_deg(10.0)
        b1 = generate_batch(event_stream(117, 0), a1, UnitVector3.from_angle_deg(50.0),
                            params, 50_000)
        b2 = generate_batch(event_stream(117, 0), a1, UnitVector3.from_angle_deg(170.0),
                            params, 50_000)
        assert np.array_equal(b1.x1, b2.x1)
        assert b1.t1.tobytes() == b2.t1.tobytes()

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

    def test_outcomes_are_signs_of_the_hidden_direction(self):
        batch = generate_batch(event_stream(120, 0), X_AXIS, X_AXIS, ModelParams(), 10)
        s = hidden_directions(120, 10)
        assert np.array_equal(batch.x1, np.where(s[:, 0] >= 0.0, 1, -1))
        assert np.all(batch.x1 * batch.x2 == -1)


def reference_batch(rng, a1, a2, n):
    """The kernel in its allocating form, operation for operation (d = 3)."""
    z = 1.0 - 2.0 * rng.random(n)
    phi = 2.0 * np.pi * rng.random(n)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    sx = r * np.cos(phi)
    sy = r * np.sin(phi)
    # the setting's z is 0
    d1 = sx * a1.x + sy * a1.y + z * 0.0
    d2 = sx * a2.x + sy * a2.y + z * 0.0
    base1 = 1.0 - d1 * d1
    base2 = 1.0 - d2 * d2
    t1 = rng.random(n) * (1.0 * (base1 * np.sqrt(base1)))
    t2 = rng.random(n) * (1.0 * (base2 * np.sqrt(base2)))
    x1 = np.where(d1 >= 0.0, 1, -1).astype(np.int8)
    x2 = np.where(d2 <= 0.0, 1, -1).astype(np.int8)
    return x1, x2, t1, t2


class TestReferenceKernel:
    def test_batches_equal_reference_bit_for_bit(self):
        """Batches of consecutive chunks, the last one shorter, equal the
        reference kernel bit for bit."""
        params = ModelParams()
        a1 = UnitVector3.from_angle_deg(20.0)
        a2 = UnitVector3(0.28, -0.96)
        for start, n in ((0, 4_096), (4_096, 4_096), (8_192, 1_000)):
            batch = generate_batch(event_stream(121, start), a1, a2, params, n)
            expected = reference_batch(event_stream(121, start), a1, a2, n)
            for name, want in zip(("x1", "x2", "t1", "t2"), expected):
                got = getattr(batch, name)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


class TestModelParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": 0.0},
            {"tau": 1.5},
            {"window": -0.1},
            {"window": 1.5},
            {"d_exponent": 0.0},
            {"tau": math.nan},
            {"d_exponent": math.inf},
            {"window": 0.0},
            {"tau": 1e-320},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_smallest_normal_tau_accepted(self):
        assert ModelParams(tau=sys.float_info.min).tau == sys.float_info.min


class TestBlockStreams:
    @pytest.mark.parametrize("n", [1 << 19, 38_529, 12_345, 3])
    def test_blocks_draw_the_batch_doubles(self, n):
        """Each stream, drawn in blocks of any size, gives exactly the
        doubles of its draw in one whole-batch generator."""
        whole = event_stream(31, 1_000, stream=2).random(4 * n)
        for k, rng in enumerate(batch_streams(31, 1_000, n, stream=2)):
            blocks = [rng.random(size) for size in (min(n, 1_000), max(n - 1_000, 0))]
            assert np.concatenate(blocks).tobytes() == whole[k * n:(k + 1) * n].tobytes()

    def test_first_two_draws_only(self):
        """Asking for z and phi alone gives their doubles and makes no
        generator for the tags."""
        n = 38_529
        whole = event_stream(31, 1_000, stream=2).random(2 * n)
        streams = batch_streams(31, 1_000, n, stream=2, rows=2)
        assert len(streams) == 2
        for k, rng in enumerate(streams):
            assert rng.random(n).tobytes() == whole[k * n:(k + 1) * n].tobytes()
