"""Event generation for a local hidden-direction model of the EPRB experiment.

Each simulated pair carries a hidden direction drawn uniformly on the unit
sphere.  Station 1 receives the direction itself, station 2 its antipode, so
equal analyzer settings always give strictly opposite outcomes.  Every
station-local quantity (outcome and detection-time tag) is a function of the
local setting and the local copy of the hidden variable only; locality is
structural, not statistical.

Time tags are drawn uniformly on ``[0, T)`` where the maximal delay
``T = (1 - (a.s)^2)^(d/2)`` shrinks as the hidden direction aligns with the
setting.  All times are expressed in units of the largest possible delay, so
the resolution ``tau`` and window ``W`` are dimensionless fractions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "CoincidenceMode",
    "UnitVector3",
    "ModelParams",
    "EventBatch",
    "event_stream",
    "generate_batch",
    "batch_streams",
    "screen_overlaps",
    "tag_bounds",
]

_NORM_TOL = 1e-12


class CoincidenceMode(Enum):
    """How two time tags are compared when deciding on a coincidence."""

    SAME_BIN = "same-bin"
    CONTINUOUS = "continuous"


@dataclass(frozen=True)
class UnitVector3:
    """A direction in space; used for settings and for the hidden variable."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        norm_sq = self.x * self.x + self.y * self.y + self.z * self.z
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"not a unit vector: |v|^2 = {norm_sq!r}")

    @classmethod
    def from_angle_deg(cls, angle_deg: float) -> "UnitVector3":
        """Setting in the x-y plane at the given azimuth (degrees)."""
        a = math.radians(angle_deg)
        return cls(math.cos(a), math.sin(a), 0.0)

    def dot(self, other: "UnitVector3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def __neg__(self) -> "UnitVector3":
        return UnitVector3(-self.x, -self.y, -self.z)


@dataclass(frozen=True)
class ModelParams:
    """Model and post-selection parameters, in units of the maximal delay.

    ``tau`` is the time-tag resolution, ``window`` the coincidence window W.
    ``d_exponent`` shapes the delay law ``T = (1 - (a.s)^2)^(d/2)``; the
    default 3 makes the same-bin coincidence density proportional to
    ``1/max(T1, T2)`` with the sin^2 azimuthal profile used by the analytic
    bounds.
    """

    tau: float = 0.00025
    window: float = 0.00025
    d_exponent: float = 3.0
    coincidence_mode: CoincidenceMode = CoincidenceMode.SAME_BIN

    def __post_init__(self) -> None:
        # below the smallest normal float, t / tau overflows for every tag
        if not sys.float_info.min <= self.tau <= 1.0:
            raise ValueError(
                f"tau must be in [{sys.float_info.min!r}, 1], got {self.tau}"
            )
        if not 0.0 < self.window <= 1.0:
            raise ValueError(f"window must be in (0, 1], got {self.window}")
        if not (math.isfinite(self.d_exponent) and self.d_exponent > 0.0):
            raise ValueError(f"d_exponent must be finite and > 0, got {self.d_exponent}")


@dataclass(frozen=True)
class EventBatch:
    """Column-oriented block of events (outcomes int8, tags float64)."""

    x1: np.ndarray
    x2: np.ndarray
    t1: np.ndarray
    t2: np.ndarray

    def __len__(self) -> int:
        return int(self.x1.shape[0])


def event_stream(seed: int, start_index: int, stream: int = 0) -> np.random.Generator:
    """Counter-based random stream keyed by (seed, stream, start index).

    Philox is counter-based, so disjoint index ranges can be generated in any
    order, on any number of workers, with results that depend only on the key.
    """
    seq = np.random.SeedSequence([int(seed), int(stream), int(start_index)])
    return np.random.Generator(np.random.Philox(seq))


def _delay_from_dot_sq(dot_sq: np.ndarray, d_exponent: float) -> np.ndarray:
    """Delay law T = (1 - dot_sq)^(d/2).

    Vanishes when the hidden direction is (anti)parallel to the setting and
    reaches 1 when perpendicular; only the squared overlap enters, so it is
    invariant under s -> -s and a -> -a.  An overlap that rounds above 1
    gives T = 0, as an exact one does.
    """
    base = np.maximum(1.0 - dot_sq, 0.0)
    if d_exponent == 3.0:
        return base * np.sqrt(base)
    if d_exponent == 2.0:
        return base
    if d_exponent == 1.0:
        return np.sqrt(base)
    return np.power(base, 0.5 * d_exponent)


# Margin on the overlap a.S in tag_bounds.  The screen's float32 overlap is
# within sqrt(2) delta + 2^-20 < OVERLAP_EPS / 4 of the kernel's float64 one,
# where delta, the error of float32 cos and sin of float32(phi), is tested
# below OVERLAP_EPS / 10; measured, the overlap error is at most 3.1e-7.
OVERLAP_EPS = 1e-5


def batch_streams(
    seed: int, start_index: int, n: int, stream: int = 0, rows: int = 4
) -> list[np.random.Generator]:
    """The first ``rows`` of the four draws of ``generate_batch(event_stream(
    seed, start_index, stream), ..., n)``, each from its own generator.

    ``generate_batch`` draws n doubles for z, then n for phi, then n per
    station, from one Philox stream.  Philox yields four doubles per counter
    step, so draw k starts ``k*n // 4`` steps in, after ``k*n % 4`` more
    doubles.  Each returned generator is moved there, so drawing its doubles
    in blocks of any size gives exactly the doubles of the whole batch; the
    draws after the first ``rows`` are neither made nor skipped.
    """
    streams = []
    for k in range(rows):
        rng = event_stream(seed, start_index, stream)
        rng.bit_generator.advance(k * n // 4)
        rng.random(k * n % 4)
        streams.append(rng)
    return streams


def _overlap(sx: np.ndarray, sy: np.ndarray, sz: np.ndarray, a: UnitVector3) -> np.ndarray:
    """d = (sx a.x + sy a.y) + sz a.z.  The last term is skipped when a.z ==
    0: it only adds +-0, which can turn a -0 into +0 but changes neither the
    outcome nor d^2."""
    d = sx * a.x + sy * a.y
    return d + sz * a.z if a.z != 0.0 else d


def _exact_overlaps(u: np.ndarray, a1: UnitVector3,
                    a2: UnitVector3) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's float64 overlaps (d1, d2) = (a1.s, a2.s) of the hidden
    directions drawn from rows 0 and 1 of ``u`` (z and phi); other rows are
    not read."""
    # z = 1 - 2u and phi = 2 pi u'
    sz = 1.0 - 2.0 * u[0]
    phi = 2.0 * np.pi * u[1]
    r = np.sqrt(np.maximum(0.0, 1.0 - sz * sz))
    sx = r * np.cos(phi)
    sy = r * np.sin(phi)
    return _overlap(sx, sy, sz, a1), _overlap(sx, sy, sz, a2)


def _events_from_uniforms(u: np.ndarray, a1: UnitVector3, a2: UnitVector3,
                          params: ModelParams) -> EventBatch:
    """The exact float64 kernel: the events of the uniforms ``u`` (4, n).

    Every operation is elementwise, so an event's outcomes and tags depend
    on its own four uniforms only, not on its position or on the other
    events of ``u``.
    """
    d1, d2 = _exact_overlaps(u, a1, a2)
    # station 2 measures -s: sign(a2 . -s) with the same tie-break to +1
    x1 = np.where(d1 >= 0.0, np.int8(1), np.int8(-1))
    x2 = np.where(d2 <= 0.0, np.int8(1), np.int8(-1))
    t1 = u[2] * _delay_from_dot_sq(d1 * d1, params.d_exponent)
    t2 = u[3] * _delay_from_dot_sq(d2 * d2, params.d_exponent)
    return EventBatch(x1=x1, x2=x2, t1=t1, t2=t2)


def generate_batch(
    rng: np.random.Generator,
    a1: UnitVector3,
    a2: UnitVector3,
    params: ModelParams,
    n: int,
) -> EventBatch:
    """Vectorized pair generation; the workhorse for large event counts.

    Station 1 sees the hidden direction s, station 2 sees -s; each outcome is
    the sign of the local overlap (ties go to +1).  Draw order is batch-wise
    (directions, then all station-1 tags, then all station-2 tags), so every
    station-1 quantity is bit-identical under any change of a2, and vice versa.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u = np.empty((4, n))
    for row in u:
        rng.random(out=row)
    return _events_from_uniforms(u, a1, a2, params)


def _screen_overlap(half_r_cos: np.ndarray, half_r_sin: np.ndarray,
                    half_z: np.ndarray | None, a: UnitVector3) -> np.ndarray:
    """One station's float32 overlap 2 (r/2 cos(phi) a.x + r/2 sin(phi) a.y +
    z/2 a.z), in a fresh array.  As in ``_overlap``, the z term is skipped
    when a.z == 0."""
    d = np.multiply(half_r_cos, np.float32(2.0 * a.x))
    term = np.multiply(half_r_sin, np.float32(2.0 * a.y))
    np.add(d, term, out=d)
    if a.z != 0.0:
        np.add(d, np.multiply(half_z, np.float32(2.0 * a.z), out=term), out=d)
    return d


def screen_overlaps(u: np.ndarray, a1: UnitVector3,
                    a2: UnitVector3) -> tuple[np.ndarray, np.ndarray]:
    """Approximate float32 overlaps (d~1, d~2) of the hidden directions drawn
    from rows 0 and 1 of ``u`` (z and phi), which are left as they are; rows
    2 and 3 are not read.  They are within OVERLAP_EPS / 4 of the kernel's
    overlaps (proof in ``tag_bounds``), and each is a fresh array that
    depends on its own station's setting only.

    Each uniform row is rounded to float32 once, and the rest runs in
    float32: r/2 = sqrt(u (1 - u)), since 1 - z^2 = 4 u (1 - u), and the
    overlap is 2 (r/2 cos(phi) a.x + r/2 sin(phi) a.y + z/2 a.z).
    """
    half_r = u[0].astype(np.float32)
    scratch = np.subtract(1.0, u[0], out=np.empty_like(half_r), casting="same_kind")
    np.sqrt(np.multiply(half_r, scratch, out=half_r), out=half_r)
    phi = np.multiply(2.0 * np.pi, u[1], out=scratch, casting="same_kind")
    half_r_cos = np.cos(phi)
    np.multiply(half_r_cos, half_r, out=half_r_cos)
    half_r_sin = np.multiply(np.sin(phi, out=phi), half_r, out=phi)
    half_z = None
    if a1.z != 0.0 or a2.z != 0.0:
        half_z = np.subtract(0.5, u[0], out=half_r, casting="same_kind")
    return (_screen_overlap(half_r_cos, half_r_sin, half_z, a1),
            _screen_overlap(half_r_cos, half_r_sin, half_z, a2))


def _float32_half(d_exponent: float, up: bool) -> np.float32:
    """d/2 rounded up or down to a float32."""
    exact = 0.5 * d_exponent
    half = np.float32(exact)
    if float(half) < exact if up else float(half) > exact:
        half = np.nextafter(half, np.float32(np.inf if up else 0.0))
    return half


def _station_tag_bounds(d: np.ndarray, t_row: np.ndarray, d_exponent: float,
                        m: float) -> tuple[np.ndarray, np.ndarray]:
    """Float32 bounds (lo, hi) on one station's tags, from its screen
    overlaps ``d`` (d~, overwritten with hi), its tag uniforms ``t_row`` and
    the margin ``m`` (M in ``tag_bounds``, which proves them sound)."""
    # |d~| + eps and |d~| - eps, then 1 - their squares
    hi = np.abs(d, out=d)
    lo = np.add(hi, OVERLAP_EPS)
    np.subtract(hi, OVERLAP_EPS, out=hi)
    for x in (lo, hi):
        np.subtract(1.0, np.multiply(x, x, out=x), out=x)
    np.maximum(lo, 0.0, out=lo)
    scratch = np.empty_like(lo)
    if d_exponent == 3.0:
        for x in (lo, hi):
            np.multiply(x, np.sqrt(x, out=scratch), out=x)
    elif d_exponent == 1.0:
        np.sqrt(lo, out=lo)
        np.sqrt(hi, out=hi)
    elif d_exponent != 2.0:
        np.power(hi, _float32_half(d_exponent, up=False), out=hi)
        np.power(lo, _float32_half(d_exponent, up=True), out=lo)
    # times float32(u) (1 - M) for the lower bound, (1 + M) for the upper
    u32 = t_row.astype(np.float32)
    for x, factor in ((lo, 1.0 - m), (hi, 1.0 + m)):
        np.multiply(x, np.multiply(u32, factor, out=scratch), out=x)
    return lo, hi


def tag_bounds(u: np.ndarray, a1: UnitVector3, a2: UnitVector3,
               params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Float32 bounds (lo1, hi1, lo2, hi2) on the tags that the kernel makes
    of the uniforms ``u`` (4, n), which are left as they are, in fresh
    arrays.  Each station's bounds come from its own overlaps of
    ``screen_overlaps`` and its own tag row, so they depend on its own
    setting and its own copy of s only.  Below, u32 = 2^-24 is float32's
    unit roundoff.

    Soundness, step by step:

    * Overlap.  The kernel's r = sqrt(max(0, 1 - z^2)) is within 2^-27 of
      the exact radius: z = 1 - 2u is exact and only z^2 is rounded.  The
      screen's r/2 comes from float32 u and 1 - u (1 - u is exact in
      float64), one product and one square root, so it is within 2.5 u32
      relative of the exact r/2; from float32 z, the error near the poles
      would grow as the error of z over r.  Its cos and sin of float32(phi)
      differ from the kernel's by at most delta, pinned below OVERLAP_EPS /
      10 by a test.  The products, the float32 coefficients 2a, the sums
      and z/2 add at most 8 u32, since the terms r|cos(phi) a.x|, r|sin(phi)
      a.y| and |z a.z| sum to at most 1.  With |a.x| + |a.y| <= sqrt(2),
      |d~ - d| <= sqrt(2) delta + 2^-20 < eps / 4, eps = OVERLAP_EPS.
    * Overlap bounds.  dhi = fl(|d~| + eps) and dlo = fl(|d~| - eps) round
      by at most u32, so dhi >= |d| + 0.7 eps and dlo <= |d| - 0.7 eps, with
      |d| <= 1.  Then fl(dhi^2) >= dhi^2 (1 - u32) > d^2 (1 + 2^-53) >=
      fl(d^2), the kernel's, because (1 + 0.7 eps)^2 exceeds the two
      roundings by far; likewise fl(dlo^2) <= fl(d^2) where dlo >= 0.  A
      negative dlo is not clamped at 0: then dlo^2 < eps^2 < 2^-26, so fl(1
      - fl(dlo^2)) = 1, as for dlo = 0.  Only 1 - fl(dhi^2) can be negative,
      and only it is clamped at 0.
    * Delay.  T(x) = max(1 - x, 0)^(d/2) does not increase with x, so
      T(fl(dhi^2)) <= T(fl(d^2)) <= T(fl(dlo^2)) in exact arithmetic.  The
      computed T is within a relative (d/2) u32 of the exact T from the
      rounding of 1 - x, plus u32 for each square root and product (d = 1,
      2, 3: at most 3.5 u32), or plus the error of float32 ``np.power``
      (other d: 8 ulps, 16 u32, are allowed; measured, 1.01 ulps), whose
      exponent d/2 is rounded up for the lower bounds and down for the upper
      ones.  The kernel's float64 T is within a few 2^-53 of exact.
    * Tags.  The kernel's tag is fl(u T).  The screen multiplies T by
      float32(u) (1 -+ M), with M = 8 u32 for d = 1, 2, 3 and (32 + d) u32
      otherwise.  Three roundings (u, the factor, the
      product) and the rounding of 1 -+ M to float32 add at most 4 u32, so
      M exceeds the relative error of all the steps, and lo <= t <= hi.
      Beyond M = 1/16 (d above about 2^20) the relative errors are no longer
      small, and the bounds are 0 and 1, which hold for every tag.
    * Underflow.  For d = 1, 2, 3, 1 - x is 0 or at least 2^-24 and u is 0
      or at least 2^-53, so every nonzero bound exceeds 2^-90.  For other d,
      T may fall below float32's smallest normal, 2^-126, where only an
      absolute error below 2^-126 holds; the cut's slack covers it
      (``coincidence.chunk_counts``).
    """
    d_exponent = params.d_exponent
    m = 2.0 ** -21 if d_exponent in (1.0, 2.0, 3.0) else (32.0 + d_exponent) * 2.0 ** -24
    if m > 2.0 ** -4:
        n = u.shape[1]
        return tuple(np.full(n, bound, np.float32) for bound in (0.0, 1.0, 0.0, 1.0))
    d1, d2 = screen_overlaps(u, a1, a2)
    return (*_station_tag_bounds(d1, u[2], d_exponent, m),
            *_station_tag_bounds(d2, u[3], d_exponent, m))
