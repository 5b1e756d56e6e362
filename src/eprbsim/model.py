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
    "Workspace",
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


def _delay_from_dot_sq(dot_sq: np.ndarray, d_exponent: float, out: np.ndarray | None = None,
                       tmp: np.ndarray | None = None) -> np.ndarray:
    """Delay law T = (1 - dot_sq)^(d/2), written into ``out`` (which may be
    ``dot_sq`` itself) with ``tmp`` as scratch; both are allocated if None.

    Vanishes when the hidden direction is (anti)parallel to the setting and
    reaches 1 when perpendicular; only the squared overlap enters, so it is
    invariant under s -> -s and a -> -a.  An overlap that rounds above 1
    gives T = 0, as an exact one does.
    """
    base = np.subtract(1.0, dot_sq, out=out)
    np.maximum(base, 0.0, out=base)
    if d_exponent == 3.0:
        return np.multiply(base, np.sqrt(base, out=tmp), out=base)
    if d_exponent == 2.0:
        return base
    if d_exponent == 1.0:
        return np.sqrt(base, out=base)
    return np.power(base, 0.5 * d_exponent, out=base)


# Margin on the overlap a.S in tag_bounds.  Its float32 cos and sin differ
# from the kernel's float64 ones by at most 2.6e-7, so a.S is off by at most
# 3.7e-7, well inside the margin.
OVERLAP_EPS = 1e-5


class Workspace:
    """The screen's reusable buffers for blocks of up to ``capacity`` events.

    ``uniforms(n)`` is the block's four uniform draws, one row each: z, phi,
    station-1 tags and station-2 tags.  When the cut keeps every pair only
    rows 0 and 1 are drawn, and rows 2 and 3 hold whatever was there before;
    nothing reads them then.  The screen uses ``tmp`` and ``f32`` and leaves
    the pairs that may coincide, or whose outcomes it cannot settle, in
    ``mask``, with ``agree`` as scratch.  The kept pairs go through the
    exact kernel in arrays of their own.

    Keep them: a float64 row of a 2^14-event block is 128 KiB, glibc's mmap
    threshold, so fresh temporaries fault on every page.  On a 2-vCPU VM an
    allocating-numpy screen took 54-64 ms per 2^19-event cut-path chunk, not
    39-43 ms, with ~8,190 minor faults per chunk, not at most 1; with 2^15-event
    blocks the benchmark's ``chsh_10m`` wall time rose from 1.77-2.00 to 2.41-2.77 s.
    """

    def __init__(self, capacity: int) -> None:
        self._uniforms = np.empty(4 * capacity)
        self.tmp = [np.empty(capacity) for _ in range(6)]
        self.f32 = np.empty((2, capacity), np.float32)
        self.mask = np.empty(capacity, np.bool_)
        self.agree = np.empty(capacity, np.bool_)

    def uniforms(self, n: int) -> np.ndarray:
        """A C-contiguous (4, n) view for the uniforms of ``n`` events."""
        return self._uniforms[:4 * n].reshape(4, n)


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


def _radius(sz: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """r = sqrt(max(0, 1 - z^2)), written into ``out`` (allocated if None)."""
    r = np.multiply(sz, sz, out=out)
    np.subtract(1.0, r, out=r)
    return np.sqrt(np.maximum(0.0, r, out=r), out=r)


def _overlap(sx: np.ndarray, sy: np.ndarray, sz: np.ndarray, a: UnitVector3,
             out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """d = (sx a.x + sy a.y) + sz a.z, written into ``out`` with ``tmp`` as
    scratch (both allocated if None).  The last term is skipped when a.z ==
    0: it only adds +-0, which can turn a -0 into +0 but changes neither the
    outcome nor d^2."""
    out = np.multiply(sx, a.x, out=out)
    np.add(out, np.multiply(sy, a.y, out=tmp), out=out)
    if a.z != 0.0:
        np.add(out, np.multiply(sz, a.z, out=tmp), out=out)
    return out


def _exact_overlaps(u: np.ndarray, a1: UnitVector3,
                    a2: UnitVector3) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's float64 overlaps (d1, d2) = (a1.s, a2.s) of the hidden
    directions drawn from rows 0 and 1 of ``u`` (z and phi); other rows are
    not read."""
    # z = 1 - 2u and phi = 2 pi u'
    sz = 1.0 - 2.0 * u[0]
    phi = 2.0 * np.pi * u[1]
    r = _radius(sz)
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


def screen_overlaps(u: np.ndarray, a1: UnitVector3, a2: UnitVector3,
                    ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Approximate overlaps (d~1, d~2) of the hidden directions drawn from
    rows 0 and 1 of ``u`` (z and phi), which are left as they are; rows 2
    and 3 are not read.  They avoid the kernel's float64 cos and sin, its
    most expensive steps, and differ from the kernel's overlaps by less than
    OVERLAP_EPS (proof in ``tag_bounds``).  d~1 and d~2 are written into
    ``ws.tmp[3]`` and ``ws.tmp[4]``; ``ws.tmp[0]``, ``ws.tmp[1]``,
    ``ws.tmp[2]``, ``ws.tmp[5]`` and ``ws.f32`` are used as scratch.
    """
    n = u.shape[1]
    w0, w1, w2, w3, w4, w5 = (b[:n] for b in ws.tmp)
    p, q = ws.f32[0][:n], ws.f32[1][:n]

    sz = np.subtract(1.0, np.multiply(2.0, u[0], out=w0), out=w0)
    r = _radius(sz, out=w1)
    np.multiply(2.0 * np.pi, u[1], out=p, casting="same_kind")
    rc = np.multiply(r, np.cos(p, out=q), out=w2)
    rs = np.multiply(r, np.sin(p, out=p), out=w1)
    d1 = _overlap(rc, rs, sz, a1, out=w3, tmp=w5)
    d2 = _overlap(rc, rs, sz, a2, out=w4, tmp=w5)
    return d1, d2


def tag_bounds(u: np.ndarray, a1: UnitVector3, a2: UnitVector3, params: ModelParams,
               ws: Workspace) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bounds (lo1, hi1, lo2, hi2) on the tags that the kernel makes of the
    uniforms ``u`` (4, n), which are left as they are; each station's bounds
    depend on its own setting and its own copy of s only.  They start from
    the overlaps of ``screen_overlaps``.

    Soundness, step by step:

    * Overlap.  The screen takes cos and sin of float32(phi) and otherwise
      the kernel's operations, so its overlap d~ has |d~ - d| <=
      (|a.x| + |a.y|) delta + 2^-48, where delta is the float32 error,
      pinned below OVERLAP_EPS / 10 by a test.  The gap OVERLAP_EPS -
      |d~ - d| > 0.8 OVERLAP_EPS dominates the one rounding of |d~| +-
      OVERLAP_EPS for any d, so dlo = max(|d~| - eps, 0) <= |d| <= |d~| +
      eps = dhi.
    * Delay.  T is computed from fl(d*d) = fl(|d|*|d|) by 1 - x, max(x, 0),
      square roots and products.  Each is correctly rounded, and rounding to
      nearest never reverses the order of two inputs, so T(dhi) <= T(|d|) <=
      T(dlo) when computed the same way.  np.power (exponents other than 1,
      2 and 3) is accurate to a few ulps but is not monotone by
      construction, so there T may leave the bounds by a few 2^-53 (T <= 1).
    * Tags.  The kernel's tag is fl(u*T) with the same u, so fl(u*T(dhi)) <=
      t <= fl(u*T(dlo)) by the same rounding argument, up to the np.power
      ulps, for which the cut's limit carries the slack
      (``coincidence.block_counts``).
    """
    n = u.shape[1]
    w0, w1, w5 = ws.tmp[0][:n], ws.tmp[1][:n], ws.tmp[5][:n]
    d1, d2 = screen_overlaps(u, a1, a2, ws)

    bounds = []
    for d, lo, t in ((d1, w0, u[2]), (d2, w1, u[3])):
        np.abs(d, out=d)
        np.add(d, OVERLAP_EPS, out=lo)
        np.maximum(np.subtract(d, OVERLAP_EPS, out=d), 0.0, out=d)
        for x in (lo, d):
            _delay_from_dot_sq(np.multiply(x, x, out=x), params.d_exponent, out=x, tmp=w5)
            np.multiply(t, x, out=x)
        bounds += [lo, d]
    return tuple(bounds)
