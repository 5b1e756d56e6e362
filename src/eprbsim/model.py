"""Event generation for a local hidden-direction model of the EPRB experiment.

Each simulated pair carries a hidden direction drawn uniformly on the unit
sphere (``_hidden_direction``).  Station 1 receives the direction itself,
station 2 its antipode, so equal analyzer settings always give strictly
opposite outcomes.  Every station-local quantity (outcome and detection-time
tag) comes from ``_station``, whose arguments are the local setting, the
local tag uniforms and the local copy of the hidden variable only; locality
is structural, not statistical.

Time tags are drawn uniformly on ``[0, T)`` where the maximal delay
``T = (1 - (a.s)^2)^(d/2)`` shrinks as the hidden direction aligns with the
setting.  All times are expressed in units of the largest possible delay, so
the resolution ``tau`` and window ``W`` are dimensionless fractions.

This module holds the model alone: its parameters, its random streams and
the exact float64 kernel.  The coincidence cut, and the cheap screen that
spares the kernel the pairs the cut would reject, are in ``coincidence``.
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
]

_NORM_TOL = 1e-12


class CoincidenceMode(Enum):
    """How two time tags are compared when deciding on a coincidence."""

    SAME_BIN = "same-bin"
    CONTINUOUS = "continuous"


@dataclass(frozen=True)
class UnitVector3:
    """An analyzer setting: a unit vector (x, y) in the plane of the polarizers."""

    x: float
    y: float

    def __post_init__(self) -> None:
        # Python floats, so that ``_overlap`` of the screen's float32
        # direction stays float32: a numpy float64 would promote it
        for name in ("x", "y"):
            object.__setattr__(self, name, float(getattr(self, name)))
        norm_sq = self.x * self.x + self.y * self.y
        if not abs(norm_sq - 1.0) <= _NORM_TOL:  # NaN fails it too
            raise ValueError(f"not a unit vector: |v|^2 = {norm_sq!r}")

    @classmethod
    def from_angle_deg(cls, angle_deg: float) -> "UnitVector3":
        """Setting in the x-y plane at the given azimuth (degrees)."""
        if not math.isfinite(angle_deg):  # cos and sin of +-inf raise, of NaN give NaN
            raise ValueError(f"not a unit vector: the angle is {angle_deg!r} degrees")
        a = math.radians(angle_deg)
        return cls(math.cos(a), math.sin(a))

    def __neg__(self) -> "UnitVector3":
        return UnitVector3(-self.x, -self.y)


@dataclass(frozen=True)
class ModelParams:
    """Model and post-selection parameters, in units of the maximal delay.

    ``tau`` is the time-tag resolution, ``window`` the coincidence window W;
    ``cut`` is the one of them that the mode reads.  ``d_exponent`` shapes
    the delay law ``T = (1 - (a.s)^2)^(d/2)``; the default 3 makes the
    same-bin coincidence density proportional to ``1/max(T1, T2)`` with the
    sin^2 azimuthal profile used by the analytic bounds.
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

    @property
    def cut(self) -> float:
        """The one width the coincidence rule reads: ``window`` in
        continuous mode, ``tau`` in same-bin mode."""
        return self.window if self.coincidence_mode is CoincidenceMode.CONTINUOUS else self.tau


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


def _hidden_direction(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's float64 hidden direction s = (sx, sy, sz) drawn from rows
    0 and 1 of ``u`` (z and phi); other rows are not read.  It is shared by
    both stations: station 1 receives s, station 2 its antipode."""
    # z = 1 - 2u and phi = 2 pi u'
    sz = 1.0 - 2.0 * u[0]
    phi = 2.0 * np.pi * u[1]
    r = np.sqrt(np.maximum(0.0, 1.0 - sz * sz))
    return r * np.cos(phi), r * np.sin(phi), sz


def _overlap(s: tuple[np.ndarray, ...], a: UnitVector3) -> np.ndarray:
    """d = sx a.x + sy a.y, the overlap a.s with a setting ``a``."""
    d = s[0] * a.x
    d += s[1] * a.y
    return d


def _outcome(d: np.ndarray, sign: int) -> np.ndarray:
    """The outcome sign(a . (sign s)) of a station whose overlap with s is
    ``d``, ties to +1: station 1 has sign = +1, and station 2, which measures
    -s, sign = -1, so it gives +1 where d <= 0."""
    return np.where(d >= 0.0 if sign > 0 else d <= 0.0, np.int8(1), np.int8(-1))


def _delay(base: np.ndarray, d_exponent: float) -> np.ndarray:
    """Delay law T = base^(d/2) for base = 1 - (a.s)^2 >= 0, in place in
    ``base``, which it returns, in the precision of ``base``, to which
    ``np.power`` rounds d/2.  T vanishes when s is (anti)parallel to the
    setting and is 1 when perpendicular; only (a.s)^2 enters, so it is
    invariant under s -> -s and a -> -a."""
    if d_exponent == 3.0:
        return np.multiply(base, np.sqrt(base), out=base)
    if d_exponent == 1.0:
        return np.sqrt(base, out=base)
    if d_exponent != 2.0:
        np.power(base, 0.5 * d_exponent, out=base)
    return base


def _station_tag(d: np.ndarray, t_row: np.ndarray, d_exponent: float) -> np.ndarray:
    """One station's tags t = u T from its overlaps ``d`` and tag uniforms
    ``t_row``, in place in ``d``, which it returns, in the precision of d:
    float64 in the kernel (``_station``), float32, with u rounded to it, in
    the screen (``coincidence._station_tag_estimate``)."""
    np.multiply(d, d, out=d)
    # an overlap that rounds above 1 gives T = 0, as an exact one does
    np.maximum(np.subtract(1.0, d, out=d), 0.0, out=d)
    _delay(d, d_exponent)
    return np.multiply(d, t_row.astype(d.dtype, copy=False), out=d)


def _station(s: tuple[np.ndarray, np.ndarray, np.ndarray], sign: int, a: UnitVector3,
             t_row: np.ndarray, d_exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """One station's outcomes and tags (x, t) from the hidden direction ``s``,
    the sign of its copy of s, its own setting ``a`` and its tag uniforms
    ``t_row``: nothing of the other station enters."""
    d = _overlap(s, a)
    x = _outcome(d, sign)  # before _station_tag overwrites d
    return x, _station_tag(d, t_row, d_exponent)


def _events_from_uniforms(u: np.ndarray, a1: UnitVector3, a2: UnitVector3,
                          params: ModelParams) -> EventBatch:
    """The exact float64 kernel: the events of the uniforms ``u`` (4, n).

    Every operation is elementwise, so an event's outcomes and tags depend
    on its own four uniforms only, not on its position or on the other
    events of ``u``.
    """
    s = _hidden_direction(u)
    x1, t1 = _station(s, 1, a1, u[2], params.d_exponent)
    x2, t2 = _station(s, -1, a2, u[3], params.d_exponent)
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
