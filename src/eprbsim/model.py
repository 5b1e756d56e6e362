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
    s: np.ndarray | None = None  # (n, 3) hidden directions, kept on request

    def __len__(self) -> int:
        return int(self.x1.shape[0])


def event_stream(seed: int, start_index: int, stream: int = 0) -> np.random.Generator:
    """Counter-based random stream keyed by (seed, stream, start index).

    Philox is counter-based, so disjoint index ranges can be generated in any
    order, on any number of workers, with results that depend only on the key.
    """
    seq = np.random.SeedSequence([int(seed), int(stream), int(start_index)])
    return np.random.Generator(np.random.Philox(seq))


def _delay_from_dot_sq(dot_sq: np.ndarray, d_exponent: float, out: np.ndarray,
                       tmp: np.ndarray) -> np.ndarray:
    """Delay law T = (1 - dot_sq)^(d/2), written into ``out`` (which may be
    ``dot_sq`` itself) with ``tmp`` as scratch.

    Vanishes when the hidden direction is (anti)parallel to the setting and
    reaches 1 when perpendicular; only the squared overlap enters, so it is
    invariant under s -> -s and a -> -a.  An overlap that rounds above 1
    gives T = 0, as an exact one does.
    """
    base = np.subtract(1.0, dot_sq, out=out)
    np.maximum(base, 0.0, out=base)
    if d_exponent == 3.0:
        return np.multiply(base, np.sqrt(base, out=tmp), out=out)
    if d_exponent == 2.0:
        return base
    if d_exponent == 1.0:
        return np.sqrt(base, out=out)
    return np.power(base, 0.5 * d_exponent, out=out)


class Workspace:
    """Reusable buffers for chunks of up to ``capacity`` events.

    ``generate_batch`` writes the batch into ``t1``, ``t2``, ``x1`` and ``x2``
    and uses ``tmp`` as scratch; the coincidence cut then reuses ``tmp`` and
    writes ``mask`` and ``agree``.  A batch built in a workspace holds views
    of these buffers, valid until the workspace is used for the next chunk.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.t1, self.t2, *self.tmp = (np.empty(capacity) for _ in range(6))
        self.x1 = np.empty(capacity, np.int8)
        self.x2 = np.empty(capacity, np.int8)
        self.mask = np.empty(capacity, np.bool_)
        self.agree = np.empty(capacity, np.bool_)


def generate_batch(
    rng: np.random.Generator,
    a1: UnitVector3,
    a2: UnitVector3,
    params: ModelParams,
    n: int,
    keep_hidden: bool = False,
    workspace: Workspace | None = None,
) -> EventBatch:
    """Vectorized pair generation; the workhorse for large event counts.

    Station 1 sees the hidden direction s, station 2 sees -s; each outcome is
    the sign of the local overlap (ties go to +1).  Draw order is batch-wise
    (directions, then all station-1 tags, then all station-2 tags), so every
    station-1 quantity is bit-identical under any change of a2, and vice versa.

    With a ``workspace`` every array is written into its buffers and nothing
    of size ``n`` is allocated; without one a fresh workspace is used.  The
    floating-point operations and their order are the same either way, so
    both give bit-identical batches.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ws = workspace if workspace is not None else Workspace(n)
    if n > ws.capacity:
        raise ValueError(f"n = {n} exceeds the workspace capacity {ws.capacity}")
    t1, t2, x1, x2 = ws.t1[:n], ws.t2[:n], ws.x1[:n], ws.x2[:n]
    w0, w1, w2, w3 = (b[:n] for b in ws.tmp)

    # z = 1 - 2u and phi = 2 pi u'
    sz = np.subtract(1.0, np.multiply(2.0, rng.random(out=w0), out=w0), out=w0)
    phi = np.multiply(2.0 * np.pi, rng.random(out=w1), out=w1)
    # r = sqrt(max(0, 1 - z^2))
    r = np.multiply(sz, sz, out=w2)
    np.subtract(1.0, r, out=r)
    np.sqrt(np.maximum(0.0, r, out=r), out=r)
    sx = np.multiply(r, np.cos(phi, out=w3), out=w3)
    sy = np.multiply(r, np.sin(phi, out=phi), out=phi)
    s = np.column_stack((sx, sy, sz)) if keep_hidden else None

    # d = (sx a.x + sy a.y) + sz a.z, held in the tag buffers until the tags
    # are drawn; w2 is free once r has been used
    for d, a in ((t1, a1), (t2, a2)):
        np.multiply(sx, a.x, out=d)
        np.add(d, np.multiply(sy, a.y, out=w2), out=d)
        np.add(d, np.multiply(sz, a.z, out=w2), out=d)

    # outcomes as 0/1 bytes, then 2x - 1; station 2 measures -s:
    # sign(a2 . -s) with the same tie-break to +1
    np.greater_equal(t1, 0.0, out=x1.view(np.bool_))
    np.less_equal(t2, 0.0, out=x2.view(np.bool_))
    for x in (x1, x2):
        np.subtract(np.multiply(x, 2, out=x), 1, out=x)

    T1 = _delay_from_dot_sq(np.multiply(t1, t1, out=w0), params.d_exponent, out=w0, tmp=w1)
    T2 = _delay_from_dot_sq(np.multiply(t2, t2, out=w2), params.d_exponent, out=w2, tmp=w3)
    np.multiply(rng.random(out=t1), T1, out=t1)
    np.multiply(rng.random(out=t2), T2, out=t2)
    return EventBatch(x1=x1, x2=x2, t1=t1, t2=t2, s=s)
