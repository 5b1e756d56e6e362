"""Time-window post-selection and coincidence statistics.

Two conventions for "coincident" are supported.  Continuous mode keeps a
pair when ``|t1 - t2| <= W``.  Same-bin mode discretizes tags to bins of
width ``tau`` and keeps a pair when both tags land in the same bin; this is
the convention under which the per-pair coincidence probability equals
``tau * min(T1, T2) / (T1 * T2)`` almost everywhere, which is what the
analytic rate bounds assume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .model import CoincidenceMode, EventBatch, EventPair, ModelParams, Workspace

__all__ = [
    "CoincidenceStats",
    "is_coincident",
    "coincidence_mask",
    "accumulate",
    "merge_stats",
    "coincidence_probability_exact",
    "same_bin_probability_exact",
]


def coincidence_mask(
    t1: np.ndarray, t2: np.ndarray, params: ModelParams, workspace: Workspace | None = None
) -> np.ndarray:
    """Boolean mask of coincident pairs for arrays of time tags.

    With a ``workspace`` (whose ``tmp`` buffers must not hold the tags) the
    mask and its intermediates are written into its buffers.
    """
    n = len(t1)
    a, b, mask = (None, None, None) if workspace is None else (
        workspace.tmp[0][:n], workspace.tmp[1][:n], workspace.mask[:n])
    if params.coincidence_mode is CoincidenceMode.CONTINUOUS:
        gap = np.abs(np.subtract(t1, t2, out=a), out=a)
        return np.less_equal(gap, params.window, out=mask)
    bin1 = np.floor(np.divide(t1, params.tau, out=a), out=a)
    bin2 = np.floor(np.divide(t2, params.tau, out=b), out=b)
    return np.equal(bin1, bin2, out=mask)


def is_coincident(t1: float, t2: float, params: ModelParams) -> bool:
    """Window test for a single pair of tags (inclusive at the boundary)."""
    if t1 < 0.0 or t2 < 0.0:
        raise ValueError("time tags must be >= 0")
    if params.coincidence_mode is CoincidenceMode.CONTINUOUS:
        return abs(t1 - t2) <= params.window
    return math.floor(t1 / params.tau) == math.floor(t2 / params.tau)


@dataclass(frozen=True)
class CoincidenceStats:
    """Accumulated counts and the derived post-selected estimators.

    ``e_conditional`` is the average of x1*x2 over coincident pairs.  When no
    pair survives the cut it is None (undefined), never silently zero.  The
    ``mode``/``window``/``tau`` fields record how the cut was made so that
    downstream bound checks can refuse incompatible statistics.
    """

    n_total: int
    n_coincident: int
    sum_xy: int
    gamma_hat: float
    stderr_gamma: float
    e_conditional: float | None
    stderr_e: float | None
    mode: CoincidenceMode | None = None
    window: float | None = None
    tau: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.n_coincident <= self.n_total:
            raise ValueError("need 0 <= n_coincident <= n_total")
        if abs(self.sum_xy) > self.n_coincident:
            raise ValueError("|sum_xy| cannot exceed n_coincident")

    @classmethod
    def from_counts(
        cls,
        n_total: int,
        n_coincident: int,
        sum_xy: int,
        *,
        params: ModelParams | None = None,
    ) -> "CoincidenceStats":
        if n_total < 1:
            raise ValueError("no events")
        gamma = n_coincident / n_total
        stderr_gamma = math.sqrt(gamma * (1.0 - gamma) / n_total)
        if n_coincident > 0:
            e = sum_xy / n_coincident
            stderr_e = math.sqrt(max(0.0, 1.0 - e * e) / n_coincident)
        else:
            e = None
            stderr_e = None
        return cls(
            n_total=n_total,
            n_coincident=n_coincident,
            sum_xy=sum_xy,
            gamma_hat=gamma,
            stderr_gamma=stderr_gamma,
            e_conditional=e,
            stderr_e=stderr_e,
            mode=params.coincidence_mode if params else None,
            window=params.window if params else None,
            tau=params.tau if params else None,
        )

    @property
    def has_correlation(self) -> bool:
        return self.e_conditional is not None

    def merged_with(self, other: "CoincidenceStats") -> "CoincidenceStats":
        """Associative merge of raw counts; estimators are recomputed."""
        if (self.mode, self.window, self.tau) != (other.mode, other.window, other.tau):
            raise ValueError("cannot merge statistics from different coincidence settings")
        merged = CoincidenceStats.from_counts(
            self.n_total + other.n_total,
            self.n_coincident + other.n_coincident,
            self.sum_xy + other.sum_xy,
        )
        return replace(merged, mode=self.mode, window=self.window, tau=self.tau)


def merge_stats(parts: Iterable[CoincidenceStats]) -> CoincidenceStats:
    """Merge partial statistics from disjoint event ranges."""
    parts = list(parts)
    if not parts:
        raise ValueError("no events")
    out = parts[0]
    for p in parts[1:]:
        out = out.merged_with(p)
    return out


def _counts_from_batch(
    batch: EventBatch, params: ModelParams, workspace: Workspace | None = None
) -> tuple[int, int, int]:
    """(events, coincidences, sum of x1*x2 over coincidences) of one batch.

    Outcomes are +-1, so the sum is (agreeing coincidences) minus
    (disagreeing ones), computed from boolean counts without a product array.
    """
    n = len(batch)
    mask = coincidence_mask(batch.t1, batch.t2, params, workspace)
    agree = np.equal(batch.x1, batch.x2, out=None if workspace is None else workspace.agree[:n])
    np.logical_and(agree, mask, out=agree)
    n_c = int(np.count_nonzero(mask))
    return n, n_c, 2 * int(np.count_nonzero(agree)) - n_c


def accumulate(
    events: EventBatch | Iterable[EventPair],
    params: ModelParams,
) -> CoincidenceStats:
    """Apply the window cut to a stream of events and accumulate statistics.

    Accepts an EventBatch or any iterable of EventPair.  Raises on an empty
    stream.  With zero surviving coincidences the conditional correlation is
    flagged undefined rather than reported as a number.
    """
    if isinstance(events, EventBatch):
        n, n_c, sum_xy = _counts_from_batch(events, params)
    else:
        n = n_c = 0
        sum_xy = 0
        for pair in events:
            n += 1
            if is_coincident(pair.t1, pair.t2, params):
                n_c += 1
                sum_xy += pair.x1 * pair.x2
    if n == 0:
        raise ValueError("no events")
    return CoincidenceStats.from_counts(n, n_c, sum_xy, params=params)


def coincidence_probability_exact(T1: float, T2: float, W: float) -> float:
    """Exact P(|u1 - u2| <= W) for independent uniforms on [0,T1] x [0,T2].

    Band-area geometry: the acceptance region is the rectangle minus the two
    corner triangles above and below the band, each clipped to the rectangle.
    Degenerate sides collapse to a point at 0, so only the other tag needs to
    fall within W of the origin.
    """
    if T1 < 0.0 or T2 < 0.0 or W < 0.0:
        raise ValueError("T1, T2, W must be >= 0")
    if T1 == 0.0 and T2 == 0.0:
        return 1.0
    if T1 == 0.0:
        return min(1.0, W / T2)
    if T2 == 0.0:
        return min(1.0, W / T1)
    c = max(T2 - W, 0.0)
    above = 0.5 * c * c - 0.5 * max(c - T1, 0.0) ** 2
    d = max(T1 - W, 0.0)
    below = 0.5 * d * d - 0.5 * max(d - T2, 0.0) ** 2
    p = 1.0 - (above + below) / (T1 * T2)
    return min(1.0, max(0.0, p))


def same_bin_probability_exact(T1: float, T2: float, tau: float) -> float:
    """Exact probability that both uniform tags land in the same tau-bin.

    Sum over bins of the product of per-station bin masses.  Equals
    ``tau * min(T1, T2) / (T1 * T2)`` whenever the endpoint bins differ,
    and never exceeds that density.
    """
    if tau <= 0.0:
        raise ValueError("tau must be > 0")
    if T1 < 0.0 or T2 < 0.0:
        raise ValueError("T1, T2 must be >= 0")
    if T1 == 0.0 and T2 == 0.0:
        return 1.0
    if T1 == 0.0:
        return min(tau, T2) / T2
    if T2 == 0.0:
        return min(tau, T1) / T1
    n_bins = int(math.ceil(max(T1, T2) / tau))
    edges = tau * np.arange(n_bins + 1)
    w1 = np.clip(np.minimum(edges[1:], T1) - edges[:-1], 0.0, tau) / T1
    w2 = np.clip(np.minimum(edges[1:], T2) - edges[:-1], 0.0, tau) / T2
    return float(np.dot(w1, w2))
