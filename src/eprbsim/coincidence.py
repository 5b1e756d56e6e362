"""Time-window post-selection and coincidence statistics.

Two conventions for "coincident" are supported.  Continuous mode keeps a
pair when ``|t1 - t2| <= W``.  Same-bin mode discretizes tags to bins of
width ``tau`` and keeps a pair when both tags land in the same bin; this is
the convention under which the per-pair coincidence probability equals
``tau * min(T1, T2) / (T1 * T2)`` almost everywhere, which is what the
analytic rate bounds assume.

The runner counts coincidences with ``chunk_counts``: a cheap, provably
conservative float32 screen on bounds of the tags, block by block, then
the exact kernel and the cut on the few pairs that pass it, gathered over
the blocks of a chunk.  When the cut keeps every pair, the screen settles
the outcomes from the signs of the overlaps, and the tags are never drawn.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .model import (
    OVERLAP_EPS,
    CoincidenceMode,
    EventBatch,
    ModelParams,
    UnitVector3,
    _events_from_uniforms,
    _exact_overlaps,
    screen_overlaps,
    tag_bounds,
)

__all__ = [
    "CoincidenceStats",
    "coincidence_mask",
    "accumulate",
    "chunk_counts",
    "uniform_rows",
    "coincidence_probability_exact",
    "same_bin_probability_exact",
]


def coincidence_mask(t1: np.ndarray, t2: np.ndarray, params: ModelParams) -> np.ndarray:
    """Boolean mask of coincident pairs for arrays of time tags (the
    continuous window is inclusive at its boundary)."""
    if params.coincidence_mode is CoincidenceMode.CONTINUOUS:
        return np.abs(t1 - t2) <= params.window
    return np.floor(t1 / params.tau) == np.floor(t2 / params.tau)


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
    mode: CoincidenceMode
    window: float
    tau: float

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
        params: ModelParams,
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
            mode=params.coincidence_mode,
            window=params.window,
            tau=params.tau,
        )

    @property
    def has_correlation(self) -> bool:
        return self.e_conditional is not None


def _counts_from_batch(batch: EventBatch, params: ModelParams) -> tuple[int, int, int]:
    """(events, coincidences, sum of x1*x2 over coincidences) of one batch.

    Outcomes are +-1, so the sum is (agreeing coincidences) minus
    (disagreeing ones), computed from boolean counts without a product array.
    """
    mask = coincidence_mask(batch.t1, batch.t2, params)
    n_c = int(np.count_nonzero(mask))
    n_agree = int(np.count_nonzero(mask & (batch.x1 == batch.x2)))
    return len(batch), n_c, 2 * n_agree - n_c


# Absolute slack on the screen's limit: it covers the 2^-52 by which a
# same-bin pair's tags may differ beyond tau, and the absolute error, below
# 2^-126, of float32 tag bounds that fall below float32's smallest normal
# (model.tag_bounds).
_SCREEN_SLACK = 2.0 ** -40


def _screen_limit(params: ModelParams) -> np.float32 | None:
    """The largest tag difference, plus slack, that a coincident pair can
    have, rounded up to a float32; None when the cut keeps every pair (tau =
    1 or W = 1)."""
    cut = params.window if params.coincidence_mode is CoincidenceMode.CONTINUOUS else params.tau
    if cut >= 1.0:
        return None
    limit = np.float32(cut + _SCREEN_SLACK)
    if float(limit) < cut + _SCREEN_SLACK:
        limit = np.nextafter(limit, np.float32(np.inf))
    return limit


def uniform_rows(params: ModelParams) -> int:
    """How many of an event's four uniforms ``chunk_counts`` reads: z and
    phi alone when the cut keeps every pair, else the two tags as well."""
    return 2 if _screen_limit(params) is None else 4


def _outcome_counts(u: np.ndarray, a1: UnitVector3, a2: UnitVector3) -> tuple[int, int, int]:
    """``chunk_counts`` of one block when the cut keeps every pair: only the
    outcomes count, and they are settled from rows 0 and 1 of ``u`` (z and
    phi)."""
    n = u.shape[1]
    d1, d2 = screen_overlaps(u, a1, a2)
    # outcomes agree when d1 >= 0 and d2 <= 0 agree, so d1 d2 < 0 when
    # neither is 0; |d1 d2| > eps^2 is far from float32 underflow
    agree = np.multiply(d1, d2) < 0.0
    n_agree = np.count_nonzero(agree)
    # the pairs the screen cannot settle: |d~| <= eps at either station
    low = np.minimum(np.abs(d1, out=d1), np.abs(d2, out=d2), out=d1)
    index = np.flatnonzero(low <= OVERLAP_EPS)
    if len(index):
        n_agree -= np.count_nonzero(agree[index])
        e1, e2 = _exact_overlaps(u[:2, index], a1, a2)
        n_agree += np.count_nonzero((e1 >= 0.0) == (e2 <= 0.0))
    return n, n, 2 * int(n_agree) - n


def _kernel_counts(u: np.ndarray, a1: UnitVector3, a2: UnitVector3,
                   params: ModelParams) -> tuple[int, int]:
    """(coincidences, sum of x1*x2 over coincidences) of the kernel's events
    of the uniforms ``u``."""
    return _counts_from_batch(_events_from_uniforms(u, a1, a2, params), params)[1:]


def _screen(u: np.ndarray, a1: UnitVector3, a2: UnitVector3, params: ModelParams,
            limit: np.float32) -> np.ndarray:
    """The indices of the pairs of ``u`` whose tag intervals come within
    ``limit``: every pair that may coincide (proof in ``chunk_counts``)."""
    lo1, hi1, lo2, hi2 = tag_bounds(u, a1, a2, params)
    keep = np.subtract(lo1, hi2, out=lo1) <= limit
    near = np.subtract(lo2, hi1, out=lo2) <= limit
    return np.flatnonzero(np.logical_and(keep, near, out=keep))


def chunk_counts(
    blocks: Iterable[np.ndarray], a1: UnitVector3, a2: UnitVector3, params: ModelParams
) -> tuple[int, int, int]:
    """(events, coincidences, sum of x1*x2 over coincidences) of the events
    of the uniform ``blocks``, each (4, n), or (2, n) when the cut keeps
    every pair (``uniform_rows``); equal to ``_counts_from_batch`` of the
    kernel's batch of all of them.  A block may be overwritten once the
    next one is asked for.

    When the cut keeps every pair (tau = 1 or W = 1; ``_screen_limit`` is
    None), only rows 0 and 1 are read.  Every pair is coincident: tags are
    fl(u T) with u < 1 and T <= 1, so they lie in [0, 1), fl(|t1 - t2|) <=
    1 <= W and floor(t / 1) = 0.  A block's counts are then (n, n, 2 agree
    - n), and whether a pair's outcomes agree depends on the signs of its
    two overlaps alone.  The screen's overlaps d~ differ from the kernel's
    d by less than ``model.OVERLAP_EPS`` (``model.tag_bounds``), so where
    |d~| > eps at both stations, sign(d) = sign(d~) and d != 0, and the
    tie-break to +1 never applies.  The other pairs, about 2 eps of them,
    get the kernel's exact overlaps, from their z and phi alone.

    When the cut can reject a pair, a screen keeps only the pairs whose
    float32 tag intervals (``model.tag_bounds``) come within the limit, and
    the kernel runs on them alone.  Soundness: a same-bin pair has k <=
    fl(t/tau) < k+1 for both tags, and fl(t/tau) is within a relative 2^-53
    of t/tau, so |t1 - t2| < tau + 2^-53 (t1 + t2) < tau + 2^-52 (this
    matters for tau below 2^-52); a continuous pair has fl(|t1 - t2|) <= W,
    so |t1 - t2| <= W + 2^-53.  With t1 >= lo1 and t2 <= hi2, up to 2^-126
    each where a bound underflows, lo1 - hi2 lies below the cut plus
    ``_SCREEN_SLACK``, and so below that sum rounded up to a float32.
    Rounding to nearest never reverses the order of two inputs, so
    fl(lo1 - hi2) <= the float32 limit.  The same holds for lo2 - hi1, so
    no coincident pair is screened out.  Every operation of the kernel is
    elementwise, so the kept events get the outcomes and tags they would
    get in the whole chunk.

    The uniforms of the pairs kept are gathered, over the blocks, into one
    array as wide as the first block.  The exact kernel runs on them when
    it is full and once more at the end, on what is left: once per chunk at
    small tau, never when no pair is kept.
    """
    limit = _screen_limit(params)
    if limit is None:
        counts = [_outcome_counts(u, a1, a2) for u in blocks]
        return tuple(sum(column) for column in zip(*counts))
    parts, n, filled = [], 0, 0
    for u in blocks:
        if not n:  # the first block
            kept = np.empty((4, u.shape[1]))
        n += u.shape[1]
        index = _screen(u, a1, a2, params, limit)
        while len(index):
            room = kept.shape[1] - filled
            take, index = index[:room], index[room:]
            kept[:, filled:filled + len(take)] = u[:, take]
            filled += len(take)
            if filled == kept.shape[1]:
                parts.append(_kernel_counts(kept, a1, a2, params))
                filled = 0
    if filled:
        parts.append(_kernel_counts(kept[:, :filled], a1, a2, params))
    return n, sum(c for c, _ in parts), sum(s for _, s in parts)


def accumulate(batch: EventBatch, params: ModelParams) -> CoincidenceStats:
    """Apply the window cut to a batch of events and accumulate statistics.

    Raises on an empty batch.  With zero surviving coincidences the
    conditional correlation is flagged undefined rather than reported as a
    number.
    """
    return CoincidenceStats.from_counts(*_counts_from_batch(batch, params), params=params)


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
