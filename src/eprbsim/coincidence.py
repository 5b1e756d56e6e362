"""Time-window post-selection, chunk counts and coincidence statistics.

Two conventions for "coincident" are supported.  Continuous mode keeps a
pair when ``|t1 - t2| <= W``.  Same-bin mode discretizes tags to bins of
width ``tau`` and keeps a pair when both tags land in the same bin; this is
the convention under which the per-pair coincidence probability equals
``tau * min(T1, T2) / (T1 * T2)`` almost everywhere, which is what the
analytic rate bounds assume.

``chunk_counts`` counts one chunk of the runner's plan.  It draws the
chunk's uniforms block by block, screens each block in float32 on provably
conservative bounds of the tags, and runs the exact kernel of ``model`` and
the cut on the few pairs that pass, gathered over the blocks of the chunk.
When the cut keeps every pair, only the outcomes count: with in-plane
settings they are settled by where the phi uniform falls against each
station's half-turn, without trigonometry, and the tags are never drawn.
As in the model, the hidden direction is formed once per block
(``_screen_direction``), and each station's tag bounds
(``_station_tag_bounds``) and half-turn (``_half_turn``) come from it, its
own setting and its own tag row only.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .model import (
    CoincidenceMode,
    EventBatch,
    ModelParams,
    UnitVector3,
    _events_from_uniforms,
    _hidden_direction,
    _outcome,
    _overlap,
    batch_streams,
)

__all__ = [
    "CoincidenceStats",
    "coincidence_mask",
    "accumulate",
    "chunk_counts",
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


# Margin on the overlap a.S in _station_tag_bounds.  The screen's float32
# overlap is within sqrt(2) delta + 2^-20 < OVERLAP_EPS / 4 of the kernel's
# float64 one, where delta, the error of float32 cos and sin of
# float32(phi), is tested below OVERLAP_EPS / 10; measured, the overlap
# error is at most 3.1e-7.
OVERLAP_EPS = 1e-5


def _screen_direction(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The screen's float32 (r/2 cos(phi), r/2 sin(phi)) of the hidden
    direction drawn from rows 0 and 1 of ``u`` (z and phi), which are left
    as they are, and row 0 itself, from which a station with a.z != 0 forms
    z/2.  Each uniform row is rounded to float32 once, and the rest runs in
    float32: r/2 = sqrt(u (1 - u)), since 1 - z^2 = 4 u (1 - u)."""
    half_r = u[0].astype(np.float32)
    scratch = np.subtract(1.0, u[0], out=np.empty_like(half_r), casting="same_kind")
    np.sqrt(np.multiply(half_r, scratch, out=half_r), out=half_r)
    phi = np.multiply(2.0 * np.pi, u[1], out=scratch, casting="same_kind")
    half_r_cos = np.cos(phi)
    np.multiply(half_r_cos, half_r, out=half_r_cos)
    half_r_sin = np.multiply(np.sin(phi, out=phi), half_r, out=phi)
    return half_r_cos, half_r_sin, u[0]


def _screen_overlap(h: tuple[np.ndarray, np.ndarray, np.ndarray], a: UnitVector3) -> np.ndarray:
    """One station's float32 overlap 2 (r/2 cos(phi) a.x + r/2 sin(phi) a.y +
    z/2 a.z) from ``h`` of ``_screen_direction``, in a fresh array; within
    OVERLAP_EPS / 4 of the kernel's (proof in ``_station_tag_bounds``).  As
    in ``model._overlap``, the z term is skipped when a.z == 0."""
    half_r_cos, half_r_sin, u0 = h
    d = np.multiply(half_r_cos, np.float32(2.0 * a.x))
    term = np.multiply(half_r_sin, np.float32(2.0 * a.y))
    np.add(d, term, out=d)
    if a.z != 0.0:
        half_z = np.subtract(0.5, u0, out=term, casting="same_kind")
        np.add(d, np.multiply(half_z, np.float32(2.0 * a.z), out=term), out=d)
    return d


def _float32_half(d_exponent: float, up: bool) -> np.float32:
    """d/2 rounded up or down to a float32."""
    exact = 0.5 * d_exponent
    half = np.float32(exact)
    if float(half) < exact if up else float(half) > exact:
        half = np.nextafter(half, np.float32(np.inf if up else 0.0))
    return half


def _station_tag_bounds(h: tuple[np.ndarray, np.ndarray, np.ndarray], a: UnitVector3,
                        t_row: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Float32 bounds (lo, hi) on the tags that the kernel makes for one
    station, in fresh arrays, from ``h`` of ``_screen_direction``, its own
    setting ``a`` and its own tag uniforms ``t_row``, which are left as they
    are; so they depend on its own setting and its own copy of s only.
    Below, u32 = 2^-24 is float32's unit roundoff.

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
      otherwise.  Three roundings (u, the factor, the product) and the
      rounding of 1 -+ M to float32 add at most 4 u32, so M exceeds the
      relative error of all the steps, and lo <= t <= hi.  Beyond M = 1/16
      (d above about 2^20) the relative errors are no longer small, and the
      bounds are 0 and 1, which hold for every tag.
    * Underflow.  For d = 1, 2, 3, 1 - x is 0 or at least 2^-24 and u is 0
      or at least 2^-53, so every nonzero bound exceeds 2^-90.  For other d,
      T may fall below float32's smallest normal, 2^-126, where only an
      absolute error below 2^-126 holds; the cut's slack covers it
      (``_SCREEN_SLACK``).
    """
    d_exponent = params.d_exponent
    m = 2.0 ** -21 if d_exponent in (1.0, 2.0, 3.0) else (32.0 + d_exponent) * 2.0 ** -24
    if m > 2.0 ** -4:
        return np.zeros(len(t_row), np.float32), np.ones(len(t_row), np.float32)
    # |d~| + eps and |d~| - eps, then 1 - their squares
    d = _screen_overlap(h, a)
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


# Absolute slack on the screen's limit: it covers the 2^-52 by which a
# same-bin pair's tags may differ beyond tau, and the absolute error, below
# 2^-126, of float32 tag bounds that fall below float32's smallest normal
# (_station_tag_bounds).
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


# Half-width, in turns of phi, of the band about each half-turn boundary
# within which the outcome-only count leaves a block to the exact overlaps
# (proof in _block_counts).
_ARC_MARGIN = 2.0 ** -30


def _half_turn(a: UnitVector3) -> float:
    """The start l, in turns of phi, of the half-turn (l, l + 1/2) mod 1 on
    which an in-plane setting ``a`` has a.s > 0: its azimuth less a quarter
    turn, in [-3/4, 1/4]."""
    return math.atan2(a.y, a.x) / (2.0 * math.pi) - 0.25


def _outcome_counts(blocks: Iterable[np.ndarray], a1: UnitVector3,
                    a2: UnitVector3) -> tuple[int, int, int]:
    """``_block_counts`` when the cut keeps every pair: only the outcomes
    count, and they are settled from rows 0 and 1 of each block (z and
    phi)."""
    # (whole turns, fraction) of the edges b -+ margin about each boundary b
    # of the arc (s, e) between the two starts, taken the short way, and of
    # its antipode, on which the outcomes agree
    edges = []
    if a1.z == 0.0 and a2.z == 0.0:
        s, e = sorted((_half_turn(a1), _half_turn(a2)))
        if e - s > 0.5:
            s, e = e, s + 1.0
        for b in (s, e, s + 0.5, e + 0.5):
            for x in (b - _ARC_MARGIN, b + _ARC_MARGIN):
                k = math.floor(x)
                edges.append((k, x - k))
    n = n_agree = 0
    for u in blocks:
        m = u.shape[1]
        n += m
        if edges and u[0].min() > 0.0:
            # the pairs whose phi, unwrapped over the turns, lies below each edge
            below = [k * m + np.count_nonzero(u[1] < x) for k, x in edges]
            if below[0::2] == below[1::2]:  # no pair within the margin
                n_agree += below[2] - below[0] + below[6] - below[4]
                continue
        s = _hidden_direction(u)
        x1, x2 = _outcome(_overlap(s, a1), 1), _outcome(_overlap(s, a2), -1)
        n_agree += np.count_nonzero(x1 == x2)
    return n, n, 2 * int(n_agree) - n


def _screen(u: np.ndarray, a1: UnitVector3, a2: UnitVector3, params: ModelParams,
            limit: np.float32) -> np.ndarray:
    """The indices of the pairs of ``u`` whose tag intervals come within
    ``limit``: every pair that may coincide (proof in ``_block_counts``)."""
    h = _screen_direction(u)
    lo1, hi1 = _station_tag_bounds(h, a1, u[2], params)
    lo2, hi2 = _station_tag_bounds(h, a2, u[3], params)
    keep = np.subtract(lo1, hi2, out=lo1) <= limit
    near = np.subtract(lo2, hi1, out=lo2) <= limit
    return np.flatnonzero(np.logical_and(keep, near, out=keep))


def _block_counts(
    blocks: Iterable[np.ndarray], a1: UnitVector3, a2: UnitVector3, params: ModelParams
) -> tuple[int, int, int]:
    """(events, coincidences, sum of x1*x2 over coincidences) of the events
    of the uniform ``blocks``, each (4, n), or (2, n) when the cut keeps
    every pair; equal to ``_counts_from_batch`` of the kernel's batch of all
    of them.  A block may be overwritten once the next one is asked for.

    When the cut keeps every pair (tau = 1 or W = 1; ``_screen_limit`` is
    None), only rows 0 and 1 are read.  Every pair is coincident: tags are
    fl(u T) with u < 1 and T <= 1, so they lie in [0, 1), fl(|t1 - t2|) <=
    1 <= W and floor(t / 1) = 0.  A block's counts are then (n, n, 2 agree
    - n), and whether a pair's outcomes agree depends on the signs of its
    two overlaps alone.

    With both settings in-plane (a.z = 0) the signs are read off the phi
    uniform u1.  Write a = rho (cos psi, sin psi, 0), rho within 1e-12 of 1
    (``UnitVector3``), and theta = 2 pi u1.  The exact a.s is r rho cos(theta
    - psi), positive on the half-turn (l, l + 1/2) mod 1 of u1 with l = psi /
    2 pi - 1/4 (``_half_turn``, a function of one setting).  The kernel's d
    = fl(fl(fl(r c) a.x) + fl(fl(r s) a.y)) takes c and s as numpy's cos and
    sin of fl(fl(2 pi) u1), which is within 2^-50 of theta; with delta the
    error of float64 cos and sin, pinned below 2^-40 by a test, c and s are
    within delta + 2^-50 of cos theta and sin theta.  |a.x| + |a.y| <=
    sqrt(2) rho, and the two products per term round by a relative 2^-53
    each, terms whose magnitudes sum to about r rho, so d has the sign of
    r (rho cos(theta - psi) + e) with |e| < sqrt(2) rho (delta + 2^-50) +
    rho 2^-51.9 < rho 2^-39; the last sum's rounding keeps its sign, and
    underflow adds at most 2^-1074 to a term.  If u0 != 0, z = 1 - 2 u0 is
    an exact multiple of 2^-52 with |z| <= 1 - 2^-52, so 1 - fl(z^2) >=
    2^-51 and r > 2^-26.  Then d has the sign of cos(theta - psi), and d !=
    0, wherever |cos(theta - psi)| > 2^-38; that holds where u1 is at least
    2^-30 - 2^-50 turns from both ends of the half-turn, since there |cos|
    >= sin(2 pi (2^-30 - 2^-50)) > 5.8e-9.

    There station 1 gives +1 exactly on its half-turn H1, and station 2,
    which measures -s, exactly off its own, H2.  So the outcomes agree on the
    symmetric difference of H1 and H2: the arc (s, e) between the two starts,
    taken the short way, and its antipode (s + 1/2, e + 1/2).  The edges b
    -+ 2^-30 about their four ends b are computed once per chunk, within
    2^-50 of their exact values (atan2, the division and the additions each
    round by at most 2^-52 in turns), and cost one count_nonzero(u1 < x) per
    block each.  A block with no u0 = 0 and no u1 between the two edges
    about any end is counted from the edges alone: each u1 is then at least
    2^-30 - 2^-50 from every exact end, so it lies on the same side of each
    edge as of the end, and its outcomes are as above.  Any other block,
    about 1.2e-4 of the blocks of 2^14 pairs, gets the kernel's exact
    overlaps (``model._overlap`` of ``model._hidden_direction``) from its z
    and phi, as does every block when a setting has a.z != 0; at u0 = 0, r =
    0 and the tie-break (``model._outcome``) gives both stations +1.

    When the cut can reject a pair, a screen keeps only the pairs whose
    float32 tag intervals (``_station_tag_bounds``) come within the limit, and
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
        return _outcome_counts(blocks, a1, a2)
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
                batch = _events_from_uniforms(kept, a1, a2, params)
                parts.append(_counts_from_batch(batch, params))
                filled = 0
    if filled:
        batch = _events_from_uniforms(kept[:, :filled], a1, a2, params)
        parts.append(_counts_from_batch(batch, params))
    return n, sum(p[1] for p in parts), sum(p[2] for p in parts)


# events per block: a float32 row of the screen is 64 KiB, below glibc's 128 KiB
# mmap threshold, so the screen's fresh arrays come from the heap; unlike
# runner.CHUNK_SIZE it changes no result
BLOCK_SIZE = 1 << 14


def chunk_counts(task: tuple) -> tuple[int, int, int]:
    """The counts of one chunk task ``(seed, stream, start, size, a1, a2,
    params)``, generated in blocks of up to BLOCK_SIZE events; equal to
    those of ``generate_batch`` on the whole chunk.  Only the uniforms that
    the counts need are drawn, into one buffer that every block reuses: a
    float64 row of a block is 128 KiB, glibc's default mmap threshold, above
    which a fresh array may be a new mapping whose pages fault in again."""
    seed, stream, start, size, a1, a2, params = task
    # z and phi alone when the cut keeps every pair, else the two tags as well
    rows = 2 if _screen_limit(params) is None else 4
    streams = batch_streams(seed, start, size, stream=stream, rows=rows)
    buffer = np.empty((rows, min(BLOCK_SIZE, size)))

    def blocks():
        for offset in range(0, size, BLOCK_SIZE):
            u = buffer[:, :min(BLOCK_SIZE, size - offset)]
            for row, rng in zip(u, streams):
                rng.random(out=row)
            yield u

    return _block_counts(blocks(), a1, a2, params)


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

    With lo = min(T1, T2), hi = max(T1, T2) and k = floor(lo / tau), the k
    bins below k tau are full at both stations and bin k holds the rest of
    lo: P = (k tau^2 + (lo - k tau) min(tau, hi - k tau)) / (lo hi).  Equals
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
    lo, hi = min(T1, T2), max(T1, T2)
    if not math.isfinite(lo / tau):
        # the k full bins hold all of lo but a relative tau / lo < 2^-1000
        return tau / hi
    k = math.floor(lo / tau)
    # lo - k tau lies in [0, tau) but for the rounding of lo / tau
    rest = min(max(lo - k * tau, 0.0), tau)
    return (k * tau * tau + rest * min(tau, hi - k * tau)) / (lo * hi)
