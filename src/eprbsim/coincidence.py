"""Time-window post-selection, chunk counts and coincidence statistics.

"Coincident" has one definition, over one width, ``model.ModelParams.cut``:
continuous mode keeps a pair when ``|t1 - t2| <= W``, and same-bin mode
when both tags land in the same bin of width ``tau``.
``coincidence_mask`` applies the rule to tags, and
``coincidence_probability`` is the exact chance that it keeps a pair whose
tags are uniform on [0, T1) and [0, T2).  In same-bin mode that chance is
at most ``tau * min(T1, T2) / (T1 * T2)``, the density that the analytic
rate bounds assume.

``chunk_counts`` counts one chunk of the runner's plan.  It draws the
chunk's uniforms block by block, screens each block in float32 on tag
estimates with a proven slack, and runs the exact kernel of ``model`` and
the cut on the few pairs that pass, gathered over the blocks of the chunk.
When the cut keeps every pair, only the outcomes count: settings lie in
the plane, so they are settled by where the phi uniform falls against each
station's half-turn, without trigonometry, and the tags are never drawn.
As in the model, the hidden direction is formed once per block
(``_screen_direction``), and each station's tag estimate
(``_station_tag_estimate``) and half-turn (``_half_turn``) come from it, its
own setting and its own tag row only.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import InitVar, dataclass, field

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
    _station_tag,
    batch_streams,
)

__all__ = [
    "CoincidenceStats",
    "coincidence_mask",
    "accumulate",
    "chunk_counts",
    "coincidence_probability",
]


def coincidence_mask(t1: np.ndarray, t2: np.ndarray, params: ModelParams) -> np.ndarray:
    """Boolean mask of coincident pairs for arrays of time tags (the
    continuous window is inclusive at its boundary)."""
    cut = params.cut
    if params.coincidence_mode is CoincidenceMode.CONTINUOUS:
        return np.abs(t1 - t2) <= cut
    return np.floor(t1 / cut) == np.floor(t2 / cut)


def coincidence_probability(T1: np.ndarray | float, T2: np.ndarray | float,
                            mode: CoincidenceMode, cut: float) -> np.ndarray | float:
    """The exact probability that the rule of ``mode`` at width ``cut`` (W
    >= 0, or finite tau > 0) keeps a pair whose tags are independent uniforms
    on [0, T1) and [0, T2), T1 and T2 finite, elementwise over arrays; a
    scale of 0 gives a tag of 0.  With lo = min(T1, T2) and hi = max(T1,
    T2), each form is built from ratios of sides, so nothing underflows on
    the way, and no term taken away is more than half of what it is taken
    from, so nothing cancels: within a few ulps of P, which a test checks
    against exact rational arithmetic.

    Continuous: the band |t1 - t2| <= W of the lo x hi rectangle over its
    area, 1 from W >= hi on.  Where W <= lo and lo + W <= hi it is (W/hi)
    (2 - W/(2 lo)); where lo < W and lo + W <= hi, (lo/2 + W)/hi.  Where
    lo + W > hi, a = hi - W and d = hi - lo cut off the corners: (W/lo)
    ((lo + hi - W)/hi) - (d/lo)(d/hi)/2 for W < lo, 1 - (a/lo)(a/hi)/2
    else.

    Same-bin: the k = floor(lo / tau) bins below the one that holds the
    rest r = lo - k tau of lo are full at both stations, so P = (k tau^2 +
    r min(tau, hi - k tau)) / (lo hi) = (1 - r/lo) tau/hi + (r/lo) min(tau,
    hi - k tau)/hi.  Where lo / tau overflows, r/lo < 2^-1000 is taken as
    0 and P as tau/hi.
    """
    lo, hi = np.minimum(T1, T2), np.maximum(T1, T2)
    if not (np.all((lo >= 0.0) & (hi < math.inf))
            and (0.0 < cut < math.inf or cut >= 0.0 and mode is CoincidenceMode.CONTINUOUS)):
        raise ValueError(f"need T1, T2 >= 0 and finite, W >= 0 and tau > 0 and finite; "
                         f"got {mode.value} width {cut}")
    with np.errstate(all="ignore"):  # each branch is evaluated everywhere
        if mode is CoincidenceMode.CONTINUOUS:
            w, a, d = cut, hi - cut, hi - lo
            p = np.select(
                [w >= hi, (lo + w <= hi) & (w < lo), lo + w <= hi, w < lo],
                [1.0, (w / hi) * (2.0 - w / (2.0 * lo)), (0.5 * lo + w) / hi,
                 (w / lo) * ((lo + hi - w) / hi) - 0.5 * (d / lo) * (d / hi)],
                1.0 - 0.5 * (a / lo) * (a / hi))
        else:
            k = np.floor(lo / cut)
            r = np.where(lo > 0.0, np.clip(lo - k * cut, 0.0, cut) / lo, 1.0)
            rest = np.clip(hi - k * cut, 0.0, cut)
            p = np.where(hi > 0.0, (1.0 - r) * (cut / hi) + r * (rest / hi), 1.0)
    return p[()]


@dataclass(frozen=True)
class CoincidenceStats:
    """The counts of one setting pair, ``CoincidenceStats(n_total,
    n_coincident, sum_xy, params)``, and the post-selected estimators that
    they give: gamma = n_c / n and E = sum_xy / n_c, each with its Wald
    standard error.

    When no pair survives the cut, E and its error are None (undefined),
    never silently zero.  The ``mode``/``window``/``tau`` fields record how
    the cut was made, from ``params``, so that downstream bound checks can
    refuse incompatible statistics.
    """

    n_total: int
    n_coincident: int
    sum_xy: int
    params: InitVar[ModelParams]
    gamma_hat: float = field(init=False)
    stderr_gamma: float = field(init=False)
    e_conditional: float | None = field(init=False)
    stderr_e: float | None = field(init=False)
    mode: CoincidenceMode = field(init=False)
    window: float = field(init=False)
    tau: float = field(init=False)

    def __post_init__(self, params: ModelParams) -> None:
        n, n_c = self.n_total, self.n_coincident
        if n < 1:
            raise ValueError("no events")
        if not 0 <= n_c <= n:
            raise ValueError("need 0 <= n_coincident <= n_total")
        if abs(self.sum_xy) > n_c:
            raise ValueError("|sum_xy| cannot exceed n_coincident")
        gamma = n_c / n
        e = self.sum_xy / n_c if n_c else None
        for name, value in dict(
            gamma_hat=gamma,
            stderr_gamma=math.sqrt(gamma * (1.0 - gamma) / n),
            e_conditional=e,
            stderr_e=None if e is None else math.sqrt((1.0 - e * e) / n_c),
            mode=params.coincidence_mode,
            window=params.window,
            tau=params.tau,
        ).items():
            object.__setattr__(self, name, value)

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


# Margin on the overlap a.S in _station_tag_estimate.  The screen's float32
# overlap, model._overlap of _screen_direction, is within sqrt(2) delta +
# 2^-20 < OVERLAP_EPS / 4 of the kernel's float64 one, where delta, the
# error of float32 cos and sin of float32(phi), is tested below OVERLAP_EPS
# / 10; measured, the overlap error is at most 3.1e-7.
OVERLAP_EPS = 1e-5


def _screen_direction(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The screen's float32 (r cos(phi), r sin(phi)), all of s that
    ``model._overlap`` reads, in fresh arrays, from rows 0 and 1 of ``u`` (z
    and phi), which are left as they are.  Each row is rounded to float32
    once, and the rest runs in float32: r = sqrt(4u (1 - u)) = sqrt(1 - z^2)."""
    r = u[0].astype(np.float32)
    np.multiply(r, 4.0, out=r)
    scratch = np.subtract(1.0, u[0], out=np.empty_like(r), casting="same_kind")
    np.sqrt(np.multiply(r, scratch, out=r), out=r)
    phi = np.multiply(2.0 * np.pi, u[1], out=scratch, casting="same_kind")
    r_cos = np.cos(phi)
    np.multiply(r_cos, r, out=r_cos)
    return r_cos, np.multiply(np.sin(phi, out=phi), r, out=phi)


def _station_tag_estimate(h: tuple[np.ndarray, np.ndarray], a: UnitVector3,
                          t_row: np.ndarray, d_exponent: float) -> np.ndarray:
    """A float32 estimate t~ of the tags that the kernel makes for one
    station, in a fresh array, from ``h`` of ``_screen_direction``, its own
    setting ``a`` and its own tag uniforms ``t_row``, which are left as they
    are; so it depends on its own setting and its own copy of s only.  The
    kernel's tag t lies within ``_tag_slack(d)`` of it.  Below, u32 = 2^-24
    is float32's unit roundoff and p = d/2.

    Soundness, step by step:

    * Overlap.  The kernel's r = sqrt(max(0, 1 - z^2)) is within 2^-27 of
      the exact radius: z = 1 - 2u is exact and only z^2 is rounded.  The
      screen's r comes from float32 4u and 1 - u (1 - u is exact in
      float64), one product and one square root, so it is within 2.5 u32
      relative of the exact r; from float32 z, the error near the poles
      would grow as the error of z over r.  Its cos and sin of float32(phi)
      differ from the kernel's by at most delta, pinned below OVERLAP_EPS /
      10 by a test.  d~ is ``model._overlap`` of that direction: float32
      products with the float32 coefficients float32(a), exactly half of
      float32(2a), and a float32 sum: at most 8 u32, as r|cos(phi) a.x| +
      r|sin(phi) a.y| <= 1.  With |a.x| + |a.y| <= sqrt(2), |d~ - d| <=
      sqrt(2) delta + 2^-20 < eps / 4, eps = OVERLAP_EPS.
    * Base.  The screen's base is b~ = max(fl(1 - fl(d~^2)), 0) and the
      kernel's b = max(fl(1 - fl(d^2)), 0); both lie in [0, 1].  |d| exceeds
      1 by 1e-12 at most, so |d| and |d~| lie below 1 + eps / 4, and |d~^2
      - d^2| < (eps / 4)(2 + eps / 4).
      The two float32 roundings add at most 2.01 u32, the kernel's two at
      most 2^-52, and max(., 0) never widens a gap, so |b~ - b| < dx = eps /
      2 + 4 u32.
    * Drift.  For p >= 1, x^p has slope at most p on [0, 1], so |b~^p -
      b^p| <= p dx; for p < 1, |x^p - y^p| <= |x - y|^p <= dx^p.  Both
      powers lie in [0, 1], so the drift is at most 1 as well.
    * Delay.  T~ is the kernel's delay law, ``model._delay``, run in float32
      on b~ by the kernel's tag step, ``model._station_tag``, which forms
      b~ and t~ as well.  For d = 2 it is b~; for d = 1 and 3 one or two
      correctly rounded steps add at most 2.01 u32 T~ (a test enumerates b~
      in [1/2, 1)).  Other d call ``np.power`` with p rounded to the nearest
      float32 p', within u32 p of p where p is at least float32's smallest
      normal, 2^-126; this moves b~^p by at most |p' - p| max b^q |ln b| <=
      u32 / (e (1 - u32)) < u32 / 2, and ``np.power``'s error adds 16 u32
      (8 ulps are allowed; measured, 1.01).  The kernel's float64 T is
      within 2^-49 of b^p.  So |T~ - T| is below the drift plus 16.5 u32 +
      2^-49, and T~ <= 1 + 16 u32.
    * Tag.  t~ = fl(fl(u) T~) rounds twice, by at most 2.01 u32 in all,
      since fl(u) T~ <= 1 + 16 u32; the kernel's t = fl(u T) once, by at
      most 2^-53; and u < 1 scales |T~ - T|.  So |t~ - t| is below the
      drift plus 19 u32, also where a float32 value falls below 2^-126 and
      a step adds an absolute error of at most 2^-146 to its relative one;
      ``_tag_slack`` adds 20 u32, one u32 to spare, less the rounding of
      its own float64 sum.  A test checks this arithmetic exactly.
    * Cap.  d is capped at 2^128, so that p fits a float32.  There, and
      wherever p is below 2^-126 (dx^p then rounds to 1), the drift is 1,
      and t~ and t both lie in [0, 1 + 16 u32]: every tag is within the
      slack of 1 + 20 u32.
    """
    return _station_tag(_overlap(h, a), t_row, min(d_exponent, 2.0 ** 128))


def _tag_slack(d_exponent: float) -> float:
    """An upper bound on |t~ - t|, the distance between a station's tag
    estimate and the kernel's tag (proof in ``_station_tag_estimate``)."""
    u32 = 2.0 ** -24
    dx = OVERLAP_EPS / 2 + 4 * u32
    p = 0.5 * d_exponent
    return min(p * dx if p >= 1.0 else dx ** p, 1.0) + 20 * u32


def _screen_limit(params: ModelParams) -> np.float32:
    """The largest difference of the tag estimates that a coincident pair
    can have, ``params.cut`` plus twice ``_tag_slack``, rounded up to a
    float64 and then to a float32."""
    # one step up, since the sum rounded to nearest may fall short of it
    bound = math.nextafter(params.cut + 2.0 * _tag_slack(params.d_exponent), math.inf)
    limit = np.float32(bound)
    if float(limit) < bound:
        limit = np.nextafter(limit, np.float32(np.inf))
    return limit


# Half-width, in turns of phi, of the band about each half-turn boundary
# within which the outcome-only count leaves a block to the exact overlaps
# (proof in _outcome_counts).
_ARC_MARGIN = 2.0 ** -30


def _half_turn(a: UnitVector3) -> float:
    """The start l, in turns of phi, of the half-turn (l, l + 1/2) mod 1 on
    which a setting ``a`` has a.s > 0: its azimuth less a quarter turn, in
    [-3/4, 1/4]."""
    return math.atan2(a.y, a.x) / (2.0 * math.pi) - 0.25


def _outcome_counts(blocks: Iterable[np.ndarray], a1: UnitVector3,
                    a2: UnitVector3) -> tuple[int, int, int]:
    """The counts of ``_block_counts`` when the cut keeps every pair (``cut``
    = 1; ``chunk_counts`` picks the path): only the outcomes count, and they
    are settled from rows 0 and 1 of each block (z and phi).

    Every pair is coincident: tags are fl(u T) with u < 1 and T <= 1, so
    they lie in [0, 1), fl(|t1 - t2|) <= 1 <= W and floor(t / 1) = 0.  A
    block's counts are then (n, n, 2 agree - n), and whether a pair's
    outcomes agree depends on the signs of its two overlaps alone.

    Settings lie in the plane, so the signs are read off the phi uniform
    u1.  Write a = rho (cos psi, sin psi), rho within 1e-12 of 1
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
    and phi; at u0 = 0, r = 0 and the tie-break (``model._outcome``) gives
    both stations +1.
    """
    # (whole turns, fraction) of the edges b -+ margin about each boundary b
    # of the arc (s, e) between the two starts, taken the short way, and of
    # its antipode, on which the outcomes agree
    s, e = sorted((_half_turn(a1), _half_turn(a2)))
    if e - s > 0.5:
        s, e = e, s + 1.0
    edges = []
    for b in (s, e, s + 0.5, e + 0.5):
        for x in (b - _ARC_MARGIN, b + _ARC_MARGIN):
            k = math.floor(x)
            edges.append((k, x - k))
    n = n_agree = 0
    for u in blocks:
        m = u.shape[1]
        n += m
        if u[0].min() > 0.0:
            # the pairs whose phi, unwrapped over the turns, lies below each edge
            below = [k * m + np.count_nonzero(u[1] < x) for k, x in edges]
            if below[0::2] == below[1::2]:  # no pair within the margin
                n_agree += below[2] - below[0] + below[6] - below[4]
                continue
        s = _hidden_direction(u)
        x1, x2 = _outcome(_overlap(s, a1), 1), _outcome(_overlap(s, a2), -1)
        n_agree += np.count_nonzero(x1 == x2)
    return n, n, 2 * int(n_agree) - n


def _screen(u: np.ndarray, a1: UnitVector3, a2: UnitVector3, d_exponent: float,
            limit: np.float32) -> np.ndarray:
    """The indices of the pairs of ``u`` whose tag estimates come within
    ``limit``: every pair that may coincide (proof in ``_block_counts``)."""
    h = _screen_direction(u)
    t1 = _station_tag_estimate(h, a1, u[2], d_exponent)
    t2 = _station_tag_estimate(h, a2, u[3], d_exponent)
    return np.flatnonzero(np.abs(np.subtract(t1, t2, out=t1), out=t1) <= limit)


def _block_counts(
    blocks: Iterable[np.ndarray], a1: UnitVector3, a2: UnitVector3, params: ModelParams
) -> tuple[int, int, int]:
    """(events, coincidences, sum of x1*x2 over coincidences) of the events
    of the uniform ``blocks``, each (4, n), at a cut that can reject a pair
    (``chunk_counts`` gives ``cut`` = 1 to ``_outcome_counts``); equal to
    ``_counts_from_batch`` of the kernel's batch of all of them, at any cut.
    A block may be overwritten once the next one is asked for.

    A screen keeps only the pairs whose float32 tag estimates
    (``_station_tag_estimate``) come within the limit (``_screen_limit``,
    once per chunk), and the kernel runs on them alone.  Soundness: a
    same-bin pair has k <= fl(t/tau) < k+1 for both tags, and fl(t/tau) is
    within a relative 2^-53 of t/tau, so |t1 - t2| < tau + 2^-53 (t1 + t2)
    < tau + 2^-52 (this matters for tau below 2^-52); a continuous pair has
    fl(|t1 - t2|) <= W, so |t1 - t2| <= W + 2^-53.  Each estimate lies within S - 2^-53 of its
    tag, for the slack S = ``_tag_slack`` (its spare u32 covers the 2^-53;
    ``_station_tag_estimate``), so |t~1 - t~2| < cut + 2 S.  The limit
    (``_screen_limit``) is at least cut + 2 S exactly: the float64 sum is
    moved one step up, then rounded up to a float32.  Rounding to nearest
    never reverses the order of two inputs, so fl(|t~1 - t~2|) <= the
    float32 limit, and no coincident pair is screened out.  Every
    operation of the kernel is elementwise, so the kept events get the
    outcomes and tags they would get in the whole chunk.

    The kept pairs' uniforms are gathered in one array as wide as the first
    block, which no block may exceed.  The kernel runs on the kept pairs of
    whole blocks, before the next block's would overflow it and at the end:
    once per chunk at small tau, never when no pair is kept.
    """
    limit = _screen_limit(params)
    n = n_c = sum_xy = filled = 0
    for u in blocks:
        if not n:  # the first block
            kept = np.empty((4, u.shape[1]))
        n += u.shape[1]
        index = _screen(u, a1, a2, params.d_exponent, limit)
        if filled + len(index) > kept.shape[1]:
            batch = _events_from_uniforms(kept[:, :filled], a1, a2, params)
            _, c, s = _counts_from_batch(batch, params)
            n_c, sum_xy, filled = n_c + c, sum_xy + s, 0
        kept[:, filled:filled + len(index)] = u[:, index]
        filled += len(index)
    if filled:
        batch = _events_from_uniforms(kept[:, :filled], a1, a2, params)
        _, c, s = _counts_from_batch(batch, params)
        n_c, sum_xy = n_c + c, sum_xy + s
    return n, n_c, sum_xy


# events per block: a float32 row of the screen is 64 KiB, below glibc's 128 KiB
# mmap threshold, so the screen's fresh arrays come from the heap; unlike
# runner.CHUNK_SIZE it changes no result
BLOCK_SIZE = 1 << 14


def chunk_counts(task: tuple) -> tuple[int, int, int]:
    """The counts of one chunk task ``(seed, stream, start, size, a1, a2,
    params)``, generated in blocks of up to BLOCK_SIZE events; equal to
    those of ``generate_batch`` on the whole chunk.  ``params.cut`` picks
    the path once: ``_outcome_counts`` when the cut keeps every pair, else
    ``_block_counts``.  Only the uniforms that the path needs are drawn,
    into one buffer that every block reuses: a float64 row of a block is
    128 KiB, glibc's default mmap threshold, above which a fresh array may
    be a new mapping whose pages fault in again."""
    seed, stream, start, size, a1, a2, params = task
    # z and phi alone when the cut keeps every pair, else the two tags as well
    every_pair = params.cut >= 1.0
    rows = 2 if every_pair else 4
    streams = batch_streams(seed, start, size, stream=stream, rows=rows)
    buffer = np.empty((rows, min(BLOCK_SIZE, size)))

    def blocks():
        for offset in range(0, size, BLOCK_SIZE):
            u = buffer[:, :min(BLOCK_SIZE, size - offset)]
            for row, rng in zip(u, streams):
                rng.random(out=row)
            yield u

    if every_pair:
        return _outcome_counts(blocks(), a1, a2)
    return _block_counts(blocks(), a1, a2, params)


def accumulate(batch: EventBatch, params: ModelParams) -> CoincidenceStats:
    """Apply the window cut to a batch of events and accumulate statistics.

    Raises on an empty batch.  With zero surviving coincidences the
    conditional correlation is flagged undefined rather than reported as a
    number.
    """
    return CoincidenceStats(*_counts_from_batch(batch, params), params)
