"""CHSH analysis with and without the coincidence-probability correction.

Post-selection on coincidences makes the analyzed ensemble depend on both
settings, so the plain CHSH bound of 2 no longer applies.  The corrected
bound is ``6 / gamma - 4`` where gamma is the coincidence probability; it
falls back to 2 at gamma = 1 and grows without limit as gamma shrinks.  A
CHSH value of 2*sqrt(2) therefore violates the corrected inequality only
when gamma exceeds ``3 - 3/sqrt(2) ~ 0.8787``.

This module owns the two rules every verdict rests on: the CHSH pair order
``PAIR_LABELS``, in which ``chsh_lhs`` and ``verdict`` take their sequences,
and the 4-sigma test ``exceeds``, which the CHSH verdicts, the bound audit's
``satisfied`` and the reproduction checks all apply.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

__all__ = [
    "PAIR_LABELS",
    "InequalityReport",
    "chsh_lhs",
    "exceeds",
    "modified_bound",
    "gamma_threshold",
    "verdict",
]

# the CHSH setting pairs: settings (a, b) on one side, (c, d) on the other
PAIR_LABELS = ("ac", "ad", "bc", "bd")
CHSH_CLASSICAL_BOUND = 2.0
# a bound counts as violated only when the estimate exceeds it by more than
# this many standard errors, so a violation is never a fluctuation
VIOLATION_SIGMAS = 4.0


def exceeds(estimate: float, stderr: float, bound: float) -> bool:
    """Whether an estimate violates a bound: it exceeds it by more than
    VIOLATION_SIGMAS standard errors; with no standard error, at all."""
    return estimate - VIOLATION_SIGMAS * stderr > bound


@dataclass(frozen=True)
class InequalityReport:
    """Verdicts for the plain and coincidence-corrected CHSH inequalities."""

    chsh_lhs: float
    chsh_stderr: float
    gamma_min: float
    gammas: tuple[float, float, float, float]
    modified_bound: float
    violates_chsh: bool
    violates_modified: bool
    gamma_threshold_for_lhs: float


def chsh_lhs(e: Sequence[float]) -> float:
    """|E(a,c) - E(a,d) + E(b,c) + E(b,d)| of four correlations in
    PAIR_LABELS order."""
    e_ac, e_ad, e_bc, e_bd = e
    return abs(e_ac - e_ad + e_bc + e_bd)


def modified_bound(gamma: float) -> float:
    """Upper bound 6/gamma - 4 on the CHSH combination after post-selection."""
    if gamma <= 0.0:
        raise ValueError("undefined bound: gamma must be > 0")
    if gamma > 1.0:
        raise ValueError(f"gamma is a probability, got {gamma}")
    return 6.0 / gamma - 4.0


def gamma_threshold(target_lhs: float) -> float:
    """The coincidence probability above which a given CHSH value violates
    the corrected inequality: 6 / (target_lhs + 4)."""
    if target_lhs <= -4.0:
        raise ValueError("target_lhs must be > -4")
    return 6.0 / (target_lhs + 4.0)


def verdict(
    e: Sequence[float], gammas: Sequence[float], stderr_e: Sequence[float]
) -> InequalityReport:
    """Evaluate both inequalities on the measured correlations ``e``, their
    coincidence rates ``gammas`` and the correlations' standard errors
    ``stderr_e``, each in PAIR_LABELS order.

    The four pairs generally have different coincidence rates while the
    corrected bound assumes a single gamma; using the smallest rate gives the
    largest (most conservative) bound, so a modified-inequality violation is
    never an artifact of rate heterogeneity.  All four rates are reported.
    A bound is violated when the CHSH value ``exceeds`` it.
    """
    gammas = tuple(gammas)
    for label, v in zip(PAIR_LABELS, e, strict=True):
        if not -1.0 <= v <= 1.0:
            raise ValueError(f"e_{label} must be in [-1, 1], got {v}")
    for label, g in zip(PAIR_LABELS, gammas, strict=True):
        if not 0.0 <= g <= 1.0:
            raise ValueError(f"gamma_{label} must be in [0, 1], got {g}")
    gamma_min = min(gammas)
    if gamma_min <= 0.0:
        raise ValueError("empty post-selected ensemble: some gamma is 0")
    lhs = chsh_lhs(e)
    s_ac, s_ad, s_bc, s_bd = stderr_e
    stderr = math.sqrt(s_ac**2 + s_ad**2 + s_bc**2 + s_bd**2)
    bound = modified_bound(gamma_min)
    return InequalityReport(
        chsh_lhs=lhs,
        chsh_stderr=stderr,
        gamma_min=gamma_min,
        gammas=gammas,
        modified_bound=bound,
        violates_chsh=exceeds(lhs, stderr, CHSH_CLASSICAL_BOUND),
        violates_modified=exceeds(lhs, stderr, bound),
        gamma_threshold_for_lhs=gamma_threshold(lhs),
    )
