"""CHSH analysis with and without the coincidence-probability correction.

Post-selection on coincidences makes the analyzed ensemble depend on both
settings, so the plain CHSH bound of 2 no longer applies.  The corrected
bound is ``6 / gamma - 4`` where gamma is the coincidence probability; it
falls back to 2 at gamma = 1 and grows without limit as gamma shrinks.  A
CHSH value of 2*sqrt(2) therefore violates the corrected inequality only
when gamma exceeds ``3 - 3/sqrt(2) ~ 0.8787``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CorrelationQuartet",
    "InequalityReport",
    "chsh_lhs",
    "modified_bound",
    "gamma_threshold",
    "verdict",
]

CHSH_CLASSICAL_BOUND = 2.0
# a bound counts as violated only when the estimate exceeds it by more than
# this many standard errors, so a violation is never a fluctuation
VIOLATION_SIGMAS = 4.0


@dataclass(frozen=True)
class CorrelationQuartet:
    """Conditional correlations and coincidence rates for the four CHSH pairs.

    Pair labels follow the settings (a, b) on one side and (c, d) on the
    other.  Standard errors on the correlations are optional and only feed
    the uncertainty attached to the CHSH combination.
    """

    e_ac: float
    e_ad: float
    e_bc: float
    e_bd: float
    gamma_ac: float
    gamma_ad: float
    gamma_bc: float
    gamma_bd: float
    stderr_e_ac: float = 0.0
    stderr_e_ad: float = 0.0
    stderr_e_bc: float = 0.0
    stderr_e_bd: float = 0.0

    def __post_init__(self) -> None:
        for name in ("e_ac", "e_ad", "e_bc", "e_bd"):
            v = getattr(self, name)
            if not -1.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [-1, 1], got {v}")
        for name in ("gamma_ac", "gamma_ad", "gamma_bc", "gamma_bd"):
            g = getattr(self, name)
            if not 0.0 <= g <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {g}")

    @property
    def gammas(self) -> tuple[float, float, float, float]:
        return (self.gamma_ac, self.gamma_ad, self.gamma_bc, self.gamma_bd)


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


def chsh_lhs(q: CorrelationQuartet) -> float:
    """|E(a,c) - E(a,d) + E(b,c) + E(b,d)| for the quartet."""
    return abs(q.e_ac - q.e_ad + q.e_bc + q.e_bd)


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


def verdict(q: CorrelationQuartet) -> InequalityReport:
    """Evaluate both inequalities on a quartet of measured correlations.

    The four pairs generally have different coincidence rates while the
    corrected bound assumes a single gamma; using the smallest rate gives the
    largest (most conservative) bound, so a modified-inequality violation is
    never an artifact of rate heterogeneity.  All four rates are reported.
    A bound is violated only when the CHSH value exceeds it by more than
    VIOLATION_SIGMAS standard errors; without standard errors, when it
    exceeds it at all.
    """
    if min(q.gammas) <= 0.0:
        raise ValueError("empty post-selected ensemble: some gamma is 0")
    lhs = chsh_lhs(q)
    stderr = math.sqrt(
        q.stderr_e_ac**2 + q.stderr_e_ad**2 + q.stderr_e_bc**2 + q.stderr_e_bd**2
    )
    gamma_min = min(q.gammas)
    bound = modified_bound(gamma_min)
    lower = lhs - VIOLATION_SIGMAS * stderr
    return InequalityReport(
        chsh_lhs=lhs,
        chsh_stderr=stderr,
        gamma_min=gamma_min,
        gammas=q.gammas,
        modified_bound=bound,
        violates_chsh=lower > CHSH_CLASSICAL_BOUND,
        violates_modified=lower > bound,
        gamma_threshold_for_lhs=gamma_threshold(lhs),
    )
