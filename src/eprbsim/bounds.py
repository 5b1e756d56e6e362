"""Analytic bounds on the coincidence probability, with quadrature oracles.

For same-bin tagging at resolution tau, the per-pair coincidence
probability (``coincidence.coincidence_probability``) is bounded by
``tau * min(T1,T2) / (T1*T2)`` and by 1.  Averaging over the hidden
direction gives rate bounds as a function of the angle alpha between the
settings:

* unequal settings: the closed form ``8 * tau * cot(alpha/2)``, paired with
  direct quadrature of the sphere-averaged density integral
  ``2*tau * integral dphi / max(sin^2 phi, sin^2(phi - alpha))``;
* equal settings: the saturation-aware closed form
  ``4*pi*(t*sqrt(1-t) + t/(1+sqrt(1-t)))`` with ``t = tau^(2/3)``,
  approximately ``6*pi*tau^(2/3)`` for small tau, paired with quadrature of
  the clamped double integral over the sphere.  Antipodal settings
  (alpha = pi) give T1 = T2 as equal ones do, and are audited the same way.

Both bounds are un-normalized sphere integrals (the equal-settings form is
4*pi, not 1, at tau = 1), which only loosens them as bounds on a probability.
Note the cot closed form agrees with its density integral only to leading
order in alpha: the exact value of the integral is ``16*tau / sin(alpha)``,
i.e. ``8*tau*(cot(alpha/2) + tan(alpha/2))``.  The two are reported side by
side so the discrepancy is visible instead of reconciled away.

Both quadratures are fixed numpy Gauss-Legendre rules, evaluated as array
expressions.  Each integrand is split at its kinks (the branch switches
phi = alpha/2 + k*pi/2, and the edges of the saturated region, at
phi = asin(tau^(1/3)) and along a curve in the polar angle), and each smooth
piece is covered by 16-node cells that halve in width toward the kink, until
the cell next to it is 2^8 times smaller than the distance to the nearest
singularity of the integrand: the poles of 1/sin^2 at small alpha or near pi,
and the square-root edge of the saturated region at small tau.  Against the
exact values, the unequal rule agrees to about 1e-14 relative for alpha
from 1 to 179 degrees, and the equal rule to about 1e-13 for tau from 1
down to 1e-300.  The equal rule's (phi, psi) grid is evaluated in blocks of
whole phi-rows, each row's psi-sum kept and the phi-weights applied once at
the end, so it holds at most one block of temporaries at any tau and its
value does not depend on the block size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bell import exceeds
from .coincidence import CoincidenceStats
from .model import CoincidenceMode, ModelParams

__all__ = [
    "BoundReport",
    "unequal_settings_bound",
    "unequal_settings_quadrature",
    "equal_settings_bound",
    "equal_settings_quadrature",
    "approx_equal_settings",
    "gamma_max",
    "check_simulated_gamma",
]

# quadrature targets, one order tighter than any tolerance asserted on them
UNEQUAL_QUAD_REL_TOL = 1e-8
EQUAL_QUAD_REL_TOL = 1e-6
# Closest an unequal-settings angle may come to 0 or 180 degrees: the
# quadrature's relative error against 16 tau / sin(alpha) is at most 7.5e-9
# from 1e-6 degrees out, but 1.1e-8 at 180 - 1e-7 and 0.63 at 1e-100 degrees
UNEQUAL_QUAD_MIN_DEG = 1e-5

# Gauss-Legendre nodes per cell of the graded rules, and the refinement
# levels added past the length scale of the nearest singularity
_GL_ORDER = 16
_EXTRA_LEVELS = 8
# grid nodes the equal-settings rule evaluates at once, in whole phi-rows, so
# at most one block of temporaries is alive at any tau; a row has 160 nodes
# at tau = 1 and 5,904 at the smallest tau, so no block exceeds this
_MAX_GRID_NODES = 1 << 13


@dataclass(frozen=True)
class BoundReport:
    """One row of the bound audit: analytic values and the simulated rate."""

    alpha: float
    tau: float
    closed_form: float
    quadrature: float
    quad_rel_tol: float
    simulated_gamma: float
    stderr_gamma: float
    satisfied: bool


def unequal_settings_bound(alpha: float, tau: float) -> float:
    """Closed-form rate bound 8 * tau * cot(alpha/2) for settings an angle
    alpha apart.

    Exact only to leading order in alpha (see module docstring); ill-defined
    at alpha = 0 where the equal-settings form applies instead.
    """
    if alpha == 0.0:
        raise ValueError("alpha = 0: use equal_settings_bound")
    if not 0.0 < alpha <= math.pi:
        raise ValueError(f"alpha must be in (0, pi], got {alpha}")
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be > 0 and finite, got {tau}")
    return 8.0 * tau / math.tan(0.5 * alpha)


def _graded_rule(
    kink: float | np.ndarray, far: float | np.ndarray, levels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on the interval between ``kink`` and ``far``,
    refined geometrically toward ``kink``.

    Broadcasts over array endpoints; the nodes of each interval run along
    the last axis.
    """
    x, w = _unit_graded_rule(levels)
    kink = np.asarray(kink, dtype=float)[..., None]
    span = np.asarray(far, dtype=float)[..., None] - kink
    return kink + span * x, np.abs(span) * w


@functools.lru_cache(maxsize=None)
def _unit_graded_rule(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, 1]: one cell [2^-(k+1), 2^-k]
    for each k < levels, plus [0, 2^-levels]."""
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    edges = np.concatenate(([0.0], 0.5 ** np.arange(levels, -1, -1)))
    lo = edges[:-1, None]
    width = np.diff(edges)[:, None]
    return (lo + 0.5 * width * (x + 1.0)).ravel(), (0.5 * width * w).ravel()


def _joined(*rules: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One flat rule from several (nodes, weights) pairs."""
    nodes, weights = zip(*rules)
    return np.concatenate(nodes, axis=None), np.concatenate(weights, axis=None)


def _levels(length: float, scale: float) -> int:
    """Refinement levels that shrink the cell next to a kink, on a piece of
    the given length, to below ``scale`` / 2^_EXTRA_LEVELS."""
    return max(0, math.ceil(math.log2(length / scale))) + _EXTRA_LEVELS


def unequal_settings_quadrature(alpha: float, tau: float) -> float:
    """Direct quadrature of the sphere-averaged coincidence-density integral
    ``2*tau * integral_0^{2pi} dphi / max(sin^2 phi, sin^2(phi - alpha))``.

    The integrand switches branch at phi = alpha/2 + k*pi/2; each smooth
    piece gets its own graded Gauss-Legendre rule.  Diverges as alpha -> 0
    or alpha -> pi, where the two delay scales coincide and the density
    picture breaks down; both endpoints are rejected.
    """
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"alpha must be strictly inside (0, pi), got {alpha}")
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be > 0 and finite, got {tau}")
    two_pi = 2.0 * math.pi
    kinks = sorted((0.5 * alpha + 0.5 * k * math.pi) % two_pi for k in range(4))
    points = np.array([0.0] + [k for k in kinks if 0.0 < k < two_pi] + [two_pi])
    lo, hi = points[:-1], points[1:]
    mid = 0.5 * (lo + hi)
    # each branch 1/sin^2 has its poles alpha/2 and (pi - alpha)/2 beyond
    # the kinks, so both halves of a piece are refined toward their outer end
    levels = _levels(0.25 * math.pi, 0.5 * min(alpha, math.pi - alpha))
    phi, weights = _joined(_graded_rule(lo, mid, levels), _graded_rule(hi, mid, levels))
    density = 1.0 / np.maximum(np.sin(phi) ** 2, np.sin(phi - alpha) ** 2)
    return 2.0 * tau * float(weights @ density)


def equal_settings_bound(tau: float) -> float:
    """Closed-form rate bound for equal settings, where the density must be
    clamped at 1: ``4*pi*(t*sqrt(1-t) + t/(1+sqrt(1-t)))`` with t = tau^(2/3).

    Equals 4*pi at tau = 1 (the full un-normalized sphere) and behaves as
    6*pi*tau^(2/3) for small tau.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    t = tau ** (2.0 / 3.0)
    root = math.sqrt(max(0.0, 1.0 - t))
    return 4.0 * math.pi * (t * root + t / (1.0 + root))


def equal_settings_quadrature(tau: float) -> float:
    """Quadrature of the clamped double integral
    ``int_0^pi int_0^{2pi} min(tau / (1 - cos^2 phi sin^2 th)^{3/2}, 1)
    sin th dth dphi``.

    The integrand saturates at 1 inside the region where the delay scale
    drops below tau; the integration is split along that boundary in both
    variables, with the rules graded toward it.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    half_pi = 0.5 * math.pi
    # with psi = pi/2 - th the integrand is min(tau / base^{3/2}, 1) cos psi,
    # base = sin^2 phi + cos^2 phi sin^2 psi; it depends on |cos phi| only and
    # is even in psi, so one quarter in phi and one half in psi carry it all.
    # The saturated region base <= tau^(2/3) = sin^2 phi_sat is psi <= psi_sat.
    phi_sat = math.asin(tau ** (1.0 / 3.0))
    levels = _levels(half_pi, phi_sat)
    phi, w_phi = _joined(
        _graded_rule(phi_sat, 0.0, _levels(phi_sat, phi_sat)),
        _graded_rule(phi_sat, half_pi, levels),
    )
    rows = max(1, _MAX_GRID_NODES // ((levels + 2) * _GL_ORDER))
    sums = np.empty_like(phi)
    for k in range(0, phi.size, rows):
        p = phi[k : k + rows]
        c = np.cos(p)
        # sin^2 phi_sat - sin^2 phi, as a product that keeps its precision
        gap = np.sin(phi_sat - p) * np.sin(phi_sat + p)
        psi_sat = np.arcsin(np.minimum(1.0, np.sqrt(np.maximum(gap, 0.0)) / c))
        psi_full, w_full = _graded_rule(psi_sat, 0.0, 0)
        psi_free, w_free = _graded_rule(psi_sat, half_pi, levels)
        psi = np.concatenate((psi_full, psi_free), axis=-1)
        w_psi = np.concatenate((w_full, w_free), axis=-1)
        base = (np.sin(p) ** 2)[:, None] + (c[:, None] * np.sin(psi)) ** 2
        delay = base * np.sqrt(base)
        weight = tau / np.maximum(delay, tau)
        sums[k : k + rows] = (w_psi * weight * np.cos(psi)).sum(axis=-1)
    return 8.0 * float(w_phi @ sums)


def approx_equal_settings(tau: float) -> float:
    """Small-tau approximation 6*pi*tau^(2/3) of the equal-settings bound."""
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be > 0 and finite, got {tau}")
    return 6.0 * math.pi * tau ** (2.0 / 3.0)


def gamma_max(alpha: float, params: ModelParams) -> float:
    """The d = 3 rate bound at any cut for settings alpha in (0, pi) apart:
    4 tau / (pi sin alpha) same-bin, 8 W / (pi sin alpha) continuous.  A
    pair coincides with probability at most tau / max(T1, T2), or 2 W /
    max(T1, T2), which integrates over the sphere to 16 tau / sin(alpha),
    the exact ``unequal_settings_quadrature``, or twice that; over 4 pi it
    is the bound.  As the cut goes to 0 the rate tends to it."""
    if params.d_exponent != 3.0:
        raise ValueError(f"the rate bound holds for d = 3 only, got {params.d_exponent}")
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"alpha must be strictly inside (0, pi), got {alpha}")
    width = params.cut if params.coincidence_mode is CoincidenceMode.SAME_BIN else 2.0 * params.cut
    return 4.0 * width / (math.pi * math.sin(alpha))


def check_simulated_gamma(stats: CoincidenceStats, alpha: float, tau: float) -> BoundReport:
    """Compare a simulated coincidence rate against the applicable bound.

    Requires same-bin statistics at resolution ``tau``, whatever their
    window, which same-bin mode does not read; the bounds do not describe
    the continuous-window convention.  At alpha = 0 and alpha = pi the
    equal-settings bound applies, elsewhere the unequal-settings one;
    ``quad_rel_tol`` is the accuracy of the quadrature that goes with it.
    ``satisfied`` is false only when the estimate ``bell.exceeds`` the closed
    form, by more than four standard errors, so a violation is never a
    fluctuation.  The bounds are one-sided: any compliant rate passes,
    equality is not expected.
    """
    if stats.mode is not CoincidenceMode.SAME_BIN:
        raise ValueError(
            "bound check requires same-bin statistics; "
            f"got mode {stats.mode.value!r}"
        )
    if stats.tau != tau:
        raise ValueError(f"bounds at tau = {tau}; statistics were taken at tau = {stats.tau}")
    if not 0.0 <= alpha <= math.pi:
        raise ValueError(f"alpha must be in [0, pi], got {alpha}")
    if alpha == 0.0 or alpha == math.pi:  # at pi, a2 = -a1 gives T1 = T2
        closed = equal_settings_bound(tau)
        quadr = equal_settings_quadrature(tau)
        rel_tol = EQUAL_QUAD_REL_TOL
    else:
        closed = unequal_settings_bound(alpha, tau)
        quadr = unequal_settings_quadrature(alpha, tau)
        rel_tol = UNEQUAL_QUAD_REL_TOL
    return BoundReport(
        alpha=alpha,
        tau=tau,
        closed_form=closed,
        quadrature=quadr,
        quad_rel_tol=rel_tol,
        simulated_gamma=stats.gamma_hat,
        stderr_gamma=stats.stderr_gamma,
        satisfied=not exceeds(stats.gamma_hat, stats.stderr_gamma, closed),
    )
