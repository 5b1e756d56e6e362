"""CHSH combination, corrected bound, threshold, and verdicts."""

import math

import numpy as np
import pytest

from eprbsim.bell import (
    VIOLATION_SIGMAS,
    chsh_lhs,
    exceeds,
    gamma_threshold,
    modified_bound,
    verdict,
)

TWO_SQRT_TWO = 2.8284271247461903
GAMMA_0 = 0.8786796564403576
NO_ERROR = (0.0,) * 4  # standard errors of four exactly known correlations


def cosine_quartet(gamma: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Conditional correlations -cos(angle) at the standard settings
    a=0, b=90, c=45, d=135 degrees, and one coincidence rate for all four
    pairs, both in PAIR_LABELS order."""
    e = math.cos(math.pi / 4)
    return (-e, e, -e, -e), (gamma,) * 4


class TestChshLhs:
    def test_standard_angles_reach_quantum_maximum(self):
        e, _ = cosine_quartet(0.5)
        assert chsh_lhs(e) == pytest.approx(TWO_SQRT_TWO, abs=1e-12)

    def test_zero_correlations(self):
        assert chsh_lhs((0, 0, 0, 0)) == 0.0

    def test_algebraic_maximum(self):
        assert chsh_lhs((-1, 1, -1, -1)) == 4.0

    def test_invariant_under_global_negation(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            e = rng.uniform(-1, 1, size=4)
            assert chsh_lhs(e) == pytest.approx(chsh_lhs(-e), abs=1e-15)


class TestModifiedBound:
    def test_full_coincidence_recovers_chsh(self):
        assert modified_bound(1.0) == 2.0

    def test_arithmetic(self):
        assert modified_bound(0.75) == pytest.approx(4.0, abs=1e-15)

    def test_threshold_gives_quantum_maximum(self):
        assert modified_bound(3.0 - 3.0 / math.sqrt(2.0)) == pytest.approx(
            TWO_SQRT_TWO, abs=1e-12
        )

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError, match="undefined bound"):
            modified_bound(0.0)

    def test_rejects_gamma_above_one(self):
        with pytest.raises(ValueError):
            modified_bound(1.2)

    def test_strictly_decreasing(self):
        gammas = np.linspace(0.01, 1.0, 200)
        values = [modified_bound(g) for g in gammas]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] == 2.0


class TestGammaThreshold:
    def test_quantum_maximum_threshold(self):
        assert gamma_threshold(TWO_SQRT_TWO) == pytest.approx(GAMMA_0, abs=1e-12)

    def test_classical_value_needs_full_coincidence(self):
        assert gamma_threshold(2.0) == 1.0

    def test_arithmetic(self):
        assert gamma_threshold(4.0) == 0.75

    def test_rejects_lhs_at_or_below_minus_four(self):
        with pytest.raises(ValueError):
            gamma_threshold(-4.0)

    def test_roundtrip_with_modified_bound(self):
        for g in np.linspace(0.05, 1.0, 100):
            assert gamma_threshold(modified_bound(g)) == pytest.approx(g, abs=1e-12)


class TestVerdict:
    def test_small_gamma_never_violates_corrected_bound(self):
        report = verdict(*cosine_quartet(0.02), NO_ERROR)
        assert report.violates_chsh
        assert report.modified_bound == pytest.approx(296.0, abs=1e-9)
        assert not report.violates_modified

    def test_large_gamma_violates_corrected_bound(self):
        report = verdict(*cosine_quartet(0.9), NO_ERROR)
        assert report.violates_modified

    def test_zero_correlations_violate_nothing(self):
        report = verdict((0, 0, 0, 0), (0.4, 0.4, 0.4, 0.4), NO_ERROR)
        assert not report.violates_chsh
        assert not report.violates_modified

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="empty post-selected ensemble"):
            verdict((0, 0, 0, 0), (0.4, 0.0, 0.4, 0.4), NO_ERROR)

    def test_uses_minimum_gamma(self):
        report = verdict((-0.7, 0.7, -0.7, -0.7), (0.9, 0.5, 0.8, 0.7), NO_ERROR)
        assert report.gamma_min == 0.5
        assert report.modified_bound == pytest.approx(8.0, abs=1e-12)
        assert report.gammas == (0.9, 0.5, 0.8, 0.7)

    def test_stderr_combines_in_quadrature(self):
        report = verdict((-0.7, 0.7, -0.7, -0.7), (0.5, 0.5, 0.5, 0.5),
                         (0.01, 0.02, 0.02, 0.04))
        assert report.chsh_stderr == pytest.approx(math.sqrt(0.0025), abs=1e-15)

    @pytest.mark.parametrize("sigmas, violated", [(3.0, False), (5.0, True)])
    def test_violation_needs_four_standard_errors(self, sigmas, violated):
        """At gamma = 1 both bounds are 2; a CHSH value 3 standard errors
        above them is no violation, one 5 standard errors above is."""
        stderr = 0.02  # four pairs at 0.01 each, in quadrature
        e = (2.0 + sigmas * stderr) / 4.0
        report = verdict((e, -e, e, e), (1.0, 1.0, 1.0, 1.0), (0.01, 0.01, 0.01, 0.01))
        assert report.chsh_stderr == pytest.approx(stderr, abs=1e-15)
        assert report.modified_bound == 2.0
        assert report.violates_chsh is violated
        assert report.violates_modified is violated

    def test_threshold_field_matches_lhs(self):
        report = verdict(*cosine_quartet(0.3), NO_ERROR)
        assert report.gamma_threshold_for_lhs == pytest.approx(
            6.0 / (report.chsh_lhs + 4.0), abs=1e-15
        )


class TestVerdictValidation:
    def test_rejects_out_of_range_correlation(self):
        with pytest.raises(ValueError):
            verdict((1.2, 0, 0, 0), (1, 1, 1, 1), NO_ERROR)

    def test_rejects_out_of_range_gamma(self):
        with pytest.raises(ValueError):
            verdict((0, 0, 0, 0), (1.5, 1, 1, 1), NO_ERROR)

    @pytest.mark.parametrize("e, gammas", [((0, 0, 0), (1, 1, 1, 1)), ((0, 0, 0, 0), (1, 1, 1))])
    def test_rejects_other_than_four_pairs(self, e, gammas):
        with pytest.raises(ValueError):
            verdict(e, gammas, NO_ERROR)


def past(x: float, steps: int) -> float:
    """``x`` moved up by ``steps`` units in the last place."""
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


class TestFourSigmaBoundary:
    """An estimate exactly VIOLATION_SIGMAS standard errors above a bound is
    no violation; the smallest step past that point that survives rounding
    is one.  Each boundary case is exact in binary floating point."""

    def test_exceeds_at_and_past_the_boundary(self):
        assert VIOLATION_SIGMAS == 4.0
        assert not exceeds(3.0, 0.25, 2.0)
        assert exceeds(past(3.0, 1), 0.25, 2.0)
        assert exceeds(3.0, 0.25, math.nextafter(2.0, -math.inf))
        # without a standard error, a plain comparison
        assert not exceeds(2.0, 0.0, 2.0)
        assert exceeds(past(2.0, 1), 0.0, 2.0)

    def test_sum_loses_one_or_two_ulps_of_e_ac(self):
        """One or two ulps on e_ac are lost when the CHSH sum rounds; three
        reach the next double above 3."""
        for steps in (1, 2):
            assert chsh_lhs((past(0.75, steps), -0.75, 0.75, 0.75)) == 3.0
        assert chsh_lhs((past(0.75, 3), -0.75, 0.75, 0.75)) == past(3.0, 1)

    @pytest.mark.parametrize("steps, gamma, violates_chsh, violates_modified", [
        (0, 1.0, False, False),  # CHSH - 4 sigma = 2 exactly, both bounds 2
        (3, 1.0, True, True),  # CHSH - 4 sigma one ulp above 2
        (3, math.nextafter(1.0, 0.0), True, False),  # corrected bound 2 + 2^-50
    ])
    def test_verdict(self, steps, gamma, violates_chsh, violates_modified):
        """CHSH = 3 and sigma = 0.25 exactly at e = (0.75, -0.75, 0.75, 0.75)
        and sigma_E = 0.125 per pair, then e_ac nudged past the boundary."""
        report = verdict((past(0.75, steps), -0.75, 0.75, 0.75), (gamma,) * 4, (0.125,) * 4)
        assert report.chsh_lhs == (3.0 if steps == 0 else past(3.0, 1))
        assert report.chsh_stderr == 0.25
        assert report.violates_chsh is violates_chsh
        assert report.violates_modified is violates_modified
