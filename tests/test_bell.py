"""CHSH combination, corrected bound, threshold, and verdicts."""

import math

import numpy as np
import pytest

from eprbsim.bell import CorrelationQuartet, chsh_lhs, gamma_threshold, modified_bound, verdict

TWO_SQRT_TWO = 2.8284271247461903
GAMMA_0 = 0.8786796564403576


def cosine_quartet(gamma: float) -> CorrelationQuartet:
    """Conditional correlations -cos(angle) at the standard settings
    a=0, b=90, c=45, d=135 degrees."""
    e = math.cos(math.pi / 4)
    return CorrelationQuartet(
        e_ac=-e, e_ad=e, e_bc=-e, e_bd=-e,
        gamma_ac=gamma, gamma_ad=gamma, gamma_bc=gamma, gamma_bd=gamma,
    )


class TestChshLhs:
    def test_standard_angles_reach_quantum_maximum(self):
        assert chsh_lhs(cosine_quartet(0.5)) == pytest.approx(TWO_SQRT_TWO, abs=1e-12)

    def test_zero_correlations(self):
        q = CorrelationQuartet(0, 0, 0, 0, 1, 1, 1, 1)
        assert chsh_lhs(q) == 0.0

    def test_algebraic_maximum(self):
        q = CorrelationQuartet(-1, 1, -1, -1, 1, 1, 1, 1)
        assert chsh_lhs(q) == 4.0

    def test_invariant_under_global_negation(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            e = rng.uniform(-1, 1, size=4)
            q = CorrelationQuartet(*e, 1, 1, 1, 1)
            neg = CorrelationQuartet(*(-e), 1, 1, 1, 1)
            assert chsh_lhs(q) == pytest.approx(chsh_lhs(neg), abs=1e-15)


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
        report = verdict(cosine_quartet(0.02))
        assert report.violates_chsh
        assert report.modified_bound == pytest.approx(296.0, abs=1e-9)
        assert not report.violates_modified

    def test_large_gamma_violates_corrected_bound(self):
        report = verdict(cosine_quartet(0.9))
        assert report.violates_modified

    def test_zero_correlations_violate_nothing(self):
        q = CorrelationQuartet(0, 0, 0, 0, 0.4, 0.4, 0.4, 0.4)
        report = verdict(q)
        assert not report.violates_chsh
        assert not report.violates_modified

    def test_empty_ensemble_rejected(self):
        q = CorrelationQuartet(0, 0, 0, 0, 0.4, 0.0, 0.4, 0.4)
        with pytest.raises(ValueError, match="empty post-selected ensemble"):
            verdict(q)

    def test_uses_minimum_gamma(self):
        q = CorrelationQuartet(
            -0.7, 0.7, -0.7, -0.7,
            gamma_ac=0.9, gamma_ad=0.5, gamma_bc=0.8, gamma_bd=0.7,
        )
        report = verdict(q)
        assert report.gamma_min == 0.5
        assert report.modified_bound == pytest.approx(8.0, abs=1e-12)
        assert report.gammas == (0.9, 0.5, 0.8, 0.7)

    def test_stderr_combines_in_quadrature(self):
        q = CorrelationQuartet(
            -0.7, 0.7, -0.7, -0.7, 0.5, 0.5, 0.5, 0.5,
            stderr_e_ac=0.01, stderr_e_ad=0.02, stderr_e_bc=0.02, stderr_e_bd=0.04,
        )
        report = verdict(q)
        assert report.chsh_stderr == pytest.approx(math.sqrt(0.0025), abs=1e-15)

    def test_threshold_field_matches_lhs(self):
        report = verdict(cosine_quartet(0.3))
        assert report.gamma_threshold_for_lhs == pytest.approx(
            6.0 / (report.chsh_lhs + 4.0), abs=1e-15
        )


class TestQuartetValidation:
    def test_rejects_out_of_range_correlation(self):
        with pytest.raises(ValueError):
            CorrelationQuartet(1.2, 0, 0, 0, 1, 1, 1, 1)

    def test_rejects_out_of_range_gamma(self):
        with pytest.raises(ValueError):
            CorrelationQuartet(0, 0, 0, 0, 1.5, 1, 1, 1)
