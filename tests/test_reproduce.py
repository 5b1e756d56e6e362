"""The seven reproduction checks, run in-process on small runs.

``reproduce-paper`` runs them at the default 10 M events per pair; here
each simulated check runs at 2^18 events (check 7 keeps its own 1 M), so
the whole battery takes about a second.  Every result is pinned whole:
number, name, verdict and the detail line with its numbers.  No detail
holds a wall time (check 1 says only whether its sweep met the 300 s
target), so every run of the same code gives the same results.  The
manifests each check returns are pinned by run label and digest; they are
what ``reproduce-paper --out`` writes.
"""

import functools
from dataclasses import replace

import pytest

from eprbsim import ExperimentConfig
from eprbsim.reproduce import ALL_CHECKS, RUN_LABELS, CheckResult, check_cosine_recovery

CONFIG = ExperimentConfig(n_events=2**18, workers=1)

EXPECTED = [
    CheckResult(
        1, "cosine recovery at tau = W -> 0", False,
        "max|E+cos a|=0.2013 (tol 0.02); halved-tau max 0.0847 <= 0.2013+0.1682; "
        "sweep under 300s: True",
    ),
    CheckResult(
        2, "triangle law without post-selection", True,
        "max|E+(1-2a/pi)|=0.0009 (tol 0.01); gamma=1 everywhere: True",
    ),
    CheckResult(
        3, "strong correlations, no corrected-inequality violation", True,
        "CHSH > 2.6 with gamma <= 0.1, corrected bound >= 56 never violated; "
        "seed+0: lhs=2.687 max gamma=5.00e-04; seed+1: lhs=2.624 max gamma=4.65e-04; "
        "seed+2: lhs=2.709 max gamma=4.96e-04; seed+3: lhs=2.802 max gamma=4.84e-04; "
        "seed+4: lhs=2.684 max gamma=5.34e-04",
    ),
    CheckResult(
        4, "threshold gamma_0 = 3 - 3/sqrt(2) exactness", True,
        "|gamma_threshold(2sqrt2)-g0|=1.11e-16, |bound(g0)-2sqrt2|=1.33e-15 (tol 1e-12)",
    ),
    CheckResult(
        5, "closed forms vs quadrature", False,
        "alpha=30: quad/cot-form-1=7.180e-02; alpha=45: quad/cot-form-1=1.716e-01; "
        "alpha=60: quad/cot-form-1=3.333e-01; alpha=90: quad/cot-form-1=1.000e+00; "
        "alpha=135: quad/cot-form-1=5.828e+00",
    ),
    CheckResult(
        6, "simulated rates vs analytic bounds", False,
        "alpha=150 tau=0.01: gamma-4se=2.4314e-02 > bound=2.1436e-02",
    ),
    CheckResult(
        7, "bit-identical results for 1 vs 8 workers", True,
        "1-worker digest a845eb96bab8 == 8-worker digest a845eb96bab8: True",
    ),
]


# the digest of each manifest a check returns, by run label
EXPECTED_DIGESTS = [
    {"base": "e8a511d4943be24b328f076921f6a07b0e187f908c3a554095833311a60280c2",
     "half": "a2c5be92054eb55632c75237d0d20c5e061da5c47d125abf88106970724086b7"},
    {"triangle": "fc21b5ba5141b58e25e18695b9f1d35b1361f40fa7dfe148d9384a3ec5836ff2"},
    {"seed0": "762569bd040525bdbf21df0a9fa8e2ba98dfcda697b8ad52be52ff9c4fb4846e",
     "seed1": "9dc6828446dbd4882c050f2b349308c146545a14219028e78559f79b910cac8c",
     "seed2": "7e10b037d75d0613b2cea10e56f81822d0320eee9589ba139e91d20f7c2bce23",
     "seed3": "49b281ae6e67e80fa83cdacf3cc5319603326a5c2c81354c237df6b3eace0ad0",
     "seed4": "77562dc1f9963f0845401401ccbef3b964907c72acaef61844d045a567e6084b"},
    {},
    {},
    {"audit": "50afc5152fc190c05f60028c8f2c3adf7ca729cd06b42eeb6488a515645c4988"},
    {"workers1": "a845eb96bab8e6d92a726d3cbc42a1875f15c7904758b50bb54730c2f61154a8",
     "workers8": "a845eb96bab8e6d92a726d3cbc42a1875f15c7904758b50bb54730c2f61154a8"},
]

IDS = [f"check_{e.number}" for e in EXPECTED]


@functools.cache
def result_of(check) -> CheckResult:
    """Each check runs once for all the tests below."""
    return check(CONFIG)


@pytest.mark.parametrize("check, expected", zip(ALL_CHECKS, EXPECTED), ids=IDS)
def test_check_result_pinned(check, expected):
    assert result_of(check) == expected


@pytest.mark.parametrize("check, digests", zip(ALL_CHECKS, EXPECTED_DIGESTS), ids=IDS)
def test_manifest_digests_pinned(check, digests):
    result = result_of(check)
    # the labels in run order, as reproduce-paper --out names the files
    assert list(result.manifests) == list(digests)
    assert {label: m.digest() for label, m in result.manifests.items()} == digests
    # equality reads number, name, verdict and detail, never the manifests
    assert result == replace(result, manifests={})
    assert result != replace(result, detail=result.detail + " ")


@pytest.mark.parametrize("check", ALL_CHECKS, ids=IDS)
def test_run_labels_declared(check):
    """``reproduce-paper --out`` checks the files of the declared labels
    before any check runs; each check returns its runs under those labels."""
    result = result_of(check)
    assert tuple(result.manifests) == RUN_LABELS.get(result.number, ())


def test_starved_angle_fails_check_1():
    """At 4096 events some angles of the default sweep keep no coincidence;
    check 1 then fails and names them, and does not raise, so the battery
    runs on to the next check."""
    result = check_cosine_recovery(replace(CONFIG, n_events=4096))
    assert result == CheckResult(
        1, "cosine recovery at tau = W -> 0", False,
        "base sweep: no coincidences at alpha = 60, 90, 105, 150 deg; "
        "half sweep: no coincidences at alpha = 30, 45, 60, 90, 105, 120, 135, 150 deg",
    )
    assert list(result.manifests) == ["base", "half"]
