"""The seven reproduction checks, run in-process on small runs.

``reproduce-paper`` runs them at the default 10 M events per pair; here
each simulated check runs at 2^18 events (check 7 keeps its own 1 M), so
the whole battery takes about a second.  Every result is pinned whole:
number, name, verdict and the detail line with its numbers.  No detail
holds a wall time (check 1 says only whether its sweep met the 300 s
target), so every run of the same code gives the same results.
"""

import pytest

from eprbsim import ExperimentConfig
from eprbsim.reproduce import ALL_CHECKS, CheckResult

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


@pytest.mark.parametrize("check, expected", zip(ALL_CHECKS, EXPECTED),
                         ids=[f"check_{e.number}" for e in EXPECTED])
def test_check_result_pinned(check, expected):
    assert check(CONFIG) == expected
