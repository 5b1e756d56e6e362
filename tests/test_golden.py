"""Golden regression: small seeded runs pinned to their manifest digests and
per-pair integer counts.

The values were recorded from the whole-chunk kernel, before the runner
generated chunks in blocks and screened them; the two runs without a cut
(``sweep_same_bin_tau_1_d2`` and ``no_cut_two_chunks``) were recorded from
the full blocked kernel, before the runner settled their outcomes from the
overlap signs alone.  Any change to the sampled
stream, the kernel's arithmetic or the coincidence cut shows up here as a
changed count or digest.  The event counts are deliberately not multiples
of the block size, of the chunk size or of 4.
"""

import pytest

from eprbsim import (
    CoincidenceMode,
    ExperimentConfig,
    ModelParams,
    UnitVector3,
    run_bound_audit,
    run_chsh_experiment,
    run_correlation_sweep,
)
from eprbsim.runner import CHUNK_SIZE, simulate_plan

CONTINUOUS = CoincidenceMode.CONTINUOUS
ALPHAS = (0.0, 45.0, 90.0, 180.0)
OFF_PLANE = UnitVector3(0.48, 0.6, 0.64)


def _counts(stats) -> tuple[int, int, int]:
    return stats.n_total, stats.n_coincident, stats.sum_xy


def _sweep(**overrides):
    config = ExperimentConfig(alpha_grid_deg=ALPHAS, seed=7, **overrides)
    result = run_correlation_sweep(config)
    return result.manifest.digest(), [_counts(r.stats) for r in result.rows]


def _chsh(**overrides):
    result = run_chsh_experiment(ExperimentConfig(seed=8, **overrides))
    return result.manifest.digest(), [_counts(s) for s in result.pair_stats.values()]


def _audit(**overrides):
    config = ExperimentConfig(seed=9, audit_alpha_deg=(0.0, 30.0, 90.0, 150.0),
                              audit_tau=(1e-2, 1e-3), **overrides)
    result = run_bound_audit(config)
    # an audit row keeps the rate, not the counts; n_coincident is exact
    n = config.n_events
    return result.manifest.digest(), [(n, round(r.simulated_gamma * n)) for r in result.reports]


def _off_plane():
    """Pairs with an off-plane setting (a.z != 0) over two chunks, the
    second one 4,321 events long."""
    a1 = UnitVector3.from_angle_deg(20.0)
    plan = [
        (a1, OFF_PLANE, ModelParams(tau=1e-2, window=1e-2), 0),
        (OFF_PLANE, a1, ModelParams(window=1e-3, coincidence_mode=CONTINUOUS), 1),
        (OFF_PLANE, OFF_PLANE, ModelParams(tau=2.5e-4, d_exponent=0.7), 2),
    ]
    return None, [_counts(s) for s in simulate_plan(plan, CHUNK_SIZE + 4_321, seed=10)]


def _no_cut_two_chunks():
    """Continuous W = 1, where the cut keeps every pair, over two chunks:
    an off-plane setting, equal settings and antipodal settings."""
    a1 = UnitVector3.from_angle_deg(20.0)
    params = ModelParams(window=1.0, coincidence_mode=CONTINUOUS)
    plan = [
        (a1, OFF_PLANE, params, 0),
        (OFF_PLANE, OFF_PLANE, params, 1),
        (OFF_PLANE, -OFF_PLANE, params, 2),
    ]
    return None, [_counts(s) for s in simulate_plan(plan, CHUNK_SIZE + 4_321, seed=11)]


RUNS = {
    "chsh_same_bin_tau_2.5e-4": lambda: _chsh(n_events=CHUNK_SIZE + 38_529),
    "sweep_same_bin_tau_1e-2_d1": lambda: _sweep(
        tau=1e-2, window=1e-2, d_exponent=1.0, n_events=200_001),
    "sweep_same_bin_tau_1e-300": lambda: _sweep(
        tau=1e-300, window=1e-300, n_events=12_345),
    "sweep_continuous_w_1e-3_d0.7": lambda: _sweep(
        window=1e-3, d_exponent=0.7, coincidence_mode=CONTINUOUS, n_events=49_153),
    "sweep_continuous_w_1": lambda: _sweep(
        window=1.0, coincidence_mode=CONTINUOUS, n_events=12_345),
    "sweep_same_bin_tau_1_d2": lambda: _sweep(
        tau=1.0, window=1.0, d_exponent=2.0, n_events=40_003),
    "bounds_audit": lambda: _audit(n_events=20_001),
    "off_plane_two_chunks": _off_plane,
    "no_cut_two_chunks": _no_cut_two_chunks,
}

# name: (manifest digest, per-pair counts)
GOLDEN = {
    "bounds_audit": (
        "684b916cca43e95a0c85e0da69ab86bbbc80c4983a990a2f334f1dcc0358e417",
        [
            (20001, 1354), (20001, 521), (20001, 292), (20001, 511), (20001, 278), (20001, 55),
            (20001, 24), (20001, 44),
        ],
    ),
    "chsh_same_bin_tau_2.5e-4": (
        "4fd795905be3be4975669e0c3474800f7600a7e1bfd3e0e141b7e58ff3e68ad0",
        [(562817, 258, -190), (562817, 249, 185), (562817, 252, -188), (562817, 248, -160)],
    ),
    "no_cut_two_chunks": (
        None,
        [(528609, 528609, -240379), (528609, 528609, -528609), (528609, 528609, 528609)],
    ),
    "off_plane_two_chunks": (
        None,
        [(528609, 8994, -5960), (528609, 1719, -1107), (528609, 180, -180)],
    ),
    "sweep_continuous_w_1": (
        "0c3ef0115927317d3352499f571f25da7b57779b5425b75f2ee913156ee2adc7",
        [
            (12345, 12345, -12345), (12345, 12345, -6207), (12345, 12345, -163),
            (12345, 12345, 12345),
        ],
    ),
    "sweep_continuous_w_1e-3_d0.7": (
        "714117bb5cd50a61f20ee5acc5d1e9b59ebcfdcd8a14cdbc3bf6686e6153d3c5",
        [(49153, 138, -138), (49153, 107, -59), (49153, 105, -1), (49153, 116, 116)],
    ),
    "sweep_same_bin_tau_1e-2_d1": (
        "3cb1b573391f1f44b60c822d409a88d5afb454d68a51b54de635bad32c25ba60",
        [(200001, 3117, -3117), (200001, 2347, -1291), (200001, 2204, -26), (200001, 3174, 3174)],
    ),
    "sweep_same_bin_tau_1_d2": (
        "84ab2acb08e6af87415dde7dbb76f52eb55dce7baca8b91ffee13767314f62a7",
        [
            (40003, 40003, -40003), (40003, 40003, -20281), (40003, 40003, -237),
            (40003, 40003, 40003),
        ],
    ),
    "sweep_same_bin_tau_1e-300": (
        "dfca4a296066d6ef765a3127f49b541212d7d04841439f4dca59ad9a2a873b04",
        [(12345, 0, 0), (12345, 0, 0), (12345, 0, 0), (12345, 0, 0)],
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_run(name):
    digest, counts = RUNS[name]()
    want_digest, want_counts = GOLDEN[name]
    assert counts == want_counts
    assert digest == want_digest
