"""Configuration, orchestration, manifests, and tabular output."""

import csv
import io
import math

import numpy as np
import pytest

from eprbsim import (
    CoincidenceMode,
    ConfigError,
    EmptyEnsembleError,
    ExperimentConfig,
    RunManifest,
    run_bound_audit,
    run_chsh_experiment,
    run_correlation_sweep,
)
from eprbsim import runner
from eprbsim.bounds import EQUAL_QUAD_REL_TOL
from eprbsim.coincidence import _counts_from_batch
from eprbsim.model import ModelParams, UnitVector3, Workspace, event_stream, generate_batch
from eprbsim.runner import (
    CHUNK_SIZE,
    COLUMNS,
    rows_to_csv,
    rows_to_table,
    simulate_pair_stats,
    simulate_plan,
    table_rows,
)


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        alpha_grid_deg=(0.0, 45.0, 90.0),
        tau=0.01,
        window=0.01,
        n_events=50_000,
        seed=11,
        workers=1,
        audit_alpha_deg=(0.0, 90.0),
        audit_tau=(0.05,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_events": 0},
            {"tau": 0.0},
            {"tau": 1.5},
            {"window": 0.0},
            {"workers": 0},
            {"seed": -1},
            {"d_exponent": -1.0},
            {"settings_deg": (0.0, 90.0, 45.0)},
            {"alpha_grid_deg": ()},
            {"alpha_grid_deg": (0.0, math.inf)},
            {"audit_tau": (0.0,)},
            {"audit_tau": ()},
            {"audit_tau": (1e-320,)},
            {"tau": 1e-320},
            {"d_exponent": math.inf},
            {"audit_alpha_deg": (0.0, 200.0)},
            {"audit_alpha_deg": (-15.0,)},
            {"n_events": 1e5},
            {"seed": 1.5},
            {"workers": True},
            {"tau": "0.01"},
            {"settings_deg": 5},
            {"alpha_grid_deg": ("a",)},
            {"coincidence_mode": "continuous"},
        ],
    )
    def test_rejects_invalid(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    @pytest.mark.parametrize(
        "data",
        [
            {"alpha_grid_deg": ["a"]},
            {"alpha_grid_deg": "45"},
            {"audit_tau": [10**400]},
            {"coincidence_mode": 3},
        ],
    )
    def test_from_dict_rejects_bad_types(self, data):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)

    def test_to_dict_keys_and_values(self):
        assert ExperimentConfig().to_dict() == {
            "settings_deg": [0.0, 90.0, 45.0, 135.0],
            "alpha_grid_deg": [float(a) for a in range(0, 181, 15)],
            "tau": 0.00025,
            "window": 0.00025,
            "d_exponent": 3.0,
            "coincidence_mode": "same-bin",
            "n_events": 10_000_000,
            "seed": 20060913,
            "workers": 1,
            "audit_alpha_deg": [0.0, 30.0, 90.0, 150.0],
            "audit_tau": [1e-2, 1e-3],
        }

    def test_model_params_messages_carry_through(self):
        with pytest.raises(ConfigError, match=r"^window must be in \(0, 1\], got 1.5$"):
            small_config(window=1.5)

    def test_dict_roundtrip(self):
        config = small_config()
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"taus": 0.1})

    def test_from_dict_parses_mode_string(self):
        config = ExperimentConfig.from_dict({"coincidence_mode": "continuous"})
        assert config.coincidence_mode is CoincidenceMode.CONTINUOUS


class TestCorrelationSweep:
    def test_equal_settings_row_is_exact(self):
        result = run_correlation_sweep(small_config())
        row = result.rows[0]
        assert row.alpha_deg == 0.0
        assert row.stats.e_conditional == -1.0
        assert row.reference == -1.0
        assert not row.flagged

    def test_reference_column_is_minus_cosine(self):
        result = run_correlation_sweep(small_config())
        for row in result.rows:
            assert row.reference == pytest.approx(
                -math.cos(math.radians(row.alpha_deg)), abs=1e-15
            )

    def test_zero_coincidence_row_flagged_not_fatal(self):
        config = small_config(
            tau=1e-6, window=1e-6, n_events=100_000, alpha_grid_deg=(90.0, 0.0)
        )
        result = run_correlation_sweep(config)
        starved = result.rows[0]
        assert starved.stats.n_coincident == 0
        assert starved.flagged
        assert starved.stats.e_conditional is None
        # the run continued past the starved angle
        assert result.rows[1].stats.e_conditional == -1.0

    def test_manifest_rows_mirror_stats(self):
        result = run_correlation_sweep(small_config())
        rows = result.manifest.results["rows"]
        assert len(rows) == 3
        assert rows[0]["e_conditional"] == -1.0
        assert {"gamma_hat", "stderr_gamma", "stderr_e", "flagged"} <= rows[0].keys()


class TestChshExperiment:
    def test_same_seed_reproduces_bit_identically(self):
        config = small_config(n_events=100_000)
        r1 = run_chsh_experiment(config)
        r2 = run_chsh_experiment(config)
        assert r1.manifest.reproducible_json() == r2.manifest.reproducible_json()
        assert r1.manifest.digest() == r2.manifest.digest()

    def test_worker_count_never_changes_results(self):
        solo = run_chsh_experiment(small_config(n_events=1_200_000, workers=1))
        pooled = run_chsh_experiment(small_config(n_events=1_200_000, workers=2))
        assert solo.manifest.reproducible_json() == pooled.manifest.reproducible_json()

    def test_empty_ensemble_names_the_pair(self):
        config = small_config(tau=1e-8, window=1e-8, n_events=300)
        with pytest.raises(EmptyEnsembleError, match="pair a[cd]"):
            run_chsh_experiment(config)

    def test_report_fields_consistent(self):
        result = run_chsh_experiment(small_config(n_events=400_000))
        report = result.report
        assert report.gamma_min == min(report.gammas)
        assert report.modified_bound == pytest.approx(6.0 / report.gamma_min - 4.0)
        assert report.violates_chsh == (report.chsh_lhs > 2.0)
        payload = result.manifest.results["report"]
        assert payload["chsh_lhs"] == report.chsh_lhs
        assert payload["violates_modified"] == report.violates_modified


class TestBoundAudit:
    def test_requires_same_bin_mode(self):
        with pytest.raises(ConfigError, match="same-bin"):
            run_bound_audit(small_config(coincidence_mode=CoincidenceMode.CONTINUOUS))

    def test_reports_cover_grid(self):
        config = small_config(n_events=200_000)
        result = run_bound_audit(config)
        assert len(result.reports) == 2  # one tau, two angles
        rows = result.manifest.results["rows"]
        assert {r["alpha_deg"] for r in rows} == {0.0, 90.0}
        for row in rows:
            assert row["satisfied"] is True
            assert row["simulated_gamma"] + 4.0 * row["stderr_gamma"] <= row["closed_form"]
            assert row["quad_rel_tol"] in (1e-6, 1e-8)
            assert row["stderr_gamma"] is not None

    def test_antipodal_row_uses_equal_settings(self):
        result = run_bound_audit(small_config(n_events=200_000, audit_alpha_deg=(0.0, 180.0)))
        equal, antipodal = result.manifest.results["rows"]
        assert antipodal["alpha_deg"] == 180.0
        assert antipodal["closed_form"] == equal["closed_form"]
        assert antipodal["quadrature"] == equal["quadrature"]
        assert antipodal["quad_rel_tol"] == EQUAL_QUAD_REL_TOL
        assert antipodal["satisfied"] is True
        assert (antipodal["simulated_gamma"] + 4.0 * antipodal["stderr_gamma"]
                <= antipodal["closed_form"])


class TestRunPlan:
    """A run is one plan of chunk tasks served by one pool; its per-pair
    statistics must equal those of simulating each pair on its own."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_events", [1_000, CHUNK_SIZE, CHUNK_SIZE + 4_321])
    def test_sweep_equals_separate_pairs(self, n_events, workers):
        config = small_config(alpha_grid_deg=(0.0, 60.0), n_events=n_events, workers=workers)
        params = config.model_params()
        result = run_correlation_sweep(config)
        for i, row in enumerate(result.rows):
            alone = simulate_pair_stats(
                UnitVector3.from_angle_deg(0.0), UnitVector3.from_angle_deg(row.alpha_deg),
                params, n_events, config.seed, stream=i, workers=workers,
            )
            assert row.stats == alone

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chsh_equals_separate_pairs(self, workers):
        config = small_config(n_events=CHUNK_SIZE + 17, workers=workers)
        result = run_chsh_experiment(config)
        for i, label in enumerate(runner.PAIR_LABELS):
            th1, th2 = result.manifest.results["pair_settings_deg"][label]
            alone = simulate_pair_stats(
                UnitVector3.from_angle_deg(th1), UnitVector3.from_angle_deg(th2),
                config.model_params(), config.n_events, config.seed, stream=i, workers=1,
            )
            assert result.pair_stats[label] == alone

    @pytest.mark.parametrize("workers", [1, 2])
    def test_audit_rows_carry_their_own_tau(self, workers):
        config = small_config(
            n_events=100_000, workers=workers, audit_tau=(0.05, 0.01), audit_alpha_deg=(0.0, 90.0)
        )
        reports = run_bound_audit(config).reports
        plan = []
        for tau in config.audit_tau:
            for alpha_deg in config.audit_alpha_deg:
                plan.append((
                    UnitVector3.from_angle_deg(0.0), UnitVector3.from_angle_deg(alpha_deg),
                    ModelParams(tau=tau, window=tau), len(plan),
                ))
        planned = simulate_plan(plan, config.n_events, config.seed, workers)
        assert [s.tau for s in planned] == [0.05, 0.05, 0.01, 0.01]
        for (a1, a2, params, stream), stats, report in zip(plan, planned, reports):
            alone = simulate_pair_stats(a1, a2, params, config.n_events, config.seed, stream=stream)
            assert stats == alone
            assert report.tau == params.tau
            assert report.simulated_gamma == alone.gamma_hat

    def test_one_pool_per_run(self, monkeypatch):
        pools = []

        class CountingPool(runner.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", CountingPool)
        run_correlation_sweep(small_config(n_events=50_000, workers=2))
        assert pools == [2]
        run_chsh_experiment(small_config(n_events=CHUNK_SIZE + 1, workers=2))
        assert pools == [2, 2]

    @pytest.mark.parametrize("mode", list(CoincidenceMode))
    def test_chunk_counts_match_reference_reduction(self, mode):
        params = ModelParams(tau=0.01, window=0.02, coincidence_mode=mode)
        a1, a2 = UnitVector3.from_angle_deg(0.0), UnitVector3.from_angle_deg(40.0)
        workspace = Workspace(30_000)
        for n in (30_000, 1_234):
            batch = generate_batch(event_stream(21, n), a1, a2, params, n, workspace=workspace)
            if mode is CoincidenceMode.CONTINUOUS:
                mask = np.abs(batch.t1 - batch.t2) <= params.window
            else:
                mask = np.floor(batch.t1 / params.tau) == np.floor(batch.t2 / params.tau)
            sum_xy = int((batch.x1[mask].astype(np.int64) * batch.x2[mask]).sum())
            expected = (n, int(np.count_nonzero(mask)), sum_xy)
            assert expected[1] > 0
            assert _counts_from_batch(batch, params, workspace) == expected
            assert _counts_from_batch(batch, params) == expected

    def test_chsh_names_first_empty_pair(self):
        # ac (equal settings) keeps a few coincidences at this tau; ad and bc keep none
        config = small_config(
            settings_deg=(0.0, 90.0, 0.0, 90.0), tau=1e-5, window=1e-5, n_events=20_000
        )
        with pytest.raises(EmptyEnsembleError, match="pair ad "):
            run_chsh_experiment(config)


class TestManifest:
    def test_json_roundtrip_identity(self):
        result = run_correlation_sweep(small_config())
        manifest = result.manifest
        assert RunManifest.from_json(manifest.to_json()) == manifest

    def test_reproducible_json_excludes_workers(self):
        config1 = small_config(workers=1)
        config2 = small_config(workers=2)
        m1 = run_correlation_sweep(config1).manifest
        m2 = run_correlation_sweep(config2).manifest
        assert m1.reproducible_json() == m2.reproducible_json()
        assert m1.config["workers"] != m2.config["workers"]

    def test_digest_is_stable_hex(self):
        manifest = run_correlation_sweep(small_config()).manifest
        digest = manifest.digest()
        assert len(digest) == 64
        assert digest == manifest.digest()


class TestTabularOutput:
    def test_sweep_csv_parses_back(self):
        result = run_correlation_sweep(small_config())
        text = rows_to_csv(table_rows(result.manifest), COLUMNS["sweep"])
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3
        assert rows[0]["alpha_deg"] == "0.0"
        assert rows[0]["e_conditional"] == "-1.0"
        assert float(rows[1]["stderr_gamma"]) > 0.0

    def test_csv_empty_cell_for_undefined_correlation(self):
        config = small_config(tau=1e-7, window=1e-7, n_events=200, alpha_grid_deg=(45.0,))
        result = run_correlation_sweep(config)
        text = rows_to_csv(table_rows(result.manifest), COLUMNS["sweep"])
        row = next(csv.DictReader(io.StringIO(text)))
        assert row["e_conditional"] == ""
        assert row["flagged"] == "true"

    def test_chsh_rows_include_settings(self):
        result = run_chsh_experiment(small_config(n_events=100_000))
        rows = table_rows(result.manifest)
        assert [r["pair"] for r in rows] == ["ac", "ad", "bc", "bd"]
        text = rows_to_csv(rows, COLUMNS["chsh"])
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert parsed[0]["setting_2_deg"] == "45.0"

    def test_bounds_table_renders(self):
        result = run_bound_audit(small_config(n_events=100_000))
        table = rows_to_table(table_rows(result.manifest), COLUMNS["bounds"])
        lines = table.strip().splitlines()
        assert lines[0].split()[:2] == ["alpha_deg", "tau"]
        assert len(lines) == 2 + len(result.reports)
