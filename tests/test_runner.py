"""Configuration, orchestration, manifests, and tabular output."""

import concurrent.futures
import csv
import io
import math
import sys
from dataclasses import replace

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
from eprbsim import coincidence, runner
from eprbsim.bell import verdict
from eprbsim.bounds import EQUAL_QUAD_REL_TOL, UNEQUAL_QUAD_MIN_DEG
from eprbsim.cli import _render
from eprbsim.coincidence import _counts_from_batch
from eprbsim.model import (
    ModelParams,
    UnitVector3,
    batch_streams,
    event_stream,
    generate_batch,
)
from eprbsim.runner import CHUNK_SIZE, simulate_pair_stats, simulate_plan


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
            {"audit_alpha_deg": ()},
            {"audit_alpha_deg": (30.0, 1e-300)},
            {"audit_alpha_deg": (180.0 - 5e-6,)},
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

    def test_n_events_ceiling(self):
        """2^36 events per pair is the most a run may plan; one more is
        refused."""
        assert small_config(n_events=runner.MAX_EVENTS).n_events == 2 ** 36
        with pytest.raises(ConfigError, match=r"n_events must be in \[1, 2\^36"):
            small_config(n_events=2 ** 36 + 1)

    def test_audit_angles_at_the_quadrature_limits_accepted(self):
        """Exactly 0 and 180, and 1e-5 degrees from either, are audited."""
        angles = (0.0, UNEQUAL_QUAD_MIN_DEG, 180.0 - UNEQUAL_QUAD_MIN_DEG, 180.0)
        assert small_config(audit_alpha_deg=angles).audit_alpha_deg == angles

    def test_model_params_messages_carry_through(self):
        with pytest.raises(ConfigError, match=r"^window must be in \(0, 1\], got 1.5$"):
            small_config(window=1.5)

    def test_dict_roundtrip(self):
        config = small_config()
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"taus": 0.1})

    def test_lists_and_reals_are_stored_as_floats(self):
        """A list of numbers and an int where a float goes are stored as the
        floats the run reads, from the Python API as from a config file."""
        config = ExperimentConfig(alpha_grid_deg=[0, 45], tau=1)
        assert config.alpha_grid_deg == (0.0, 45.0) and config.tau == 1.0
        assert {type(v) for v in (*config.alpha_grid_deg, config.tau)} == {float}
        assert ExperimentConfig.from_dict({"alpha_grid_deg": [0, 45], "tau": 1}) == config

    def test_from_dict_parses_mode_string(self):
        config = ExperimentConfig.from_dict({"coincidence_mode": "continuous"})
        assert config.coincidence_mode is CoincidenceMode.CONTINUOUS


class TestCorrelationSweep:
    def test_equal_settings_row_is_exact(self):
        row = run_correlation_sweep(small_config()).results["rows"][0]
        assert row["alpha_deg"] == 0.0
        assert row["e_conditional"] == -1.0
        assert row["reference_minus_cos"] == -1.0
        assert not row["flagged"]

    def test_reference_column_is_minus_cosine(self):
        for row in run_correlation_sweep(small_config()).results["rows"]:
            assert row["reference_minus_cos"] == pytest.approx(
                -math.cos(math.radians(row["alpha_deg"])), abs=1e-15
            )

    def test_zero_coincidence_row_flagged_not_fatal(self):
        config = small_config(
            tau=1e-6, window=1e-6, n_events=100_000, alpha_grid_deg=(90.0, 0.0)
        )
        starved, equal = run_correlation_sweep(config).results["rows"]
        assert starved["n_coincident"] == 0
        assert starved["flagged"]
        assert starved["e_conditional"] is None
        # the run continued past the starved angle
        assert equal["e_conditional"] == -1.0

    def test_manifest_rows_mirror_stats(self):
        rows = run_correlation_sweep(small_config()).results["rows"]
        assert len(rows) == 3
        assert rows[0]["e_conditional"] == -1.0
        assert {"gamma_hat", "stderr_gamma", "stderr_e", "flagged"} <= rows[0].keys()


class TestChshExperiment:
    def test_same_seed_reproduces_bit_identically(self):
        config = small_config(n_events=100_000)
        r1 = run_chsh_experiment(config)
        r2 = run_chsh_experiment(config)
        assert r1.reproducible_json() == r2.reproducible_json()
        assert r1.digest() == r2.digest()

    def test_worker_count_never_changes_results(self):
        solo = run_chsh_experiment(small_config(n_events=1_200_000, workers=1))
        pooled = run_chsh_experiment(small_config(n_events=1_200_000, workers=2))
        assert solo.reproducible_json() == pooled.reproducible_json()

    def test_empty_ensemble_names_the_pair(self):
        config = small_config(tau=1e-8, window=1e-8, n_events=300)
        with pytest.raises(EmptyEnsembleError, match="pair a[cd]"):
            run_chsh_experiment(config)

    def test_report_fields_consistent(self):
        results = run_chsh_experiment(small_config(n_events=400_000)).results
        report = results["report"]
        assert report["gamma_min"] == min(report["gammas"])
        assert report["modified_bound"] == pytest.approx(6.0 / report["gamma_min"] - 4.0)
        lower = report["chsh_lhs"] - 4.0 * report["chsh_stderr"]
        assert report["chsh_stderr"] > 0.0
        assert report["violates_chsh"] == (lower > 2.0)
        assert report["violates_modified"] == (lower > report["modified_bound"])
        # the recorded verdict is the one of the recorded pairs
        pairs = [results["pairs"][label] for label in runner.PAIR_LABELS]
        rebuilt = verdict([p["e_conditional"] for p in pairs], [p["gamma_hat"] for p in pairs],
                          [p["stderr_e"] for p in pairs])
        assert runner._record(rebuilt) == report

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_local_model_without_cut_violates_nothing(self, seed):
        """With W = 1 the local model keeps every pair and its CHSH value is
        2 in expectation; noise above 2 is not reported as a violation."""
        config = small_config(coincidence_mode=CoincidenceMode.CONTINUOUS, window=1.0,
                              n_events=200_000, seed=seed)
        report = run_chsh_experiment(config).results["report"]
        assert report["gammas"] == [1.0, 1.0, 1.0, 1.0]
        assert abs(report["chsh_lhs"] - 2.0) < 4.0 * report["chsh_stderr"]
        assert not report["violates_chsh"]
        assert not report["violates_modified"]


class TestBoundAudit:
    def test_requires_same_bin_mode(self):
        with pytest.raises(ConfigError, match="same-bin"):
            run_bound_audit(small_config(coincidence_mode=CoincidenceMode.CONTINUOUS))

    def test_reports_cover_grid(self):
        config = small_config(n_events=200_000)
        rows = run_bound_audit(config).results["rows"]
        assert len(rows) == 2  # one tau, two angles
        assert {r["alpha_deg"] for r in rows} == {0.0, 90.0}
        for row in rows:
            assert row["satisfied"] is True
            assert row["simulated_gamma"] + 4.0 * row["stderr_gamma"] <= row["closed_form"]
            assert row["quad_rel_tol"] in (1e-6, 1e-8)
            assert row["stderr_gamma"] is not None

    def test_antipodal_row_uses_equal_settings(self):
        manifest = run_bound_audit(small_config(n_events=200_000, audit_alpha_deg=(0.0, 180.0)))
        equal, antipodal = manifest.results["rows"]
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
        for i, row in enumerate(run_correlation_sweep(config).results["rows"]):
            alone = runner._record(simulate_pair_stats(
                UnitVector3.from_angle_deg(0.0), UnitVector3.from_angle_deg(row["alpha_deg"]),
                params, n_events, config.seed, stream=i, workers=workers,
            ))
            assert {name: row[name] for name in alone} == alone

    @pytest.mark.parametrize("n_events", [0, -5, runner.MAX_EVENTS + 1])
    def test_events_out_of_range_refused_before_the_plan(self, n_events, monkeypatch):
        """Outside [1, 2^36] events, both entry points refuse ``n_events`` by
        name before a chunk is counted: not with an unpacking error of an
        empty plan, nor after planning 2^17 + 1 tasks."""
        def unreachable(task):
            raise AssertionError("a chunk was counted")

        monkeypatch.setattr(runner, "chunk_counts", unreachable)
        pair = (UnitVector3(1.0, 0.0), UnitVector3(0.0, 1.0), ModelParams())
        with pytest.raises(ValueError, match="n_events"):
            simulate_plan([(*pair, 0)], n_events, seed=1)
        with pytest.raises(ValueError, match="n_events"):
            simulate_pair_stats(*pair, n_events, seed=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chsh_equals_separate_pairs(self, workers):
        config = small_config(n_events=CHUNK_SIZE + 17, workers=workers)
        results = run_chsh_experiment(config).results
        for i, label in enumerate(runner.PAIR_LABELS):
            th1, th2 = results["pair_settings_deg"][label]
            alone = simulate_pair_stats(
                UnitVector3.from_angle_deg(th1), UnitVector3.from_angle_deg(th2),
                config.model_params(), config.n_events, config.seed, stream=i, workers=1,
            )
            assert results["pairs"][label] == runner._record(alone)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_audit_rows_carry_their_own_tau(self, workers):
        config = small_config(
            n_events=100_000, workers=workers, audit_tau=(0.05, 0.01), audit_alpha_deg=(0.0, 90.0)
        )
        rows = run_bound_audit(config).results["rows"]
        plan = []
        for tau in config.audit_tau:
            for alpha_deg in config.audit_alpha_deg:
                plan.append((
                    UnitVector3.from_angle_deg(0.0), UnitVector3.from_angle_deg(alpha_deg),
                    ModelParams(tau=tau, window=tau), len(plan),
                ))
        planned = simulate_plan(plan, config.n_events, config.seed, workers)
        assert [s.tau for s in planned] == [0.05, 0.05, 0.01, 0.01]
        for (a1, a2, params, stream), stats, row in zip(plan, planned, rows):
            alone = simulate_pair_stats(a1, a2, params, config.n_events, config.seed, stream=stream)
            assert stats == alone
            assert row["tau"] == params.tau
            assert row["simulated_gamma"] == alone.gamma_hat

    def test_one_pool_per_run(self, monkeypatch):
        monkeypatch.setattr(runner, "_available_cpus", lambda: 8)
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        run_correlation_sweep(small_config(n_events=50_000, workers=2))
        assert pools == [2]
        run_chsh_experiment(small_config(n_events=CHUNK_SIZE + 1, workers=2))
        assert pools == [2, 2]

    @pytest.mark.parametrize("mode", list(CoincidenceMode))
    def test_chunk_counts_match_reference_reduction(self, mode):
        params = ModelParams(tau=0.01, window=0.02, coincidence_mode=mode)
        a1, a2 = UnitVector3.from_angle_deg(0.0), UnitVector3.from_angle_deg(40.0)
        for n in (30_000, 1_234):
            batch = generate_batch(event_stream(21, n), a1, a2, params, n)
            if mode is CoincidenceMode.CONTINUOUS:
                mask = np.abs(batch.t1 - batch.t2) <= params.window
            else:
                mask = np.floor(batch.t1 / params.tau) == np.floor(batch.t2 / params.tau)
            sum_xy = int((batch.x1[mask].astype(np.int64) * batch.x2[mask]).sum())
            expected = (n, int(np.count_nonzero(mask)), sum_xy)
            assert expected[1] > 0
            assert _counts_from_batch(batch, params) == expected

    def test_pool_capped_at_available_cpus(self, monkeypatch):
        """``--workers 1000`` starts no more processes than there are CPUs;
        the pool is faked and runs in-process."""
        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(runner, "_available_cpus", lambda: 3)
        config = small_config(alpha_grid_deg=tuple(float(a) for a in range(0, 181, 20)))
        pooled = run_correlation_sweep(replace(config, workers=1000))
        assert pools == [3]
        serial = run_correlation_sweep(config)
        assert pooled.digest() == serial.digest()
        run_correlation_sweep(replace(config, workers=2, alpha_grid_deg=(0.0,)))
        assert pools == [3]  # one task: run in-process

    @pytest.mark.parametrize("block_size", [1_000, 4_099, coincidence.BLOCK_SIZE])
    @pytest.mark.parametrize("mode", list(CoincidenceMode))
    @pytest.mark.parametrize("alpha_deg", [0.0, 45.0, 90.0, 180.0])
    @pytest.mark.parametrize("cut", [1.0, 0.1, 2.5e-4, 1e-300, sys.float_info.min])
    def test_blocked_chunk_equals_whole_chunk(self, monkeypatch, block_size, mode, alpha_deg,
                                              cut):
        """A chunk generated in blocks and screened gives the counts of the
        whole-chunk kernel and reduction."""
        monkeypatch.setattr(coincidence, "BLOCK_SIZE", block_size)
        params = ModelParams(tau=cut, window=cut, coincidence_mode=mode)
        a1, a2 = UnitVector3.from_angle_deg(10.0), UnitVector3.from_angle_deg(10.0 + alpha_deg)
        n = 30_001
        batch = generate_batch(event_stream(23, 5_000, stream=3), a1, a2, params, n)
        want = _counts_from_batch(batch, params)
        task = (23, 3, 5_000, n, a1, a2, params)
        assert coincidence.chunk_counts(task) == want

    @staticmethod
    def kernel_sizes(monkeypatch) -> list[int]:
        """The number of pairs of each call of the exact kernel."""
        sizes = []
        kernel = coincidence._events_from_uniforms

        def counting_kernel(u, *args):
            sizes.append(u.shape[1])
            return kernel(u, *args)

        monkeypatch.setattr(coincidence, "_events_from_uniforms", counting_kernel)
        return sizes

    @pytest.mark.parametrize("mode", list(CoincidenceMode))
    def test_kept_pairs_flush_at_block_size(self, monkeypatch, mode):
        """The kept pairs of whole blocks go through the kernel together, in
        block order: a call runs before the next block's kept pairs would
        make it wider than a block, and once more with the rest at the end."""
        monkeypatch.setattr(coincidence, "BLOCK_SIZE", 1_000)
        sizes, kept = self.kernel_sizes(monkeypatch), []
        screen = coincidence._screen

        def counting_screen(*args):
            index = screen(*args)
            kept.append(len(index))
            return index

        monkeypatch.setattr(coincidence, "_screen", counting_screen)
        params = ModelParams(tau=0.1, window=0.1, coincidence_mode=mode)
        a1, a2 = UnitVector3.from_angle_deg(10.0), UnitVector3.from_angle_deg(55.0)
        n = 4_000
        want = _counts_from_batch(generate_batch(event_stream(26, 0, stream=2), a1, a2,
                                                 params, n), params)
        sizes.clear()
        assert coincidence.chunk_counts((26, 2, 0, n, a1, a2, params)) == want
        calls = [0]
        for k in kept:
            if calls[-1] + k > 1_000:
                calls.append(0)
            calls[-1] += k
        assert len(kept) == 4 and len(calls) >= 2
        assert sizes == calls

    @pytest.mark.parametrize("mode", list(CoincidenceMode))
    def test_chunk_without_kept_pairs_skips_the_kernel(self, monkeypatch, mode):
        sizes = self.kernel_sizes(monkeypatch)
        params = ModelParams(tau=1e-300, window=1e-300, coincidence_mode=mode)
        a1, a2 = UnitVector3.from_angle_deg(10.0), UnitVector3.from_angle_deg(100.0)
        n = 30_001
        want = _counts_from_batch(generate_batch(event_stream(26, 0, stream=2), a1, a2,
                                                 params, n), params)
        assert want == (n, 0, 0)
        sizes.clear()
        assert coincidence.chunk_counts((26, 2, 0, n, a1, a2, params)) == want
        assert sizes == []

    @pytest.mark.parametrize("mode", list(CoincidenceMode))
    @pytest.mark.parametrize("cut, rows", [(1.0, 2), (0.999, 4), (2.5e-4, 4)])
    def test_chunk_draws_only_the_rows_it_needs(self, monkeypatch, mode, cut, rows):
        """A chunk without a cut draws z and phi only and never makes the
        tag streams; with a cut it draws all four rows.  Its blocks hold
        just those rows, so a read of a tag row without a cut would raise.
        Either way it gives the whole-chunk kernel's counts."""
        made, drawn, shapes = [], set(), []

        class CountingStream:
            def __init__(self, rng, k):
                self.rng, self.k = rng, k

            def random(self, out):
                drawn.add(self.k)
                return self.rng.random(out=out)

        def counting_streams(*args, **kwargs):
            streams = batch_streams(*args, **kwargs)
            made.append(len(streams))
            return [CountingStream(rng, k) for k, rng in enumerate(streams)]

        def recording(counts):
            def recording_counts(blocks, *args):
                def recorded():
                    for u in blocks:
                        shapes.append(u.shape)
                        yield u
                return counts(recorded(), *args)
            return recording_counts

        monkeypatch.setattr(coincidence, "batch_streams", counting_streams)
        for path in ("_outcome_counts", "_block_counts"):  # whichever path runs
            monkeypatch.setattr(coincidence, path, recording(getattr(coincidence, path)))
        params = ModelParams(tau=cut, window=cut, coincidence_mode=mode)
        a1, a2 = UnitVector3.from_angle_deg(10.0), UnitVector3.from_angle_deg(55.0)
        n = 40_001
        want = _counts_from_batch(generate_batch(event_stream(24, 0, stream=1), a1, a2,
                                                 params, n), params)
        assert coincidence.chunk_counts((24, 1, 0, n, a1, a2, params)) == want
        assert made == [rows]
        assert drawn == set(range(rows))
        assert {shape[0] for shape in shapes} == {rows}
        assert sum(shape[1] for shape in shapes) == n

    def test_chsh_names_first_empty_pair(self):
        # ac (equal settings) keeps a few coincidences at this tau; ad and bc keep none
        config = small_config(
            settings_deg=(0.0, 90.0, 0.0, 90.0), tau=1e-5, window=1e-5, n_events=20_000
        )
        with pytest.raises(EmptyEnsembleError, match="pair ad "):
            run_chsh_experiment(config)


class TestSignFlipLaws:
    """Negating a setting negates every overlap exactly, in float64 and in
    the float32 screen, and leaves every delay as it is: -a2 keeps the
    coincidences and negates sum_xy, and (-a1, -a2) keeps every count, on
    every path of the plan.  No setting here meets a tie a.s = 0."""

    @pytest.mark.parametrize("mode", list(CoincidenceMode))
    @pytest.mark.parametrize("cut", [1.0, 1e-2, 2.5e-4])
    @pytest.mark.parametrize("d_exponent", [3.0, 0.7])
    @pytest.mark.parametrize("alpha1, alpha2", [(0.0, 45.0), (30.0, 100.0), (60.0, 150.0),
                                                (120.0, 350.0)])
    def test_negated_settings(self, mode, cut, d_exponent, alpha1, alpha2):
        params = ModelParams(tau=cut, window=cut, d_exponent=d_exponent, coincidence_mode=mode)
        a1, a2 = UnitVector3.from_angle_deg(alpha1), UnitVector3.from_angle_deg(alpha2)

        def counts(b1, b2):
            stats = simulate_pair_stats(b1, b2, params, 100_000, seed=17)
            return stats.n_coincident, stats.sum_xy

        n_c, sum_xy = counts(a1, a2)
        assert n_c > 0
        assert counts(a1, -a2) == (n_c, -sum_xy)
        assert counts(-a1, -a2) == (n_c, sum_xy)


class TestManifest:
    @pytest.mark.parametrize("run", [run_correlation_sweep, run_chsh_experiment, run_bound_audit])
    def test_json_roundtrip_identity(self, run):
        """Every kind of manifest, the CHSH report and the audit rows
        included, reads back from its JSON equal and with its digest."""
        manifest = run(small_config())
        loaded = RunManifest.from_json(manifest.to_json())
        assert loaded == manifest
        assert loaded.digest() == manifest.digest()

    def test_reproducible_json_excludes_workers(self):
        config1 = small_config(workers=1)
        config2 = small_config(workers=2)
        m1 = run_correlation_sweep(config1)
        m2 = run_correlation_sweep(config2)
        assert m1.reproducible_json() == m2.reproducible_json()
        assert m1.config["workers"] != m2.config["workers"]

    def test_digest_is_stable_hex(self):
        manifest = run_correlation_sweep(small_config())
        digest = manifest.digest()
        assert len(digest) == 64
        assert digest == manifest.digest()


class TestTabularOutput:
    def test_sweep_csv_parses_back(self):
        manifest = run_correlation_sweep(small_config())
        text = _render(manifest, "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3
        assert rows[0]["alpha_deg"] == "0.0"
        assert rows[0]["e_conditional"] == "-1.0"
        assert float(rows[1]["stderr_gamma"]) > 0.0

    def test_csv_empty_cell_for_undefined_correlation(self):
        config = small_config(tau=1e-7, window=1e-7, n_events=200, alpha_grid_deg=(45.0,))
        manifest = run_correlation_sweep(config)
        text = _render(manifest, "csv")
        row = next(csv.DictReader(io.StringIO(text)))
        assert row["e_conditional"] == ""
        assert row["flagged"] == "true"

    def test_table_dash_for_undefined_correlation(self):
        """A starved sweep angle prints "-" for its correlation and its
        error, and "yes" for its flag."""
        config = small_config(tau=1e-7, window=1e-7, n_events=200, alpha_grid_deg=(45.0,))
        table = _render(run_correlation_sweep(config), "table")
        header, _, row = table.splitlines()
        cells = dict(zip(header.split(), row.split()))
        assert cells["n_coincident"] == "0"
        assert cells["e_conditional"] == cells["stderr_e"] == "-"
        assert cells["flagged"] == "yes"

    def test_chsh_rows_include_settings(self):
        text = _render(run_chsh_experiment(small_config(n_events=100_000)), "csv")
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert [r["pair"] for r in parsed] == ["ac", "ad", "bc", "bd"]
        assert parsed[0]["setting_2_deg"] == "45.0"

    def test_bounds_table_renders(self):
        manifest = run_bound_audit(small_config(n_events=100_000))
        table = _render(manifest, "table")
        lines = table.strip().splitlines()
        assert lines[0].split()[:2] == ["alpha_deg", "tau"]
        assert len(lines) == 2 + len(manifest.results["rows"])
