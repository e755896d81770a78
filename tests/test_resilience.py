"""Tests for the hardened execution layer: typed errors, deadlines,
retries, chaos injection, and checkpoint/resume."""

import json
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    AbortedError,
    CacheCorruptionError,
    ConfigError,
    FlakyWorkerError,
    JobFailure,
    JobRetriesExhaustedError,
    JobTimeoutError,
    NetlistParseError,
    ReproError,
    SocFormatError,
    UnknownBenchmarkError,
    WorkerCrashError,
)
from repro.runtime import (
    AbortToken,
    AtpgConfig,
    AtpgJob,
    AtpgResultCache,
    ChaosConfig,
    ExecutionPolicy,
    JobOutcome,
    RunJournal,
    Runtime,
    run_jobs,
    use_abort,
)
from repro.runtime.policy import SEED_PERTURBATION, validate_on_error
from repro.synth import GeneratorSpec, generate_circuit

from .test_runtime import assert_same_result


@pytest.fixture(scope="module")
def netlist():
    return generate_circuit(
        GeneratorSpec(name="res_core", inputs=7, outputs=4, flip_flops=5,
                      target_gates=50, seed=11)
    )


@pytest.fixture(scope="module")
def other_netlist():
    return generate_circuit(
        GeneratorSpec(name="res_other", inputs=6, outputs=3, flip_flops=4,
                      target_gates=40, seed=23)
    )


@pytest.fixture(scope="module")
def baseline(netlist, other_netlist):
    """Plain results of the two fixture jobs — what resilience paths
    must reproduce bit-identically."""
    results, _ = run_jobs(
        [AtpgJob("a", netlist), AtpgJob("b", other_netlist)]
    )
    return results


def two_jobs(netlist, other_netlist):
    return [AtpgJob("a", netlist), AtpgJob("b", other_netlist)]


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for cls in (
            ConfigError, NetlistParseError, SocFormatError,
            UnknownBenchmarkError, CacheCorruptionError, JobFailure,
            JobTimeoutError, AbortedError, WorkerCrashError,
            FlakyWorkerError, JobRetriesExhaustedError,
        ):
            assert issubclass(cls, ReproError)

    def test_legacy_parents_preserved(self):
        # Pre-existing `except ValueError` / `except KeyError` call
        # sites must keep catching these.
        for cls in (ConfigError, NetlistParseError, SocFormatError,
                    CacheCorruptionError):
            assert issubclass(cls, ValueError)
        assert issubclass(UnknownBenchmarkError, KeyError)

    def test_parsers_raise_the_typed_errors(self):
        from repro.circuit import parse_bench
        from repro.itc02 import parse_soc
        from repro.itc02.benchmarks import load_file

        with pytest.raises(NetlistParseError):
            parse_bench("G1 = FROB(G2)")
        with pytest.raises(SocFormatError) as excinfo:
            parse_soc("Soc x\nBogus 3\n")
        assert excinfo.value.line_number == 2
        assert "line 2" in str(excinfo.value)
        with pytest.raises(UnknownBenchmarkError) as excinfo:
            load_file("no_such_soc")
        # KeyError's repr-quoting is overridden: readable message.
        assert "unknown ITC'02 benchmark" in str(excinfo.value)

    def test_job_failures_pickle(self):
        # They cross process-pool boundaries.
        for cls in (JobTimeoutError, AbortedError, WorkerCrashError,
                    FlakyWorkerError, JobRetriesExhaustedError):
            err = pickle.loads(pickle.dumps(cls("boom")))
            assert isinstance(err, cls)
            assert "boom" in str(err)

    def test_retry_classification_flags(self):
        assert JobTimeoutError.retry_with_new_seed
        assert AbortedError.retry_with_new_seed
        assert WorkerCrashError.transient
        assert FlakyWorkerError.transient
        assert not WorkerCrashError.retry_with_new_seed
        assert not JobTimeoutError.transient


class TestAbortToken:
    def test_expired_deadline_trips_check(self):
        token = AbortToken(deadline_seconds=1e-9)
        import time
        time.sleep(0.002)
        with pytest.raises(JobTimeoutError):
            token.check()

    def test_budget_trips_spend(self):
        token = AbortToken(backtrack_budget=2)
        token.spend_backtracks(2)
        with pytest.raises(AbortedError):
            token.spend_backtracks(1)

    def test_unarmed_token_never_trips(self):
        token = AbortToken()
        token.check()
        token.spend_backtracks(10**6)

    def test_engine_honors_ambient_deadline(self, netlist):
        from repro.atpg import generate_tests

        with use_abort(AbortToken(deadline_seconds=1e-9)):
            with pytest.raises(JobTimeoutError):
                generate_tests(netlist)
        # The token is scoped: outside the block the engine runs fine.
        assert generate_tests(netlist).pattern_count > 0


class TestChaosConfig:
    def test_env_round_trip(self):
        chaos = ChaosConfig(hang_seconds=0.25, hang_attempts=1,
                            crash_attempts=2, flaky_attempts=3,
                            corrupt_stores=1)
        assert ChaosConfig.from_env(chaos.to_env()) == chaos

    def test_empty_env_is_inert(self):
        assert not ChaosConfig.from_env("").enabled
        assert not ChaosConfig().enabled

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ChaosConfig.from_env("hang_secnds=1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            ChaosConfig.from_env("crash_attempts=lots")

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            ChaosConfig(crash_attempts=-1)

    @pytest.mark.parametrize("kwargs", [
        {"crash_attempts": "1"},
        {"crash_attempts": 1.5},
        {"crash_attempts": True},  # to_env would write "True"
        {"hang_attempts": None},
        {"flaky_attempts": 2.0},
        {"corrupt_stores": False},
        {"hang_seconds": float("nan")},  # never sleeps: nan > 0 is false
        {"hang_seconds": float("inf")},  # time.sleep overflows
        {"hang_seconds": 10**400},
        {"hang_seconds": True},
        {"hang_seconds": "0.5"},
    ])
    def test_mistyped_fields_are_config_errors(self, kwargs):
        with pytest.raises(ConfigError):
            ChaosConfig(**kwargs)

    @pytest.mark.parametrize("text", [
        "hang_seconds=nan,hang_attempts=1",
        "hang_seconds=inf,hang_attempts=1",
    ])
    def test_non_finite_hang_rejected_from_env(self, text):
        with pytest.raises(ConfigError):
            ChaosConfig.from_env(text)

    @settings(max_examples=300, deadline=None)
    @given(st.fixed_dictionaries({}, optional={
        name: st.one_of(
            st.integers(-3, 2**70),
            st.booleans(),
            st.none(),
            st.floats(),
            st.text(max_size=4),
            st.lists(st.integers(), max_size=2),
        )
        for name in (
            "hang_seconds", "hang_attempts", "crash_attempts",
            "flaky_attempts", "corrupt_stores",
        )
    }))
    def test_construction_raises_only_typed_errors(self, kwargs):
        try:
            chaos = ChaosConfig(**kwargs)
        except ReproError:
            return
        # What construction accepts, REPRO_CHAOS can carry.
        restored = ChaosConfig.from_env(chaos.to_env())
        assert restored.hang_seconds == float(chaos.hang_seconds)
        assert replace(restored, hang_seconds=0.0) == \
            replace(chaos, hang_seconds=0.0)


class TestExecutionPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExecutionPolicy(deadline_seconds=0)
        with pytest.raises(ConfigError):
            ExecutionPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            ExecutionPolicy(backoff_seconds=-1)
        with pytest.raises(ConfigError):
            validate_on_error("explode")

    @pytest.mark.parametrize("kwargs", [
        {"deadline_seconds": float("nan")},  # never trips: clock() > nan
        {"deadline_seconds": float("inf")},
        {"deadline_seconds": 10**400},  # clock() + deadline would overflow
        {"deadline_seconds": True},
        {"deadline_seconds": "5"},
        {"backoff_seconds": float("nan")},
        {"backoff_seconds": None},
        {"max_attempts": 2.5},
        {"max_attempts": True},
        {"max_attempts": None},
        {"backtrack_budget": 1.5},
        {"backtrack_budget": True},
        {"chaos": None},
    ])
    def test_mistyped_fields_are_config_errors(self, kwargs):
        with pytest.raises(ConfigError):
            ExecutionPolicy(**kwargs)

    @settings(max_examples=300, deadline=None)
    @given(st.fixed_dictionaries({}, optional={
        name: st.one_of(
            st.integers(-3, 2**70),
            st.booleans(),
            st.none(),
            st.floats(),
            st.text(max_size=4),
            st.lists(st.integers(), max_size=2),
        )
        for name in (
            "deadline_seconds", "backtrack_budget", "max_attempts",
            "backoff_seconds",
        )
    }))
    def test_construction_raises_only_typed_errors(self, kwargs):
        try:
            policy = ExecutionPolicy(**kwargs)
        except ReproError:
            return
        assert policy.max_attempts >= 1
        assert policy.backoff_for_round(1) >= 0

    def test_retry_config_perturbs_seed_only_for_deterministic_failures(self):
        config = AtpgConfig(seed=5)
        policy = ExecutionPolicy()
        perturbed = policy.retry_config(config, 1, JobTimeoutError("t"))
        assert perturbed.seed == 5 + SEED_PERTURBATION
        assert perturbed.backtrack_limit == config.backtrack_limit
        same = policy.retry_config(config, 1, WorkerCrashError("c"))
        assert same == config

    def test_backoff_doubles(self):
        policy = ExecutionPolicy(backoff_seconds=0.5)
        assert policy.backoff_for_round(1) == 0.5
        assert policy.backoff_for_round(3) == 2.0
        assert ExecutionPolicy().backoff_for_round(3) == 0.0


class TestFailureModes:
    def test_timeout_raises_by_default(self, netlist):
        policy = ExecutionPolicy(deadline_seconds=1e-9, max_attempts=1)
        with pytest.raises(JobTimeoutError):
            run_jobs([AtpgJob("a", netlist)], policy=policy)

    def test_timeout_skip_records_outcome(self, netlist, other_netlist):
        policy = ExecutionPolicy(deadline_seconds=1e-9, max_attempts=1)
        results, manifest = run_jobs(
            two_jobs(netlist, other_netlist), policy=policy, on_error="skip"
        )
        assert results == [None, None]
        for record in manifest.records:
            assert record.outcome is JobOutcome.TIMEOUT
            assert not record.outcome.is_ok
            assert "JobTimeoutError" in record.error
        assert "2 NOT ok (2 timeout)" in manifest.summary()

    def test_flaky_worker_retries_bit_identical(
        self, netlist, other_netlist, baseline
    ):
        policy = ExecutionPolicy(chaos=ChaosConfig(flaky_attempts=1))
        results, manifest = run_jobs(
            two_jobs(netlist, other_netlist), policy=policy, on_error="retry"
        )
        # Transient failures retry under the identical config, so the
        # chaos run reproduces the clean run exactly.
        for got, want in zip(results, baseline):
            assert_same_result(got, want)
        for record in manifest.records:
            assert record.outcome is JobOutcome.RETRIED_OK
            assert record.attempts == 2
        assert manifest.retry_attempts == 2
        assert "2 retries" in manifest.summary()

    def test_serial_crash_is_isolated_and_retried(
        self, netlist, other_netlist, baseline
    ):
        policy = ExecutionPolicy(chaos=ChaosConfig(crash_attempts=1))
        results, _ = run_jobs(
            two_jobs(netlist, other_netlist), policy=policy, on_error="retry"
        )
        for got, want in zip(results, baseline):
            assert_same_result(got, want)

    def test_pool_crash_is_isolated_and_retried(
        self, netlist, other_netlist, baseline
    ):
        # The chaos crash in a pool worker is a hard os._exit: the pool
        # breaks, is rebuilt, and every job completes on the retry.
        policy = ExecutionPolicy(chaos=ChaosConfig(crash_attempts=1))
        results, manifest = run_jobs(
            two_jobs(netlist, other_netlist), workers=2, policy=policy,
            on_error="retry",
        )
        for got, want in zip(results, baseline):
            assert_same_result(got, want)
        assert all(r.outcome is JobOutcome.RETRIED_OK for r in manifest.records)

    def test_retries_exhausted_raises_typed_error(self, netlist):
        policy = ExecutionPolicy(
            chaos=ChaosConfig(flaky_attempts=5), max_attempts=2
        )
        with pytest.raises(JobRetriesExhaustedError) as excinfo:
            run_jobs([AtpgJob("a", netlist)], policy=policy, on_error="retry")
        assert "FlakyWorkerError" in str(excinfo.value)

    def test_hang_crash_corrupt_cache_suite_completes(
        self, tmp_path, netlist, other_netlist, baseline
    ):
        # The acceptance scenario: injected hang + crash + cache
        # corruption, and the whole suite still completes under
        # on_error="retry".
        cache = AtpgResultCache(directory=tmp_path / "cache")
        chaos = ChaosConfig(
            hang_seconds=0.4, hang_attempts=1, crash_attempts=1,
            corrupt_stores=1,
        )
        policy = ExecutionPolicy(deadline_seconds=0.15, max_attempts=4,
                                 chaos=chaos)
        jobs = two_jobs(netlist, other_netlist)
        results, manifest = run_jobs(
            jobs, cache=cache, policy=policy, on_error="retry"
        )
        assert all(r is not None for r in results)
        assert all(r.outcome is JobOutcome.RETRIED_OK for r in manifest.records)
        # One of the stores was truncated on disk; a fresh lookup
        # quarantines it and recomputes rather than failing.
        clean = AtpgResultCache(directory=tmp_path / "cache")
        rerun, _ = run_jobs(jobs, cache=clean)
        assert clean.stats.quarantined == 1
        assert (tmp_path / "cache" / "quarantine").exists()
        for got, want in zip(rerun, results):
            assert_same_result(got, want)

    def test_zero_fault_chaos_changes_nothing(
        self, netlist, other_netlist, baseline
    ):
        # Differential guarantee: an all-zero ChaosConfig behind a full
        # retry policy is bit-identical to no policy at all.
        policy = ExecutionPolicy(chaos=ChaosConfig(), max_attempts=3)
        results, manifest = run_jobs(
            two_jobs(netlist, other_netlist), policy=policy, on_error="retry"
        )
        for got, want in zip(results, baseline):
            assert_same_result(got, want)
        assert all(r.outcome is JobOutcome.OK for r in manifest.records)
        assert all(r.attempts == 1 for r in manifest.records)


class TestManifestOutcomes:
    def test_ok_and_cache_hit_outcomes(self, tmp_path, netlist):
        cache = AtpgResultCache(directory=tmp_path)
        _, cold = run_jobs([AtpgJob("a", netlist)], cache=cache)
        assert cold.records[0].outcome is JobOutcome.OK
        assert cold.records[0].attempts == 1
        _, warm = run_jobs([AtpgJob("a", netlist)], cache=cache)
        assert warm.records[0].outcome is JobOutcome.CACHE_HIT
        assert warm.records[0].attempts == 0
        assert warm.records[0].outcome.is_ok
        # The historical summary shape is unchanged for all-ok runs.
        assert "1 ATPG jobs: 0 executed" in warm.summary()
        assert "1 cache hits (100%)" in warm.summary()
        assert "NOT ok" not in warm.summary()

    def test_outcome_counts(self, netlist, other_netlist):
        policy = ExecutionPolicy(deadline_seconds=1e-9, max_attempts=1)
        _, manifest = run_jobs(
            two_jobs(netlist, other_netlist), policy=policy, on_error="skip"
        )
        assert manifest.outcome_counts == {"timeout": 2}

    def test_bad_on_error_rejected(self, netlist):
        with pytest.raises(ConfigError):
            run_jobs([AtpgJob("a", netlist)], on_error="explode")


class TestJournalResume:
    def test_fresh_run_refuses_dirty_directory(self, tmp_path, netlist):
        journal = RunJournal(tmp_path)
        run_jobs([AtpgJob("a", netlist)], journal=journal)
        with pytest.raises(ConfigError):
            RunJournal(tmp_path)
        # resume=True is the explicit opt-in.
        RunJournal(tmp_path, resume=True)

    def test_resume_skips_completed_jobs(
        self, tmp_path, netlist, other_netlist, baseline
    ):
        # "Kill" a run after its first job, then resume with the full
        # job list: the journaled job is never re-executed.
        interrupted = RunJournal(tmp_path / "run")
        run_jobs([AtpgJob("a", netlist)], journal=interrupted)

        resumed = RunJournal(tmp_path / "run", resume=True)
        results, manifest = run_jobs(
            two_jobs(netlist, other_netlist), journal=resumed
        )
        assert resumed.resumed_jobs == 1
        assert manifest.records[0].outcome is JobOutcome.CACHE_HIT
        assert manifest.records[1].outcome is JobOutcome.OK
        for got, want in zip(results, baseline):
            assert_same_result(got, want)

    def test_resumed_manifest_is_byte_identical(
        self, tmp_path, netlist, other_netlist
    ):
        jobs = two_jobs(netlist, other_netlist)
        # Uninterrupted reference run.
        clean = RunJournal(tmp_path / "clean")
        run_jobs(jobs, journal=clean)
        reference = (tmp_path / "clean" / "manifest.json").read_bytes()

        # Killed-after-one-job run, then resumed.
        broken = RunJournal(tmp_path / "broken")
        run_jobs(jobs[:1], journal=broken)
        resumed = RunJournal(tmp_path / "broken", resume=True)
        run_jobs(jobs, journal=resumed)
        assert (tmp_path / "broken" / "manifest.json").read_bytes() == reference

    def test_corrupt_journal_entry_recomputed(self, tmp_path, netlist):
        journal = RunJournal(tmp_path)
        results, _ = run_jobs([AtpgJob("a", netlist)], journal=journal)
        entry = next((tmp_path / "jobs").glob("*.json"))
        entry.write_text(entry.read_text()[:30])

        resumed = RunJournal(tmp_path, resume=True)
        rerun, manifest = run_jobs([AtpgJob("a", netlist)], journal=resumed)
        assert resumed.resumed_jobs == 0
        assert manifest.records[0].outcome is JobOutcome.OK
        assert (tmp_path / "jobs" / "quarantine").exists()
        assert_same_result(rerun[0], results[0])

    def test_manifest_json_shape(self, tmp_path, netlist):
        journal = RunJournal(tmp_path)
        run_jobs([AtpgJob("a", netlist)], journal=journal)
        payload = json.loads((tmp_path / "manifest.json").read_text())
        (job,) = payload["jobs"]
        assert job["name"] == "a"
        assert job["circuit"] == netlist.name
        assert job["status"] == "ok"
        assert job["pattern_count"] > 0
        assert len(job["key"]) == 64


class TestJournalConcurrency:
    def test_concurrent_record_same_key_never_tears(self, tmp_path, c17):
        """Tmp names carry the pid and thread id, so writers racing on
        one key never share a tmp path: last rename wins whole."""
        import threading

        from repro.atpg.engine import generate_tests

        config = AtpgConfig(seed=1)
        result = generate_tests(c17, seed=1)
        journals = [RunJournal(tmp_path, resume=bool(i)) for i in range(2)]
        errors = []

        def hammer(journal):
            try:
                for _ in range(50):
                    journal.record("k" * 16, "c17", config, result)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(journal,))
            for journal in journals
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # The final file is a complete, valid record (never a torn mix).
        payload = json.loads((tmp_path / "jobs" / ("k" * 16 + ".json")).read_text())
        assert payload["key"] == "k" * 16
        reader = RunJournal(tmp_path, resume=True)
        assert reader.get("k" * 16) is not None
        # No tmp litter left behind.
        assert not list((tmp_path / "jobs").glob("*.tmp"))


class TestRuntimeFlags:
    def test_retries_implies_retry_mode(self, tmp_path):
        runtime = Runtime.from_flags(no_cache=True, retries=2)
        assert runtime.on_error == "retry"
        assert runtime.policy.max_attempts == 3

    def test_explicit_on_error_wins(self):
        runtime = Runtime.from_flags(no_cache=True, retries=2, on_error="skip")
        assert runtime.on_error == "skip"

    def test_resume_requires_run_dir(self):
        with pytest.raises(ConfigError):
            Runtime.from_flags(no_cache=True, resume=True)

    def test_chaos_comes_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "flaky_attempts=2")
        runtime = Runtime.from_flags(no_cache=True)
        assert runtime.policy.chaos.flaky_attempts == 2
        monkeypatch.delenv("REPRO_CHAOS")
        assert not Runtime.from_flags(no_cache=True).policy.chaos.enabled

    def test_runtime_map_threads_policy(self, netlist):
        runtime = Runtime(
            policy=ExecutionPolicy(chaos=ChaosConfig(flaky_attempts=1)),
            on_error="retry",
        )
        result = runtime.generate(netlist)
        assert result.pattern_count > 0
        assert runtime.manifest.records[0].outcome is JobOutcome.RETRIED_OK


class TestCliResume:
    def test_experiments_resume_is_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = str(tmp_path / "run")
        base = ["experiments", "cone-example", "--no-cache", "--run-dir", run_dir]
        assert main(base) == 0
        first_out = capsys.readouterr().out
        manifest_bytes = (tmp_path / "run" / "manifest.json").read_bytes()

        assert main(base + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert captured.out == first_out
        assert (tmp_path / "run" / "manifest.json").read_bytes() == manifest_bytes
        # Every ATPG job came from the journal this time.
        assert "0 executed" in captured.err

    def test_experiments_rejects_dirty_run_dir(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["experiments", "cone-example", "--no-cache",
                "--run-dir", str(tmp_path / "run")]
        assert main(argv) == 0
        capsys.readouterr()
        # The ConfigError reaches the user as one line and exit code 2.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: run directory ")
        assert "already holds journaled results" in err
