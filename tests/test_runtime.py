"""Tests for the repro.runtime layer: config, cache, executor, CLI plumbing."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import generate_tests
from repro.errors import ConfigError, ReproError
from repro.runtime import (
    AtpgConfig,
    AtpgJob,
    AtpgResultCache,
    Runtime,
    ensure_runtime,
    netlist_fingerprint,
    result_key,
    run_jobs,
)
from repro.synth import GeneratorSpec, generate_circuit

#: Committed fingerprints: the default (stream-1) config must hash to
#: what it hashed to before the epoch knob existed, forever.
STREAM1_DEFAULT_FINGERPRINT = (
    "6b89579a65f761b4647d47f396ea454b4661b2ca07d958fcd95b48b41b90da2e"
)


@pytest.fixture(scope="module")
def netlist():
    return generate_circuit(
        GeneratorSpec(name="rt_core", inputs=8, outputs=4, flip_flops=6,
                      target_gates=60, seed=7)
    )


@pytest.fixture(scope="module")
def other_netlist():
    return generate_circuit(
        GeneratorSpec(name="rt_other", inputs=6, outputs=3, flip_flops=4,
                      target_gates=40, seed=13)
    )


def assert_same_result(a, b):
    """Full structural equality of two AtpgResult values."""
    assert a.circuit_name == b.circuit_name
    assert a.pattern_count == b.pattern_count
    assert [p.assignments for p in a.test_set] == [p.assignments for p in b.test_set]
    assert a.fault_count == b.fault_count
    assert a.detected_count == b.detected_count
    assert a.untestable == b.untestable
    assert a.aborted == b.aborted
    assert a.random_pattern_count == b.random_pattern_count
    assert a.deterministic_pattern_count == b.deterministic_pattern_count
    assert a.pre_compaction_count == b.pre_compaction_count


class TestAtpgConfig:
    def test_defaults_match_engine_defaults(self, netlist):
        direct = generate_tests(netlist)
        via_config = generate_tests(netlist, config=AtpgConfig())
        assert_same_result(direct, via_config)

    def test_config_overrides_keywords(self, netlist):
        by_seed = generate_tests(netlist, seed=5)
        overridden = generate_tests(netlist, seed=999, config=AtpgConfig(seed=5))
        assert_same_result(by_seed, overridden)

    def test_with_seed(self):
        config = AtpgConfig(backtrack_limit=50).with_seed(9)
        assert config.seed == 9
        assert config.backtrack_limit == 50

    def test_round_trip(self):
        config = AtpgConfig(seed=4, random_batches=8, dynamic_compaction=3)
        assert AtpgConfig.from_dict(config.to_dict()) == config

    def test_fingerprint_sensitivity(self):
        base = AtpgConfig()
        assert base.fingerprint() == AtpgConfig().fingerprint()
        assert base.fingerprint() != AtpgConfig(seed=1).fingerprint()
        assert base.fingerprint() != AtpgConfig(compact=False).fingerprint()

    def test_validation(self):
        with pytest.raises(ValueError):
            AtpgConfig(backtrack_limit=0)
        with pytest.raises(ValueError):
            AtpgConfig(random_batches=-1)
        with pytest.raises(ValueError):
            AtpgConfig(dynamic_compaction=-1)

    def test_stream1_fingerprint_is_frozen(self):
        assert AtpgConfig().fingerprint() == STREAM1_DEFAULT_FINGERPRINT
        assert AtpgConfig(stream=1).fingerprint() == STREAM1_DEFAULT_FINGERPRINT

    def test_stream1_dict_is_byte_stable(self):
        # Stream 1 is implicit: serialized configs are identical to the
        # pre-epoch format, so every cached fingerprint stays valid.
        assert "stream" not in AtpgConfig().to_dict()

    def test_retired_backend_key_loads_as_the_same_config(self):
        # Journal entries written while --backend existed carry the key.
        config = AtpgConfig.from_dict({**AtpgConfig().to_dict(), "backend": "pure"})
        assert config == AtpgConfig()
        assert config.fingerprint() == AtpgConfig().fingerprint()

    def test_stream_other_than_1_rejected(self):
        for bad in (2, 3):
            with pytest.raises(ConfigError, match="pattern-stream epoch"):
                AtpgConfig(stream=bad)
        with pytest.raises(ConfigError, match="pattern-stream epoch"):
            AtpgConfig.from_dict({"stream": 2})

    @pytest.mark.parametrize("kwargs", [
        {"backtrack_limit": "5"},
        {"random_batches": None},
        {"seed": "a"},
        {"seed": 1.5},
        {"seed": True},  # would run seed=1 under another fingerprint
        {"dynamic_compaction": 2.5},
        {"compact": "no"},
        {"compact": 1},
        {"stream": True},
    ])
    def test_mistyped_fields_are_config_errors(self, kwargs):
        with pytest.raises(ConfigError):
            AtpgConfig(**kwargs)

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
            "seed", "backtrack_limit", "random_batches", "compact",
            "dynamic_compaction", "stream",
        )
    }))
    def test_construction_raises_only_typed_errors(self, kwargs):
        try:
            config = AtpgConfig(**kwargs)
        except ReproError:
            return
        assert AtpgConfig.from_dict(config.to_dict()) == config
        assert len(config.fingerprint()) == 64


class TestFingerprints:
    def test_netlist_fingerprint_stable(self, netlist):
        assert netlist_fingerprint(netlist) == netlist_fingerprint(netlist)

    def test_netlist_fingerprint_distinguishes(self, netlist, other_netlist):
        assert netlist_fingerprint(netlist) != netlist_fingerprint(other_netlist)

    def test_result_key_covers_config(self, netlist):
        assert result_key(netlist, AtpgConfig()) != result_key(
            netlist, AtpgConfig(seed=1)
        )


class TestCache:
    def test_miss_then_hit_round_trip(self, netlist, tmp_path):
        cache = AtpgResultCache(tmp_path)
        config = AtpgConfig(seed=5)
        assert cache.get(netlist, config) is None
        result = generate_tests(netlist, config=config)
        cache.put(netlist, config, result)
        assert_same_result(cache.get(netlist, config), result)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_disk_persistence_across_instances(self, netlist, tmp_path):
        config = AtpgConfig(seed=5)
        result = generate_tests(netlist, config=config)
        AtpgResultCache(tmp_path).put(netlist, config, result)
        fresh = AtpgResultCache(tmp_path)
        assert_same_result(fresh.get(netlist, config), result)
        assert fresh.stats.hits == 1

    def test_corruption_recovery(self, netlist, tmp_path):
        cache = AtpgResultCache(tmp_path)
        config = AtpgConfig(seed=5)
        result = generate_tests(netlist, config=config)
        cache.put(netlist, config, result)
        (path,) = tmp_path.glob("*.json")
        path.write_text("{ this is not json")
        fresh = AtpgResultCache(tmp_path)
        assert fresh.get(netlist, config) is None  # corrupt -> miss
        assert fresh.stats.corrupt == 1
        assert not path.exists()  # corrupt entry removed
        fresh.put(netlist, config, result)  # and the slot is usable again
        assert_same_result(AtpgResultCache(tmp_path).get(netlist, config), result)

    def test_key_mismatch_detected(self, netlist, other_netlist, tmp_path):
        cache = AtpgResultCache(tmp_path)
        config = AtpgConfig()
        cache.put(netlist, config, generate_tests(netlist, config=config))
        # A file renamed onto the wrong key must not be served.
        (path,) = tmp_path.glob("*.json")
        wrong = tmp_path / f"{result_key(other_netlist, config)}.json"
        path.rename(wrong)
        fresh = AtpgResultCache(tmp_path)
        assert fresh.get(other_netlist, config) is None
        assert fresh.stats.corrupt == 1

    def test_memory_only_cache(self, netlist):
        cache = AtpgResultCache()  # no directory
        config = AtpgConfig()
        result = generate_tests(netlist, config=config)
        cache.put(netlist, config, result)
        assert_same_result(cache.get(netlist, config), result)
        assert len(cache) == 1

    def test_memory_lru_eviction(self, netlist):
        cache = AtpgResultCache(memory_slots=1)
        result = generate_tests(netlist, config=AtpgConfig())
        cache.put(netlist, AtpgConfig(), result)
        cache.put(netlist, AtpgConfig(seed=1), result)
        assert cache.get(netlist, AtpgConfig()) is None  # evicted
        assert cache.get(netlist, AtpgConfig(seed=1)) is not None

    def test_clear(self, netlist, tmp_path):
        cache = AtpgResultCache(tmp_path)
        cache.put(netlist, AtpgConfig(), generate_tests(netlist))
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.get(netlist, AtpgConfig()) is None

    def test_env_var_override(self, tmp_path, monkeypatch):
        from repro.runtime import default_cache_dir

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env_cache"))
        assert default_cache_dir() == tmp_path / "env_cache"


class TestExecutor:
    def test_serial_parallel_determinism(self, netlist, other_netlist):
        jobs = [
            AtpgJob(name=f"j{seed}", netlist=n, config=AtpgConfig(seed=seed))
            for seed in (0, 1, 2)
            for n in (netlist, other_netlist)
        ]
        serial, manifest1 = run_jobs(jobs, workers=1)
        parallel, manifest4 = run_jobs(jobs, workers=4)
        assert manifest1.workers == 1 and manifest4.workers == 4
        for a, b in zip(serial, parallel):
            assert_same_result(a, b)

    def test_results_align_with_job_order(self, netlist, other_netlist):
        jobs = [
            AtpgJob(name="a", netlist=netlist),
            AtpgJob(name="b", netlist=other_netlist),
        ]
        results, manifest = run_jobs(jobs, workers=2)
        assert [r.circuit_name for r in results] == ["rt_core", "rt_other"]
        assert [r.name for r in manifest.records] == ["a", "b"]

    def test_cache_integration_hit_rate(self, netlist, tmp_path):
        cache = AtpgResultCache(tmp_path)
        jobs = [AtpgJob(name=f"j{s}", netlist=netlist, config=AtpgConfig(seed=s))
                for s in range(3)]
        cold, cold_manifest = run_jobs(jobs, cache=cache)
        warm, warm_manifest = run_jobs(jobs, cache=cache)
        assert cold_manifest.hit_rate == 0.0
        assert warm_manifest.hit_rate == 1.0
        assert warm_manifest.atpg_seconds == 0.0
        for a, b in zip(cold, warm):
            assert_same_result(a, b)

    def test_rejects_bad_worker_count(self, netlist):
        with pytest.raises(ValueError):
            run_jobs([AtpgJob(name="x", netlist=netlist)], workers=0)

    @pytest.mark.parametrize("workers", ["2", 1.5, True, None])
    def test_rejects_mistyped_worker_count(self, netlist, workers):
        with pytest.raises(ConfigError):
            run_jobs([AtpgJob(name="x", netlist=netlist)], workers=workers)
        with pytest.raises(ConfigError):
            Runtime(workers=workers)


class TestRuntimeFacade:
    def test_neutral_runtime_matches_direct_call(self, netlist):
        direct = generate_tests(netlist, seed=5)
        via = ensure_runtime(None).generate(netlist, config=AtpgConfig(seed=5))
        assert_same_result(direct, via)

    def test_manifest_accumulates(self, netlist, other_netlist):
        runtime = Runtime()
        runtime.generate(netlist)
        runtime.map([AtpgJob(name="o", netlist=other_netlist)])
        assert runtime.manifest.job_count == 2
        assert "2 ATPG jobs" in runtime.summary()

    def test_from_flags_no_cache(self):
        runtime = Runtime.from_flags(no_cache=True, workers=2, seed=4)
        assert runtime.cache is None
        assert runtime.workers == 2
        assert runtime.config.seed == 4

    def test_from_flags_cache_dir(self, tmp_path):
        runtime = Runtime.from_flags(cache_dir=str(tmp_path / "c"))
        assert runtime.cache is not None
        assert runtime.cache.directory == tmp_path / "c"


class TestCliPlumbing:
    def test_atpg_flags(self, tmp_path, capsys):
        from repro.circuit import save_bench_file
        from repro.cli import main

        netlist = generate_circuit(
            GeneratorSpec(name="clirt", inputs=6, outputs=3, flip_flops=4,
                          target_gates=40, seed=5)
        )
        bench = tmp_path / "clirt.bench"
        save_bench_file(bench, netlist)
        cache_dir = tmp_path / "cache"
        argv = ["atpg", str(bench), "--workers", "2",
                "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "fault coverage" in cold.out
        assert "0 cache hits" in cold.err
        assert any(cache_dir.glob("*.json"))  # result persisted
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out  # byte-identical through the cache
        assert "1 cache hits (100%)" in warm.err

    def test_no_cache_flag_leaves_no_files(self, tmp_path, capsys):
        from repro.circuit import save_bench_file
        from repro.cli import main

        netlist = generate_circuit(
            GeneratorSpec(name="clirt2", inputs=6, outputs=3, flip_flops=4,
                          target_gates=40, seed=5)
        )
        bench = tmp_path / "clirt2.bench"
        save_bench_file(bench, netlist)
        cache_dir = tmp_path / "cache"
        assert main(["atpg", str(bench), "--no-cache",
                     "--cache-dir", str(cache_dir)]) == 0
        assert not cache_dir.exists()

    def test_runner_seed_threads_into_synthetic_sweep(self, tmp_path, capsys):
        """--seed reaches experiments that used to drop it (correlation)."""
        from repro.cli import main

        base = ["experiments", "correlation", "--no-cache"]
        assert main(base) == 0
        default_out = capsys.readouterr().out
        assert main(base + ["--seed", "99"]) == 0
        seeded_out = capsys.readouterr().out
        # The benchmark half (published data) is identical; the seeded
        # synthetic sweep differs.
        assert default_out != seeded_out
        assert default_out.split("synthetic sweep")[0] == \
            seeded_out.split("synthetic sweep")[0]

    def test_runner_manifest_on_stderr(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        argv = ["experiments", "cone-example", "--cache-dir", cache_dir]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "[runtime]" in cold.err and "0 cache hits" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "(100%)" in warm.err

    def test_serialized_entries_are_valid_json(self, netlist, tmp_path):
        cache = AtpgResultCache(tmp_path)
        cache.put(netlist, AtpgConfig(), generate_tests(netlist))
        (path,) = tmp_path.glob("*.json")
        payload = json.loads(path.read_text())
        assert payload["result"]["circuit"] == "rt_core"
        assert payload["config"] == AtpgConfig().to_dict()