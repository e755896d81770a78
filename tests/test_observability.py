"""Tests for repro.observability and its threading through the stack.

The load-bearing property is the differential one: a traced run must be
bit-identical to an untraced run — instrumentation observes, it never
participates.
"""

import json

import pytest

from repro.atpg.engine import generate_tests
from repro.observability import (
    NULL_TRACER,
    JsonlSink,
    MemorySink,
    Tracer,
    get_tracer,
    load_trace,
    phase_breakdown,
    register_counter,
    register_gauge,
    registered_metrics,
    set_tracer,
    summary_table,
    use_tracer,
)
from repro.runtime import AtpgConfig, AtpgResultCache, Runtime
from repro.runtime.executor import AtpgJob, run_jobs


class TestTracer:
    def test_span_nesting_depths(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("middle", tag="x"):
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["middle"].depth == 1
        assert by_name["inner"].depth == 2
        assert by_name["sibling"].depth == 1
        assert by_name["middle"].attrs == {"tag": "x"}
        # Preorder: parents recorded before their children.
        assert [s.name for s in tracer.spans] == [
            "outer", "middle", "inner", "sibling",
        ]

    def test_span_durations_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert 0 <= inner.duration <= outer.duration

    def test_span_name_attr_allowed(self):
        tracer = Tracer()
        with tracer.span("experiment", name="table1"):
            pass
        assert tracer.spans[0].attrs == {"name": "table1"}

    def test_counters_and_gauges(self):
        tracer = Tracer()
        tracer.count("c", 2)
        tracer.count("c")
        tracer.gauge("g", 0.5)
        tracer.gauge("g", 0.7)
        assert tracer.counters == {"c": 3}
        assert tracer.gauges == {"g": 0.7}

    def test_null_tracer_is_default_and_inert(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything", attr=1):
            NULL_TRACER.count("c")
            NULL_TRACER.gauge("g", 1.0)

    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        with use_tracer(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_restores_null(self):
        previous = set_tracer(Tracer())
        assert previous is NULL_TRACER
        set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_merge_rebases_depth_and_sums_counters(self):
        child = Tracer()
        with child.span("atpg"):
            with child.span("podem"):
                pass
        child.count("podem.calls", 4)
        parent = Tracer()
        parent.count("podem.calls", 1)
        with parent.span("experiment"):
            parent.merge(child.export(), job="core0")
        names = {(s.name, s.depth) for s in parent.spans}
        assert ("atpg", 1) in names
        assert ("podem", 2) in names
        root = next(s for s in parent.spans if s.name == "atpg")
        assert root.attrs["job"] == "core0"
        assert parent.counters["podem.calls"] == 5


class TestMetricsRegistry:
    def test_register_returns_name(self):
        name = register_counter("test.registry.counter", "a test counter")
        assert name == "test.registry.counter"
        assert registered_metrics()[name].help == "a test counter"

    def test_kind_conflict_rejected(self):
        register_gauge("test.registry.gauge", "a test gauge")
        with pytest.raises(ValueError):
            register_counter("test.registry.gauge", "not a gauge")

    def test_stack_metrics_registered_on_import(self):
        names = set(registered_metrics())
        assert {"atpg.runs", "podem.calls", "faultsim.gate_evals",
                "random_phase.batches", "cache.hits",
                "executor.utilization"} <= names


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", k="v"):
            with tracer.span("b"):
                pass
        tracer.count("n", 7)
        tracer.gauge("g", 0.25)
        path = tmp_path / "trace.jsonl"
        tracer.sinks.append(JsonlSink(str(path)))
        tracer.flush()

        loaded = load_trace(str(path))
        assert loaded["spans"] == [s.to_dict() for s in tracer.spans]
        assert loaded["counters"] == tracer.counters
        assert loaded["gauges"] == tracer.gauges
        assert loaded["meta"][0]["spans"] == len(tracer.spans)
        # Every line is self-describing JSON.
        for line in path.read_text().splitlines():
            assert "type" in json.loads(line)

    def test_append_mode_accumulates_traces(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for value in (1, 2):
            tracer = Tracer()
            tracer.count("n", value)
            tracer.sinks.append(JsonlSink(str(path), append=True))
            tracer.flush()
        loaded = load_trace(str(path))
        assert len(loaded["meta"]) == 2
        assert loaded["counters"]["n"] == 3  # appended traces sum

    def test_memory_sink_collects(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        sink = MemorySink()
        tracer.sinks.append(sink)
        tracer.flush()
        assert sink.closed
        assert [e["type"] for e in sink.events] == ["meta", "span"]

    def test_summary_table_mentions_registered_help(self):
        tracer = Tracer()
        with tracer.span("podem"):
            pass
        tracer.count("podem.calls", 3)
        text = summary_table(tracer)
        assert "podem" in text
        assert "podem.calls" in text
        assert "PODEM searches attempted" in text

    def test_summary_table_empty(self):
        assert "no telemetry" in summary_table(Tracer())


class TestInstrumentedEngine:
    def test_differential_traced_vs_untraced(self, c17):
        """Tracing must not change patterns, coverage, or run identity."""
        config = AtpgConfig(seed=11, dynamic_compaction=2)
        baseline = generate_tests(c17, config=config)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = generate_tests(c17, config=config)
        assert [p.assignments for p in traced.test_set.patterns] == (
            [p.assignments for p in baseline.test_set.patterns]
        )
        assert traced.detected_count == baseline.detected_count
        assert traced.fault_coverage == baseline.fault_coverage
        assert traced.untestable == baseline.untestable
        assert traced.aborted == baseline.aborted
        # The run's cache identity is untouched by instrumentation.
        assert AtpgConfig(seed=11, dynamic_compaction=2).fingerprint() == (
            config.fingerprint()
        )

    def test_engine_emits_phases_and_counters(self, c17):
        tracer = Tracer()
        with use_tracer(tracer):
            result = generate_tests(c17, seed=3)
        phases = phase_breakdown(tracer.export())
        assert {"compile", "random_phase", "podem", "compact",
                "fill", "verify"} <= set(phases)
        assert tracer.counters["atpg.runs"] == 1
        assert tracer.counters["atpg.patterns.final"] == result.pattern_count
        assert tracer.counters["atpg.faults.total"] == result.fault_count
        assert tracer.counters["faultsim.detect_calls"] > 0

    def test_untraced_run_records_nothing(self, c17):
        generate_tests(c17, seed=3)
        assert get_tracer() is NULL_TRACER


class TestExecutorTracing:
    def _jobs(self, c17, count=3):
        return [
            AtpgJob(f"job{i}", c17, AtpgConfig(seed=i)) for i in range(count)
        ]

    def test_counter_aggregation_across_workers(self, c17):
        """Counters from pool children merge into the parent tracer.

        With workers=2 the jobs cross a process boundary (or the serial
        fallback in restricted sandboxes — same contract either way).
        """
        serial = Tracer()
        with use_tracer(serial):
            results_serial, _ = run_jobs(self._jobs(c17), workers=1)
        parallel = Tracer()
        with use_tracer(parallel):
            results_parallel, _ = run_jobs(self._jobs(c17), workers=2)
        assert parallel.counters["atpg.runs"] == 3
        for name in ("podem.calls", "faultsim.detect_calls",
                     "atpg.patterns.final"):
            assert parallel.counters.get(name) == serial.counters.get(name)
        assert [r.pattern_count for r in results_parallel] == (
            [r.pattern_count for r in results_serial]
        )

    def test_merged_spans_carry_job_attribution(self, c17):
        tracer = Tracer()
        with use_tracer(tracer):
            run_jobs(self._jobs(c17), workers=2)
        roots = [s for s in tracer.spans if s.name == "atpg"]
        assert sorted(s.attrs["job"] for s in roots) == ["job0", "job1", "job2"]

    def test_manifest_gains_phase_breakdown(self, c17):
        tracer = Tracer()
        with use_tracer(tracer):
            _, manifest = run_jobs(self._jobs(c17), workers=1)
        assert manifest.phase_seconds
        assert "podem" in manifest.phase_seconds
        assert "phases:" in manifest.summary()

    def test_untraced_manifest_has_no_phases(self, c17):
        _, manifest = run_jobs(self._jobs(c17), workers=1)
        assert manifest.phase_seconds == {}
        assert "phases:" not in manifest.summary()

    def test_cache_counters(self, c17, tmp_path):
        cache = AtpgResultCache(tmp_path / "cache")
        tracer = Tracer()
        with use_tracer(tracer):
            run_jobs(self._jobs(c17), workers=1, cache=cache)
            run_jobs(self._jobs(c17), workers=1, cache=cache)
        assert tracer.counters["cache.misses"] == 3
        assert tracer.counters["cache.hits"] == 3
        assert tracer.counters["cache.stores"] == 3


class TestRuntimeTracing:
    def test_runtime_pins_its_tracer(self, c17):
        tracer = Tracer()
        runtime = Runtime(tracer=tracer)
        runtime.generate(c17)
        assert tracer.counters["atpg.runs"] == 1

    def test_from_flags_builds_tracer_and_sink(self, tmp_path, c17):
        path = tmp_path / "run.jsonl"
        runtime = Runtime.from_flags(
            no_cache=True, trace=str(path), metrics=True
        )
        assert runtime.metrics_requested
        runtime.generate(c17)
        runtime.tracer.flush()
        loaded = load_trace(str(path))
        assert any(s["name"] == "atpg" for s in loaded["spans"])
        assert loaded["counters"]["atpg.runs"] == 1

    def test_from_flags_derives_from_base_config(self):
        """Regression: seed override must not discard other config fields."""
        base = AtpgConfig(seed=1, dynamic_compaction=4, backtrack_limit=7)
        runtime = Runtime.from_flags(no_cache=True, seed=9, config=base)
        assert runtime.config.seed == 9
        assert runtime.config.dynamic_compaction == 4
        assert runtime.config.backtrack_limit == 7
        # And with no seed the base config passes through untouched.
        assert Runtime.from_flags(no_cache=True, config=base).config == base
