"""Tests for the generic sweep engine and its consumers.

Covers the four pieces of :mod:`repro.sweeps` (spec, aggregate, store,
engine), the :mod:`repro.core.sweep` helpers rebuilt on top of it, the
per-core seed streams of ``synthetic_soc``, the population study, and
the experiment registry.  The determinism contract — serial, parallel,
and killed-and-resumed runs produce byte-identical aggregates — is the
load-bearing property and gets the most scrutiny, including a real
SIGKILL of a population run mid-flight.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.analysis import pearson_correlation
from repro.core.sweep import (
    point_from_record,
    sweep_core_count,
    sweep_pattern_variation,
    synthetic_soc,
)
from repro.errors import ConfigError, JobRetriesExhaustedError
from repro.experiments import registry
from repro.runtime.chaos import ChaosConfig
from repro.runtime.policy import ExecutionPolicy
from repro.runtime.session import Runtime
from repro.sweeps import (
    Axis,
    BinnedMean,
    FractionTrue,
    JsonlPointSink,
    ParetoFront,
    RunningStats,
    StreamingRegression,
    SweepEngine,
    SweepSpec,
    derive_seed,
)
from repro.synth.population import (
    evaluate_population_point,
    population_spec,
    profile_io_bounds,
    profile_scan_bounds,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def eval_linear(point):
    """y = 3x + 1 with a per-point tag; module-level so pools pickle it."""
    x = float(point.params["x"])
    return {"index": point.index, "x": x, "y": 3.0 * x + 1.0,
            "seed": point.seed}


#: When set, :func:`eval_linear_dying` raises on every point index >=
#: the threshold — the in-process stand-in for a mid-run kill.
DIE_AT = {"threshold": None}


def eval_linear_dying(point):
    threshold = DIE_AT["threshold"]
    if threshold is not None and point.index >= threshold:
        raise RuntimeError(f"injected death at point {point.index}")
    return eval_linear(point)


def grid_spec(n=10, name="lin", seed=4, **overrides):
    kwargs = dict(
        name=name,
        axes=(Axis.grid("x", [float(i) for i in range(n)]),),
        seed=seed,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(3, "population", "point", 7) == \
            derive_seed(3, "population", "point", 7)
        seeds = {derive_seed(3, "population", "point", i) for i in range(100)}
        assert len(seeds) == 100

    def test_sensitive_to_every_part(self):
        base = derive_seed(1, "a", 0)
        assert base != derive_seed(2, "a", 0)
        assert base != derive_seed(1, "b", 0)
        assert base != derive_seed(1, "a", 1)

    def test_fits_in_63_bits(self):
        for i in range(50):
            assert 0 <= derive_seed("bits", i) < 2 ** 63


class TestAxis:
    def test_grid_sampling_maps_unit_interval_onto_values(self):
        axis = Axis.grid("g", [10, 20, 30])
        assert axis.sample(0.0) == 10
        assert axis.sample(0.5) == 20
        assert axis.sample(0.999) == 30

    def test_uniform_and_log_uniform_ranges(self):
        uni = Axis.uniform("u", 2.0, 6.0)
        assert uni.sample(0.0) == 2.0
        assert uni.sample(0.5) == 4.0
        log = Axis.log_uniform("l", 1.0, 100.0)
        assert log.sample(0.5) == pytest.approx(10.0)

    def test_integers_inclusive(self):
        axis = Axis.integers("i", 4, 6)
        seen = {axis.sample(u / 100) for u in range(100)}
        assert seen == {4, 5, 6}

    def test_validation(self):
        with pytest.raises(ConfigError):
            Axis.grid("empty", [])
        with pytest.raises(ConfigError):
            Axis.uniform("bad", 5.0, 5.0)
        with pytest.raises(ConfigError):
            Axis.log_uniform("bad", 0.0, 1.0)
        with pytest.raises(ConfigError):
            Axis(name="", kind="uniform", low=0.0, high=1.0)


class TestSweepSpec:
    def test_grid_walks_cartesian_product_first_axis_slowest(self):
        spec = SweepSpec(
            name="g",
            axes=(Axis.grid("a", [1, 2]), Axis.grid("b", ["x", "y"])),
        )
        combos = [(p.params["a"], p.params["b"]) for p in spec.points()]
        assert combos == [(1, "x"), (1, "y"), (2, "x"), (2, "y")]
        assert spec.point_count == 4

    def test_constants_merged_and_protected(self):
        spec = grid_spec(constants={"k": 7})
        assert all(p.params["k"] == 7 for p in spec.points())
        with pytest.raises(ConfigError, match="shadow"):
            grid_spec(constants={"x": 1})

    def test_validation(self):
        with pytest.raises(ConfigError, match="duplicate"):
            SweepSpec(name="d", axes=(Axis.grid("x", [1]), Axis.grid("x", [2])))
        with pytest.raises(ConfigError, match="grid"):
            SweepSpec(name="g", axes=(Axis.uniform("u", 0, 1),))
        with pytest.raises(ConfigError, match="samples"):
            SweepSpec(name="r", axes=(Axis.uniform("u", 0, 1),),
                      sampling="random")

    def test_point_seeds_are_derived_and_unique(self):
        spec = grid_spec(n=20)
        seeds = [p.seed for p in spec.points()]
        assert len(set(seeds)) == 20
        assert seeds == [p.seed for p in spec.points()]
        assert [p.seed for p in grid_spec(n=20, seed=5).points()] != seeds

    def test_latin_sampling_stratifies_every_axis(self):
        spec = SweepSpec(
            name="lhs", axes=(Axis.uniform("u", 0.0, 1.0),),
            sampling="latin", samples=8, seed=2,
        )
        values = sorted(p.params["u"] for p in spec.points())
        for i, value in enumerate(values):
            assert i / 8 <= value < (i + 1) / 8

    def test_axes_sample_independently(self):
        # Adding an axis must not change what another axis samples.
        one = SweepSpec(name="s", axes=(Axis.uniform("u", 0, 1),),
                        sampling="random", samples=6, seed=3)
        two = SweepSpec(name="s", axes=(Axis.uniform("u", 0, 1),
                                        Axis.uniform("v", 0, 1)),
                        sampling="random", samples=6, seed=3)
        assert [p.params["u"] for p in one.points()] == \
            [p.params["u"] for p in two.points()]

    def test_fingerprint_tracks_identity(self):
        assert grid_spec().fingerprint() == grid_spec().fingerprint()
        assert grid_spec().fingerprint() != grid_spec(seed=9).fingerprint()
        assert grid_spec().fingerprint() != grid_spec(n=11).fingerprint()


class TestAggregators:
    VALUES = [3.0, -1.5, 4.25, 0.0, 2.5, 10.0, -3.75]

    def records(self):
        return [{"x": float(i), "y": value}
                for i, value in enumerate(self.VALUES)]

    def test_running_stats_matches_statistics_module(self):
        stats = RunningStats("y")
        for record in self.records():
            stats.add(record)
        assert stats.count == len(self.VALUES)
        assert stats.mean == pytest.approx(statistics.fmean(self.VALUES))
        assert stats.stdev == pytest.approx(statistics.stdev(self.VALUES))
        assert stats.minimum == min(self.VALUES)
        assert stats.maximum == max(self.VALUES)

    def test_streaming_regression_matches_batch_pearson(self):
        reg = StreamingRegression("x", "y")
        for record in self.records():
            reg.add(record)
        xs = [r["x"] for r in self.records()]
        ys = [r["y"] for r in self.records()]
        assert reg.pearson == pytest.approx(pearson_correlation(xs, ys))
        # Exact line recovery on exact data.
        exact = StreamingRegression("x", "y")
        for x in range(10):
            exact.add({"x": x, "y": 3.0 * x + 1.0})
        assert exact.pearson == pytest.approx(1.0)
        assert exact.slope == pytest.approx(3.0)
        assert exact.intercept == pytest.approx(1.0)

    def test_regression_degenerate_cases(self):
        reg = StreamingRegression("x", "y")
        assert reg.pearson == 0.0
        reg.add({"x": 1, "y": 2})
        assert reg.pearson == 0.0  # one point
        reg.add({"x": 1, "y": 5})
        assert reg.pearson == 0.0  # zero x-variance

    def test_fraction_true(self):
        frac = FractionTrue("win")
        for win in (True, False, True, True):
            frac.add({"win": win})
        assert frac.fraction == pytest.approx(0.75)

    def test_binned_mean(self):
        bins = BinnedMean("x", "y", edges=(2.0, 4.0))
        for record in [{"x": 1, "y": 10}, {"x": 3, "y": 20},
                       {"x": 3.5, "y": 40}, {"x": 9, "y": 7}]:
            bins.add(record)
        rows = bins.rows()
        assert [row["bin"] for row in rows] == ["< 2", "2 - 4", ">= 4"]
        assert [row["count"] for row in rows] == [1, 2, 1]
        assert rows[1]["mean"] == pytest.approx(30.0)
        with pytest.raises(ValueError, match="ascending"):
            BinnedMean("x", "y", edges=(4.0, 2.0))

    def test_pareto_front_keeps_non_dominated(self):
        front = ParetoFront(fields=("w", "t"), keep=("label",))
        front.add({"w": 8, "t": 100, "label": "a"})
        front.add({"w": 4, "t": 200, "label": "b"})
        front.add({"w": 8, "t": 150, "label": "dominated"})
        front.add({"w": 2, "t": 400, "label": "c"})
        points = front.points()
        assert [p["label"] for p in points] == ["c", "b", "a"]
        assert front.count == 4
        assert front.result()["size"] == 3

    def test_pareto_front_is_arrival_order_independent(self):
        records = [{"w": w, "t": 100 - 3 * w, "extra": w % 2} for w in range(12)]
        forward, backward = ParetoFront(("w", "t")), ParetoFront(("w", "t"))
        for record in records:
            forward.add(record)
        for record in reversed(records):
            backward.add(record)
        assert forward.points() == backward.points()

    def test_pareto_front_evicts_newly_dominated(self):
        front = ParetoFront(fields=("w", "t"))
        front.add({"w": 4, "t": 100})
        front.add({"w": 8, "t": 50})
        front.add({"w": 4, "t": 50})  # dominates both
        assert front.points() == [{"w": 4, "t": 50}]

    def test_pareto_front_rejects_empty_fields(self):
        with pytest.raises(ValueError, match="at least one"):
            ParetoFront(fields=())

    def test_jsonl_sink_rewrites_from_scratch(self, tmp_path):
        path = tmp_path / "points.jsonl"
        for _ in range(2):  # second pass simulates a resumed replay
            sink = JsonlPointSink(path)
            sink.add({"b": 2, "a": 1})
            sink.add({"a": 3})
            sink.close()
        lines = path.read_text().splitlines()
        assert lines == ['{"a": 1, "b": 2}', '{"a": 3}']


class TestSweepEngine:
    def test_serial_run_collects_records_in_point_order(self):
        result = SweepEngine(shard_size=3).run(
            grid_spec(), eval_linear, collect=True
        )
        assert result.point_count == 10
        assert result.shard_count == 4
        assert result.executed_shards == 4
        assert [r["index"] for r in result.records] == list(range(10))

    def test_shard_size_validation(self):
        with pytest.raises(ConfigError):
            SweepEngine(shard_size=0)

    def test_parallel_records_and_aggregates_match_serial(self):
        serial_reg = StreamingRegression("x", "y")
        serial = SweepEngine(shard_size=2).run(
            grid_spec(), eval_linear, aggregators=(serial_reg,), collect=True
        )
        parallel_reg = StreamingRegression("x", "y")
        parallel = SweepEngine(Runtime(workers=2), shard_size=2).run(
            grid_spec(), eval_linear, aggregators=(parallel_reg,), collect=True
        )
        assert parallel.records == serial.records
        assert parallel_reg.result() == serial_reg.result()

    def test_aggregates_keyed_by_aggregator_name(self):
        result = SweepEngine().run(
            grid_spec(), eval_linear,
            aggregators=(RunningStats("y"), StreamingRegression("x", "y")),
        )
        assert result.aggregates["stats(y)"]["count"] == 10
        assert result.aggregates["regression(y ~ x)"]["pearson"] == \
            pytest.approx(1.0)

    def test_fresh_run_refuses_dirty_store_dir(self, tmp_path):
        engine = SweepEngine(shard_size=4)
        engine.run(grid_spec(), eval_linear, store_dir=tmp_path)
        with pytest.raises(ConfigError, match="resume"):
            engine.run(grid_spec(), eval_linear, store_dir=tmp_path)

    def test_resume_replays_without_reexecution(self, tmp_path):
        engine = SweepEngine(shard_size=3)
        first = engine.run(
            grid_spec(), eval_linear, store_dir=tmp_path, collect=True
        )
        again = engine.run(
            grid_spec(), eval_linear, store_dir=tmp_path, resume=True,
            collect=True,
        )
        assert again.executed_shards == 0
        assert again.resumed_shards == first.shard_count
        assert again.records == first.records

    def test_resume_refuses_foreign_sweep_directory(self, tmp_path):
        SweepEngine(shard_size=3).run(
            grid_spec(), eval_linear, store_dir=tmp_path
        )
        with pytest.raises(ConfigError, match="different sweep"):
            SweepEngine(shard_size=3).run(
                grid_spec(seed=99), eval_linear, store_dir=tmp_path,
                resume=True,
            )

    def test_corrupt_shard_is_quarantined_and_recomputed(self, tmp_path):
        engine = SweepEngine(shard_size=3)
        first = engine.run(
            grid_spec(), eval_linear, store_dir=tmp_path, collect=True
        )
        (tmp_path / "shards" / "shard-000001.json").write_text("{garbage")
        again = engine.run(
            grid_spec(), eval_linear, store_dir=tmp_path, resume=True,
            collect=True,
        )
        assert again.executed_shards == 1
        assert again.resumed_shards == first.shard_count - 1
        assert again.records == first.records

    def test_killed_run_resumes_to_identical_records(self, tmp_path):
        engine = SweepEngine(shard_size=2)
        uninterrupted = engine.run(grid_spec(), eval_linear, collect=True)
        DIE_AT["threshold"] = 5  # dies inside the third shard
        try:
            with pytest.raises(RuntimeError, match="injected death"):
                engine.run(
                    grid_spec(), eval_linear_dying,
                    store_dir=tmp_path / "run",
                )
        finally:
            DIE_AT["threshold"] = None
        survivors = list((tmp_path / "run" / "shards").glob("shard-*.json"))
        assert 0 < len(survivors) < 5
        resumed = engine.run(
            grid_spec(), eval_linear, store_dir=tmp_path / "run",
            resume=True, collect=True,
        )
        assert resumed.resumed_shards == len(survivors)
        assert resumed.executed_shards == 5 - len(survivors)
        assert resumed.records == uninterrupted.records

    def test_flaky_shards_are_retried_under_policy(self):
        runtime = Runtime(policy=ExecutionPolicy(
            max_attempts=3, chaos=ChaosConfig(flaky_attempts=1),
        ))
        result = SweepEngine(runtime, shard_size=5).run(
            grid_spec(), eval_linear, collect=True
        )
        assert [r["index"] for r in result.records] == list(range(10))

    def test_retries_exhausted_raises(self):
        runtime = Runtime(policy=ExecutionPolicy(
            max_attempts=2, chaos=ChaosConfig(flaky_attempts=5),
        ))
        with pytest.raises(JobRetriesExhaustedError):
            SweepEngine(runtime, shard_size=5).run(grid_spec(), eval_linear)

    def test_manifest_is_deterministic(self, tmp_path):
        engine = SweepEngine(shard_size=3)
        engine.run(grid_spec(), eval_linear, store_dir=tmp_path / "a")
        engine.run(grid_spec(), eval_linear, store_dir=tmp_path / "b")
        assert (tmp_path / "a" / "sweep.json").read_bytes() == \
            (tmp_path / "b" / "sweep.json").read_bytes()


class TestCoreSweepOnEngine:
    def test_points_match_direct_analysis(self):
        from repro.core.analysis import analyze

        points = sweep_pattern_variation([0.0, 1.0], seed=5)
        direct = analyze(synthetic_soc(
            name="sweep_spread_1", core_count=10, mean_patterns=200,
            pattern_spread=1.0, seed=5,
        ))
        assert points[1].parameter == 1.0
        assert points[1].analysis.summary == direct.summary
        assert points[1].analysis.pattern_variation == \
            direct.pattern_variation

    def test_parameter_value_preserved_verbatim(self):
        points = sweep_pattern_variation([0, 1.5])
        assert isinstance(points[0].parameter, int)
        assert isinstance(points[1].parameter, float)

    def test_runtime_workers_do_not_change_results(self):
        spreads = (0.0, 0.5, 1.0, 1.5)
        serial = sweep_pattern_variation(spreads)
        parallel = sweep_pattern_variation(
            spreads, runtime=Runtime(workers=2)
        )
        assert serial == parallel

    def test_core_count_validation(self):
        with pytest.raises(ValueError):
            sweep_core_count([0])

    def test_point_record_round_trip(self):
        from repro.core.sweep import analysis_record

        soc = synthetic_soc("rt", 4, 100, 0.5, seed=2)
        record = analysis_record(0.5, soc)
        replayed = json.loads(json.dumps(record))  # exact float round-trip
        point = point_from_record(replayed)
        assert point.parameter == 0.5
        assert point.analysis.summary.soc_name == "rt"
        assert point_from_record(record) == point


class TestSyntheticSocSeedStreams:
    def test_default_reproduces_shared_stream(self):
        import random

        soc = synthetic_soc("s", 3, 100, 1.0, seed=9)
        rng = random.Random(9)
        expected = [max(1, round(100 * rng.lognormvariate(0.0, 1.0)))
                    for _ in range(3)]
        assert [c.patterns for c in soc.cores[1:]] == expected

    def test_streams_independent_of_core_count(self):
        small = synthetic_soc("s", 4, 100, 1.0, seed=9,
                              core_seed_streams=True)
        large = synthetic_soc("s", 9, 100, 1.0, seed=9,
                              core_seed_streams=True)
        assert [c.patterns for c in small.cores[1:]] == \
            [c.patterns for c in large.cores[1:5]]

    def test_streams_differ_by_seed(self):
        one = synthetic_soc("s", 6, 100, 1.0, seed=1, core_seed_streams=True)
        two = synthetic_soc("s", 6, 100, 1.0, seed=2, core_seed_streams=True)
        assert [c.patterns for c in one.cores[1:]] != \
            [c.patterns for c in two.cores[1:]]


class TestPopulation:
    def test_spec_respects_profile_bounds(self):
        spec = population_spec(64, seed=1)
        scan_lo, scan_hi = profile_scan_bounds()
        io_lo, io_hi = profile_io_bounds()
        points = list(spec.points())
        assert len(points) == 64
        for point in points:
            assert 4 <= point.params["core_count"] <= 24
            assert scan_lo <= point.params["scan_cells_per_core"] <= scan_hi
            assert io_lo <= point.params["io_per_core"] <= io_hi
            assert 0.0 <= point.params["pattern_spread"] <= 2.5

    def test_record_is_internally_consistent(self):
        point = next(iter(population_spec(8, seed=3).points()))
        record = evaluate_population_point(point)
        assert record["modular_wins"] == \
            (record["tdv_modular"] < record["tdv_monolithic"])
        expected = -100.0 * (
            (record["tdv_modular"] - record["tdv_monolithic"])
            / record["tdv_monolithic"]
        )
        assert record["reduction_pct"] == pytest.approx(expected)

    def test_correlation_holds_at_small_scale(self):
        trend = StreamingRegression("nsd", "reduction_pct")
        SweepEngine(shard_size=50).run(
            population_spec(200, seed=11), evaluate_population_point,
            aggregators=(trend,),
        )
        assert trend.pearson > 0.3
        assert trend.slope > 0


class TestExperimentRegistry:
    def test_registered_names_in_declared_order(self):
        from repro.experiments.runner import EXPERIMENTS

        assert EXPERIMENTS == (
            "cone-example", "table1", "table2", "table3", "table4",
            "correlation", "ablation", "extensions", "tam", "population",
        )

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            registry.get("not-an-experiment")

    def test_duplicate_registration_rejected(self, monkeypatch):
        monkeypatch.setattr(registry, "_REGISTRY", {})
        registry.experiment("one", order=1)(lambda **kw: None)
        with pytest.raises(ValueError, match="registered twice"):
            registry.experiment("one", order=2)(lambda **kw: None)
        with pytest.raises(ValueError, match="reuses order"):
            registry.experiment("two", order=1)(lambda **kw: None)

    def test_group_dedupe_key(self):
        entry = registry.get("table3")
        assert entry.dedupe_key == "itc02"
        assert registry.get("correlation").dedupe_key == "correlation"


class TestPopulationCliKillAndResume:
    """Satellite chaos harness: SIGKILL a population run, then resume."""

    ENV = {
        "REPRO_POPULATION_N": "60",
        "REPRO_POPULATION_SHARD": "10",
        "PYTHONPATH": str(REPO_ROOT / "src"),
    }

    def _run(self, tmp_path, *extra, chaos=None, **popen_kwargs):
        env = dict(os.environ)
        env.update(self.ENV)
        env.pop("REPRO_CHAOS", None)
        if chaos:
            env["REPRO_CHAOS"] = chaos
        cmd = [sys.executable, "-m", "repro.cli", "experiments",
               "population", "--no-cache", *extra]
        return subprocess.Popen(
            cmd, env=env, cwd=tmp_path, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, **popen_kwargs,
        )

    def test_sigkilled_population_run_resumes_byte_identically(self, tmp_path):
        reference = self._run(tmp_path)
        ref_out, _ = reference.communicate(timeout=120)
        assert reference.returncode == 0

        # Hang chaos slows every shard attempt, so the kill lands
        # mid-sweep; the journal keeps whatever shards completed.
        victim = self._run(
            tmp_path, "--run-dir", str(tmp_path / "run"),
            chaos="hang_seconds=0.5,hang_attempts=100",
        )
        time.sleep(2.5)
        victim.kill()
        victim.communicate(timeout=30)
        assert victim.returncode != 0

        resumed = self._run(
            tmp_path, "--run-dir", str(tmp_path / "run"), "--resume"
        )
        out, err = resumed.communicate(timeout=120)
        assert resumed.returncode == 0
        assert out == ref_out
        assert "[sweep] population: 60 points" in err
