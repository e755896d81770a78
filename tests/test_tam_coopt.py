"""The unified wrapper/TAM co-optimization surface (repro.tam.problem).

Covers the redesigned API (TamProblem / cooptimize / CoOptResult /
design_space / pareto_front), the best-fit rectangle packer and its
differential guarantees against the greedy baseline, the closed-form
wrapper fast path against a reference copy of the binary-search /
full-scan implementation it replaced, the typed input and scheduling
errors, and the ``tam`` experiment's byte-identity across serial,
parallel and killed-and-resumed runs.
"""

import heapq
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ReproError, ScheduleError
from repro.itc02 import BENCHMARK_NAMES, load, load_many
from repro.tam import (
    SCHEDULERS,
    CoreTestSpec,
    ParetoPoint,
    Schedule,
    ScheduledTest,
    TamProblem,
    cooptimize,
    core_specs_from_soc,
    design_space,
    design_wrapper,
    makespan_lower_bound,
    pareto_front,
    pareto_widths,
    partition_scan_lengths,
    schedule_best_fit,
    schedule_greedy,
    schedule_serial,
    spread_level,
    wrapper_bottlenecks,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


# -- reference implementation -------------------------------------------------
#
# The width -> test-time path as it stood before the closed-form fast
# path: an LPT heap partition at every width, a binary search for each
# water-filling level, and a staircase scan over every width up to the
# limit.  Slow but obviously faithful to design_wrapper; the fast path
# must reproduce its integers exactly.


def reference_partition(scan_chains, tam_width):
    heap = [(0, index) for index in range(tam_width)]
    lengths = [0] * tam_width
    for length in sorted(scan_chains, reverse=True):
        current, index = heapq.heappop(heap)
        lengths[index] = current + length
        heapq.heappush(heap, (lengths[index], index))
    return lengths


def reference_spread_level(lengths, cells):
    top = max(lengths)
    if sum(top - s for s in lengths) >= cells:
        return top
    low, high = top, top + cells
    while low < high:
        mid = (low + high) // 2
        if sum(mid - s for s in lengths) >= cells:
            high = mid
        else:
            low = mid + 1
    return low


def reference_bottlenecks(spec, tam_width):
    lengths = reference_partition(spec.scan_chains, tam_width)
    return (
        reference_spread_level(lengths, spec.input_cells),
        reference_spread_level(lengths, spec.output_cells),
    )


def reference_staircase(times):
    """Pareto points of ``times[w - 1]`` = test time at width ``w``."""
    points = []
    best = None
    for width, time in enumerate(times, start=1):
        if best is None or time < best:
            points.append(ParetoPoint(width=width, test_time_cycles=time))
            best = time
    return points


def reference_lower_bound(staircases, tam_width):
    best_times = []
    min_area = 0
    for staircase in staircases:
        best_times.append(staircase[-1].test_time_cycles)
        min_area += min(point.area for point in staircase)
    return max(max(best_times), math.ceil(min_area / tam_width))


@pytest.fixture
def specs():
    return [
        CoreTestSpec("a", [50, 50], 10, 10, patterns=100),
        CoreTestSpec("b", [200], 20, 30, patterns=40),
        CoreTestSpec("c", [10, 10, 10], 5, 5, patterns=300),
        CoreTestSpec("d", [80, 40, 40], 15, 15, patterns=120),
        CoreTestSpec("e", [], 25, 5, patterns=60),
    ]


class TestWrapperFastPath:
    """The closed-form bottleneck path must match the materialized wrapper."""

    def test_bottlenecks_match_design_wrapper(self, specs):
        for spec in specs:
            for width in range(1, 33):
                wrapper = design_wrapper(
                    spec.name, spec.scan_chains, spec.input_cells,
                    spec.output_cells, width,
                )
                fast = wrapper_bottlenecks(
                    spec.scan_chains, spec.input_cells,
                    spec.output_cells, width,
                )
                assert fast == (wrapper.max_scan_in, wrapper.max_scan_out), (
                    spec.name, width,
                )

    def test_partition_matches_lpt(self):
        chains = [100, 90, 10, 10, 5, 5, 5]
        for width in (1, 2, 3, 4, 7, 12):
            partition = partition_scan_lengths(chains, width)
            wrapper = design_wrapper("x", chains, 0, 0, width)
            assert sorted(partition) == sorted(
                chain.scan_length for chain in wrapper.chains
            )

    def test_spread_level_water_fills(self):
        # 3 cells onto partitions [5, 2, 0]: the top stays the level.
        assert spread_level([5, 2, 0], 3) == 5
        # 10 cells: level must rise past the top.
        assert spread_level([5, 2, 0], 10) == 6
        # No scan at all: pure cell spreading.
        assert spread_level([0, 0], 5) == 3
        assert spread_level([4], 0) == 4

    def test_public_helpers_keep_their_checks(self):
        with pytest.raises(ConfigError):
            wrapper_bottlenecks([], 1, 1, 0)
        with pytest.raises(ConfigError):
            wrapper_bottlenecks([4, -1], 1, 1, 8)
        with pytest.raises(ConfigError):
            wrapper_bottlenecks([4, -1, 3], 1, 1, 2)
        with pytest.raises(ConfigError):
            wrapper_bottlenecks([4], -1, 1, 8)
        with pytest.raises(ConfigError):
            partition_scan_lengths([4, -1], 2)
        with pytest.raises(ConfigError):
            spread_level([], 3)
        with pytest.raises(ConfigError):
            spread_level([3], -1)


class TestFastPathDifferential:
    """The closed-form path against the reference copy above."""

    def test_every_itc02_core_matches_reference(self):
        """Every core of the ten ITC'02 SOCs under the tam experiment's
        chain strategies, at every width 1..64: bottlenecks, the
        saturating staircase and every problem's lower bound."""
        max_width = 64
        cases = 0
        for soc_name in BENCHMARK_NAMES:
            soc = load(soc_name)
            for chain_count in (1, 4, 16):
                specs = core_specs_from_soc(
                    soc, default_chain_count=chain_count
                )
                staircases = []
                for spec in specs:
                    times = []
                    for width in range(1, max_width + 1):
                        si, so = reference_bottlenecks(spec, width)
                        fast = wrapper_bottlenecks(
                            spec.scan_chains, spec.input_cells,
                            spec.output_cells, width,
                        )
                        assert fast == (si, so), (soc_name, spec.name, width)
                        times.append(
                            (1 + max(si, so)) * spec.patterns + min(si, so)
                        )
                        cases += 1
                    staircase = reference_staircase(times)
                    assert pareto_widths(spec, max_width) == staircase, (
                        soc_name, spec.name,
                    )
                    staircases.append(staircase)
                for width in range(1, max_width + 1):
                    capped = [
                        [p for p in staircase if p.width <= width]
                        for staircase in staircases
                    ]
                    problem = TamProblem(cores=specs, tam_width=width)
                    assert problem.lower_bound() == reference_lower_bound(
                        capped, width
                    ), (soc_name, chain_count, width)
        assert cases == 30144

    @settings(max_examples=200, deadline=None)
    @given(
        chains=st.lists(st.integers(0, 30), max_size=8),
        input_cells=st.integers(0, 40),
        output_cells=st.integers(0, 40),
        patterns=st.integers(0, 50),
        max_width=st.integers(1, 12),
    )
    @example(chains=[], input_cells=7, output_cells=3, patterns=5, max_width=9)
    @example(chains=[0, 0, 6], input_cells=2, output_cells=9, patterns=4,
             max_width=6)
    @example(chains=[9, 7, 7, 3, 1], input_cells=4, output_cells=11,
             patterns=3, max_width=3)
    @example(chains=[5, 5], input_cells=0, output_cells=0, patterns=8,
             max_width=4)
    @example(chains=[], input_cells=0, output_cells=0, patterns=2,
             max_width=3)
    # One wire short of the chain count, the cells already fit under
    # the longest chain, yet LPT stacks 6 + 5 above it: the staircase
    # must not saturate before width 4.
    @example(chains=[10, 6, 6, 5], input_cells=0, output_cells=2,
             patterns=3, max_width=6)
    def test_small_specs_match_design_wrapper(
        self, chains, input_cells, output_cells, patterns, max_width
    ):
        """Random small specs — chains > width, zero-length chains, no
        chains, zero cells — against the materialized wrapper."""
        spec = CoreTestSpec("x", chains, input_cells, output_cells, patterns)
        times = []
        for width in range(1, max_width + 1):
            wrapper = design_wrapper(
                "x", chains, input_cells, output_cells, width
            )
            fast = wrapper_bottlenecks(chains, input_cells, output_cells, width)
            assert fast == (wrapper.max_scan_in, wrapper.max_scan_out), width
            assert fast == reference_bottlenecks(spec, width), width
            times.append(wrapper.test_time_cycles(patterns))
        assert pareto_widths(spec, max_width) == reference_staircase(times)

    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 50), min_size=1, max_size=10),
        cells=st.integers(0, 200),
    )
    def test_spread_level_matches_binary_search(self, lengths, cells):
        assert spread_level(lengths, cells) == reference_spread_level(
            lengths, cells
        )


class TestBestFitScheduler:
    def test_respects_width_budget(self, specs):
        for width in (1, 2, 3, 5, 8, 16, 31):
            schedule = schedule_best_fit(specs, tam_width=width)
            schedule.verify()
            assert all(test.width <= width for test in schedule.tests)

    def test_covers_every_core_once(self, specs):
        schedule = schedule_best_fit(specs, tam_width=10)
        assert sorted(test.core for test in schedule.tests) == [
            "a", "b", "c", "d", "e",
        ]

    def test_beats_or_matches_lower_bound(self, specs):
        for width in (2, 4, 8, 16):
            schedule = schedule_best_fit(specs, tam_width=width)
            assert schedule.makespan >= makespan_lower_bound(specs, width)

    def test_binpack_never_worse_than_greedy_on_itc02(self):
        """On real benchmark cores the binpack portfolio never loses to
        the greedy width enumeration — the experiment's headline
        invariant, here checked through the public API."""
        for name in load_many(["d695", "g1023"]):
            for width in (8, 16, 32):
                problem = TamProblem.from_benchmark(name, tam_width=width)
                packed = cooptimize(problem, scheduler="binpack")
                greedy = cooptimize(problem, scheduler="greedy")
                assert packed.makespan <= greedy.makespan, (name, width)
                packed.schedule.verify()

    def test_empty_specs_give_empty_schedule(self):
        schedule = schedule_best_fit([], tam_width=4)
        assert schedule.tests == []
        assert schedule.makespan == 0
        assert schedule.utilization() == 0.0

    def test_candidate_width_restriction(self, specs):
        schedule = schedule_best_fit(specs, tam_width=8, candidate_widths=(2,))
        assert {test.width for test in schedule.tests} == {2}

    def test_infeasible_candidates_rejected(self, specs):
        with pytest.raises(ConfigError, match="no candidate width"):
            schedule_best_fit(specs, tam_width=4, candidate_widths=(8, 16))

    def test_zero_width_rejected(self, specs):
        with pytest.raises(ConfigError):
            schedule_best_fit(specs, tam_width=0)

    def test_prebuilt_staircases_give_the_same_schedule(self, specs):
        staircases = TamProblem(cores=specs, tam_width=8).pareto_sets()
        assert schedule_best_fit(
            specs, tam_width=8, staircases=staircases
        ) == schedule_best_fit(specs, tam_width=8)
        assert makespan_lower_bound(
            specs, 8, staircases=staircases
        ) == makespan_lower_bound(specs, 8)


class TestScheduleErrors:
    def test_schedule_error_is_typed_and_legacy_compatible(self):
        assert issubclass(ScheduleError, ReproError)
        assert issubclass(ScheduleError, AssertionError)
        assert issubclass(ConfigError, ValueError)

    def test_verify_rejects_zero_width_slot(self):
        schedule = Schedule(tam_width=4, tests=[ScheduledTest("a", 0, 0, 10)])
        with pytest.raises(ScheduleError, match="zero-width"):
            schedule.verify()

    def test_verify_rejects_overwide_slot(self):
        schedule = Schedule(tam_width=2, tests=[ScheduledTest("a", 3, 0, 10)])
        with pytest.raises(ScheduleError, match="exceeds"):
            schedule.verify()

    def test_verify_rejects_negative_duration(self):
        schedule = Schedule(tam_width=4, tests=[ScheduledTest("a", 1, 10, 5)])
        with pytest.raises(ScheduleError, match="negative duration"):
            schedule.verify()

    def test_verify_rejects_bad_tam_width(self):
        with pytest.raises(ScheduleError):
            Schedule(tam_width=0, tests=[]).verify()

    def test_verify_ignores_zero_duration_slots(self):
        """Zero-length slots occupy no instant; three of them may share
        wires a real test is using."""
        schedule = Schedule(
            tam_width=2,
            tests=[
                ScheduledTest("real", 2, 0, 10),
                ScheduledTest("x", 2, 5, 5),
                ScheduledTest("y", 2, 5, 5),
            ],
        )
        schedule.verify()

    def test_empty_schedule_makespan_and_utilization(self):
        schedule = Schedule(tam_width=4, tests=[])
        schedule.verify()
        assert schedule.makespan == 0
        assert schedule.utilization() == 0.0

    def test_every_scheduler_verifies_its_schedule(self):
        """A spec forced past its own validation (negative patterns, so
        a negative test time) must fail verification under every
        scheduler — serial once returned makespan -55 for it."""
        spec = CoreTestSpec("a", [5], 1, 1, 1)
        object.__setattr__(spec, "patterns", -10)
        problem = TamProblem(cores=[spec], tam_width=8)
        for scheduler in SCHEDULERS:
            with pytest.raises(ScheduleError, match="negative duration"):
                cooptimize(problem, scheduler=scheduler)
        with pytest.raises(ScheduleError):
            schedule_serial([spec], 8)


# -- typed input errors --------------------------------------------------------

#: Values fuzzed into the TAM width: valid widths, out-of-range ints and
#: the wrong types (``8.5`` leaked a TypeError from ``range``, ``"8"``
#: one from ``<``, and ``True`` was scheduled as width 1).
tam_widths = st.one_of(
    st.integers(-2, 24),
    st.floats(allow_nan=True),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
)

#: CoreTestSpec arguments, built inside the test so that a refused
#: spec is an outcome under test rather than a generation error.
core_fields = st.tuples(
    st.sampled_from("abcd"),
    st.lists(st.integers(-2, 40), max_size=5),
    st.integers(-2, 30),
    st.integers(-2, 30),
    st.integers(-2, 40),
)


class TestTypedInputErrors:
    @pytest.mark.parametrize("field,value", [
        ("patterns", -10),
        ("input_cells", -1),
        ("output_cells", -1),
        ("patterns", 2.5),
        ("input_cells", "3"),
        ("output_cells", True),
    ])
    def test_core_spec_rejects_bad_counts(self, field, value):
        fields = dict(name="a", scan_chains=[5], input_cells=1,
                      output_cells=1, patterns=3)
        fields[field] = value
        with pytest.raises(ConfigError, match=field):
            CoreTestSpec(**fields)

    @pytest.mark.parametrize("chains", [[5, -1], [5, 2.0], [None]])
    def test_core_spec_rejects_bad_chain_lengths(self, chains):
        with pytest.raises(ConfigError, match="scan chain lengths"):
            CoreTestSpec("a", chains, 1, 1, 3)

    def test_negative_patterns_rejected_at_build_time(self):
        """The spec that once scheduled serially to makespan -55."""
        with pytest.raises(ConfigError, match="patterns"):
            cooptimize(
                TamProblem([CoreTestSpec("a", [5], 1, 1, -10)], 8),
                scheduler="serial",
            )

    @pytest.mark.parametrize("width", [8.5, "8", True, None, 8.0])
    def test_problem_rejects_non_int_width(self, specs, width):
        with pytest.raises(ConfigError, match="tam_width"):
            TamProblem(cores=specs, tam_width=width)

    @settings(max_examples=150, deadline=None)
    @given(cores=st.lists(core_fields, max_size=4), tam_width=tam_widths)
    def test_building_and_solving_raise_only_typed_errors(
        self, cores, tam_width
    ):
        """Anything that goes in either builds a valid problem that
        every scheduler solves within its lower bound, or is refused
        with a ReproError subclass."""
        try:
            problem = TamProblem(
                cores=[CoreTestSpec(*fields) for fields in cores],
                tam_width=tam_width,
            )
        except ReproError:
            return
        for scheduler in SCHEDULERS:
            result = cooptimize(problem, scheduler=scheduler)
            result.schedule.verify()
            assert result.makespan >= result.lower_bound


class TestTamProblem:
    def test_duplicate_core_names_rejected(self, specs):
        with pytest.raises(ConfigError, match="duplicate"):
            TamProblem(cores=[specs[0], specs[0]], tam_width=8)

    def test_bad_width_rejected(self, specs):
        with pytest.raises(ConfigError):
            TamProblem(cores=specs, tam_width=0)

    def test_from_benchmark(self):
        problem = TamProblem.from_benchmark("d695", tam_width=16)
        assert problem.tam_width == 16
        assert len(problem.cores) == 10  # d695's non-top cores
        assert problem.useful_bits() > 0
        assert problem.lower_bound() > 0

    def test_at_width_keeps_cores(self, specs):
        problem = TamProblem(cores=specs, tam_width=8)
        wider = problem.at_width(32)
        assert wider.tam_width == 32
        assert wider.cores == problem.cores

    def test_pareto_sets_capped_at_tam_width(self, specs):
        problem = TamProblem(cores=specs, tam_width=6)
        for points in problem.pareto_sets().values():
            assert all(point.width <= 6 for point in points)


class TestCooptimizeApi:
    def test_binpack_is_default_and_never_worse_than_greedy(self, specs):
        for width in (4, 8, 12, 24):
            problem = TamProblem(cores=specs, tam_width=width)
            packed = cooptimize(problem)
            greedy = cooptimize(problem, scheduler="greedy")
            assert packed.scheduler == "binpack"
            assert packed.makespan <= greedy.makespan

    def test_result_accounting(self, specs):
        problem = TamProblem(cores=specs, tam_width=12)
        result = cooptimize(problem)
        assert result.useful_bits == problem.useful_bits()
        assert result.delivered_bits >= result.useful_bits
        assert result.idle_bits == result.delivered_bits - result.useful_bits
        assert 0.0 <= result.idle_fraction < 1.0
        assert result.makespan >= result.lower_bound
        record = result.as_record()
        assert record["kind"] == "cooptimization"
        assert record["cores"] == len(specs)
        assert "makespan" in record and "idle_fraction" in record

    def test_separate_tam_width_rejected_with_problem(self, specs):
        """The width lives in the TamProblem; the retired ``tam_width``
        keyword is gone, so passing it is a TypeError."""
        problem = TamProblem(cores=specs, tam_width=8)
        with pytest.raises(TypeError):
            cooptimize(problem, tam_width=8)

    @pytest.mark.parametrize("width", [12, None])
    def test_non_problem_argument_is_typed_error(self, specs, width):
        """The retired ``cooptimize(specs, tam_width)`` shape raises
        ConfigError naming TamProblem, never a crash in the solver."""
        args = (specs,) if width is None else (specs, width)
        with pytest.raises(ConfigError, match="TamProblem"):
            cooptimize(*args)

    def test_unknown_scheduler_rejected(self, specs):
        problem = TamProblem(cores=specs, tam_width=8)
        with pytest.raises(ConfigError, match="unknown scheduler"):
            cooptimize(problem, scheduler="simulated-annealing")

    def test_runtime_threading_traces_spans(self, specs, tmp_path):
        from repro.runtime.session import Runtime

        trace_path = tmp_path / "trace.jsonl"
        runtime = Runtime.from_flags(workers=1, trace=str(trace_path))
        problem = TamProblem(cores=specs, tam_width=8)
        cooptimize(problem, runtime=runtime)
        runtime.tracer.flush()
        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert any(e.get("name") == "tam.cooptimize" for e in events)

    def test_design_space_grid_order(self, specs):
        problem = TamProblem(cores=specs, tam_width=8)
        results = design_space(problem, tam_widths=[4, 8], schedulers=("serial", "greedy"))
        assert [(r.tam_width, r.scheduler) for r in results] == [
            (4, "serial"), (4, "greedy"), (8, "serial"), (8, "greedy"),
        ]

    def test_pareto_front_prunes_dominated(self, specs):
        problem = TamProblem(cores=specs, tam_width=8)
        results = design_space(problem, tam_widths=[2, 4, 8])
        front = pareto_front(results)
        assert front
        assert len(front) <= len(results)
        for survivor in front:
            for other in results:
                dominated = (
                    other.tam_width <= survivor.tam_width
                    and other.makespan < survivor.makespan
                    and other.delivered_bits <= survivor.delivered_bits
                )
                assert not dominated


class TestTamExperiment:
    """The `tam` experiment: output identical serial, parallel, resumed."""

    ARGS = ["--tam-socs", "d695", "--tam-widths", "4,8,16"]

    def _run(self, tmp_path, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "experiments", "tam",
             *self.ARGS, *extra],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    def test_serial_parallel_resume_byte_identical(self, tmp_path):
        front = tmp_path / "front.json"
        serial = self._run(tmp_path, "--tam-front", str(front))
        assert "FAIL" not in serial.stdout
        assert serial.stdout.count("PASS") >= 4
        front_doc = json.loads(front.read_text())
        assert front_doc["fields"] == ["tam_width", "makespan", "delivered_bits"]
        assert front_doc["points"]

        parallel_front = tmp_path / "front2.json"
        parallel = self._run(
            tmp_path, "--workers", "2", "--tam-front", str(parallel_front)
        )
        assert parallel.stdout == serial.stdout
        assert parallel_front.read_text() == front.read_text()

        run_dir = tmp_path / "run"
        self._run(tmp_path, "--run-dir", str(run_dir))
        shards = sorted((run_dir / "sweeps" / "tam" / "shards").iterdir())
        assert len(shards) > 2
        for shard in shards[len(shards) // 2:]:  # "kill" the second half
            shard.unlink()
        resumed = self._run(tmp_path, "--run-dir", str(run_dir), "--resume")
        assert resumed.stdout == serial.stdout
        assert "resumed" in resumed.stderr

    def test_single_scheduler_skips_differential_check(self, tmp_path):
        proc = self._run(tmp_path, "--scheduler", "binpack")
        assert "skipped (single-scheduler run)" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_unknown_soc_fails_fast(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "experiments", "tam",
             "--tam-socs", "nope"],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert "unknown ITC'02 benchmark" in proc.stderr
