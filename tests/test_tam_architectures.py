"""Unit tests for TAM architectures and scheduling (repro.tam)."""

import pytest

from repro.tam import (
    CoreTestSpec,
    compare_architectures,
    core_specs_from_soc,
    daisychain_architecture,
    distribution_architecture,
    multiplexing_architecture,
    schedule_greedy,
    schedule_serial,
)


@pytest.fixture
def specs():
    return [
        CoreTestSpec("a", [50, 50], 10, 10, patterns=100),
        CoreTestSpec("b", [200], 20, 30, patterns=40),
        CoreTestSpec("c", [10, 10, 10], 5, 5, patterns=300),
    ]


class TestCoreSpecsFromSoc:
    def test_top_excluded(self, flat_soc):
        specs = core_specs_from_soc(flat_soc)
        assert {spec.name for spec in specs} == {"a", "b", "c"}

    def test_balanced_default_chains(self, flat_soc):
        specs = core_specs_from_soc(flat_soc)
        spec_a = next(spec for spec in specs if spec.name == "a")
        assert sum(spec_a.scan_chains) == 100
        assert max(spec_a.scan_chains) - min(spec_a.scan_chains) <= 1

    def test_explicit_chains_respected(self, flat_soc):
        specs = core_specs_from_soc(flat_soc, scan_chains={"a": [90, 10]})
        spec_a = next(spec for spec in specs if spec.name == "a")
        assert spec_a.scan_chains == (90, 10)

    def test_bidirs_count_on_both_sides(self, flat_soc):
        spec_c = next(
            spec for spec in core_specs_from_soc(flat_soc) if spec.name == "c"
        )
        assert spec_c.input_cells == 4 + 3
        assert spec_c.output_cells == 2 + 3


class TestArchitectures:
    def test_multiplexing_time_is_sum(self, specs):
        result = multiplexing_architecture(specs, tam_width=4)
        assert result.test_time_cycles > 0
        assert result.architecture == "multiplexing"
        assert set(result.per_core_width.values()) == {4}

    def test_daisychain_patterns_top_off_to_max(self, specs):
        """The daisychain with no bypass behaves like the monolithic
        case: everyone shifts for the longest test."""
        result = daisychain_architecture(specs, tam_width=4)
        assert result.idle_bits > 0
        assert result.idle_fraction > 0

    def test_distribution_needs_enough_wires(self, specs):
        with pytest.raises(ValueError, match="at least one wire"):
            distribution_architecture(specs, tam_width=2)

    def test_distribution_uses_all_wires(self, specs):
        result = distribution_architecture(specs, tam_width=10)
        assert sum(result.per_core_width.values()) == 10
        assert all(width >= 1 for width in result.per_core_width.values())

    def test_distribution_beats_multiplexing_makespan(self, specs):
        mux = multiplexing_architecture(specs, tam_width=10)
        dist = distribution_architecture(specs, tam_width=10)
        assert dist.test_time_cycles <= mux.test_time_cycles

    def test_useful_bits_identical_across_architectures(self, specs):
        """Architecture choice cannot change care bits, only idle bits."""
        results = compare_architectures(specs, tam_width=8)
        useful = {result.useful_bits for result in results}
        assert len(useful) == 1

    def test_compare_omits_infeasible_distribution(self, specs):
        results = compare_architectures(specs, tam_width=2)
        assert [r.architecture for r in results] == ["multiplexing", "daisychain"]

    def test_daisychain_empty_rejected(self):
        with pytest.raises(ValueError):
            daisychain_architecture([], tam_width=4)


class TestScheduling:
    def test_serial_schedule_is_back_to_back(self, specs):
        schedule = schedule_serial(specs, tam_width=8)
        schedule.verify()
        tests = sorted(schedule.tests, key=lambda t: t.start)
        for prev, cur in zip(tests, tests[1:]):
            assert cur.start == prev.end
        assert schedule.utilization() == 1.0

    def test_greedy_respects_width(self, specs):
        schedule = schedule_greedy(specs, tam_width=8, preferred_width=4)
        schedule.verify()

    def test_greedy_parallelism_beats_serial(self, specs):
        serial = schedule_serial(specs, tam_width=8)
        greedy = schedule_greedy(specs, tam_width=8, preferred_width=4)
        assert greedy.makespan <= serial.makespan

    def test_verify_catches_overcommit(self, specs):
        from repro.tam import Schedule, ScheduledTest

        schedule = Schedule(
            tam_width=2,
            tests=[
                ScheduledTest("a", 2, 0, 10),
                ScheduledTest("b", 2, 5, 15),
            ],
        )
        with pytest.raises(AssertionError):
            schedule.verify()

    def test_record_fields(self, specs):
        record = schedule_serial(specs, tam_width=4).as_record()
        assert record["kind"] == "schedule"
        assert record["tam_width"] == 4
        assert record["tests"] == 3
        assert record["makespan"] > 0
        assert record["utilization"] == 1.0

    def test_empty_schedule(self):
        schedule = schedule_serial([], tam_width=4)
        assert schedule.makespan == 0
        assert schedule.utilization() == 0.0
