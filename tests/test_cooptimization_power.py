"""Unit tests for wrapper/TAM co-optimization."""

import pytest

from repro.tam import (
    CoreTestSpec,
    TamProblem,
    cooptimize,
    design_space,
    pareto_widths,
    schedule_greedy,
    width_saturation,
)


@pytest.fixture
def specs():
    return [
        CoreTestSpec("a", [50, 50], 10, 10, patterns=100),
        CoreTestSpec("b", [200], 20, 30, patterns=40),
        CoreTestSpec("c", [10, 10, 10], 5, 5, patterns=300),
        CoreTestSpec("d", [80, 40, 40], 15, 15, patterns=120),
    ]


class TestPareto:
    def test_times_strictly_decrease(self, specs):
        points = pareto_widths(specs[0], max_width=16)
        times = [p.test_time_cycles for p in points]
        assert times == sorted(times, reverse=True)
        assert len(set(times)) == len(times)

    def test_width_one_always_present(self, specs):
        for spec in specs:
            assert pareto_widths(spec, 8)[0].width == 1

    def test_saturation_at_longest_chain(self):
        """With one dominant chain, width 2 isolates it; more wires
        cannot help the scan part (only cell redistribution remains)."""
        spec = CoreTestSpec("x", [100, 5, 5], 0, 0, patterns=10)
        saturation = width_saturation(spec, max_width=32)
        assert saturation <= 3

    def test_invalid_width_rejected(self, specs):
        with pytest.raises(ValueError):
            pareto_widths(specs[0], 0)


class TestCooptimize:
    def test_beats_or_matches_fixed_width(self, specs):
        result = cooptimize(TamProblem(cores=specs, tam_width=12))
        for width in (1, 2, 4, 8):
            fixed = schedule_greedy(specs, 12, preferred_width=width)
            assert result.makespan <= fixed.makespan

    def test_schedule_is_valid(self, specs):
        result = cooptimize(TamProblem(cores=specs, tam_width=12))
        result.schedule.verify()
        assert set(result.assigned_widths) == {"a", "b", "c", "d"}

    def test_no_cores_rejected(self):
        with pytest.raises(ValueError, match="no cores"):
            TamProblem(cores=[], tam_width=4)

    def test_no_feasible_candidate_rejected(self, specs):
        problem = TamProblem(cores=specs, tam_width=4)
        with pytest.raises(ValueError, match="no candidate"):
            cooptimize(problem, candidate_widths=(8, 16), scheduler="greedy")

    def test_tradeoff_time_falls_volume_rises(self, specs):
        problem = TamProblem(cores=specs, tam_width=16)
        results = design_space(
            problem, tam_widths=[2, 4, 8, 16], schedulers=("greedy",)
        )
        times = [r.makespan for r in results]
        volumes = [r.delivered_bits for r in results]
        assert times == sorted(times, reverse=True)
        assert volumes == sorted(volumes)
