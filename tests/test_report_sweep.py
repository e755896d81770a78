"""Unit tests for table rendering and design-space sweeps."""

import pytest

from repro.core import (
    analyze,
    comparison_table,
    crossover_spread,
    decompose,
    format_table,
    hierarchy_table,
    paper_vs_measured_table,
    percent,
    soc_table,
    sweep_core_count,
    sweep_pattern_variation,
    sweep_wrapper_overhead,
    synthetic_soc,
)
from repro.soc import Core, Soc, hierarchy_depth, isocost


class TestFormatting:
    def test_format_table_aligns_columns(self):
        text = format_table(["Name", "N"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # rectangular

    def test_integers_get_thousands_separators(self):
        text = format_table(["N"], [[1234567]])
        assert "1,234,567" in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            format_table(["A", "B"], [["only one"]])

    def test_percent(self):
        assert percent(0.123) == "+12.3%"
        assert percent(-0.5) == "-50.0%"
        assert percent(0.5, signed=False) == "50.0%"

    def test_soc_table_contains_rows_and_mono(self, flat_soc):
        text = soc_table(flat_soc, actual_monolithic_patterns=500)
        assert "Mono opt" in text and "Mono" in text
        assert "SOC" in text
        for core in flat_soc:
            assert core.name in text

    def test_hierarchy_table_lists_embeds(self, hier_soc):
        text = hierarchy_table(hier_soc)
        assert "x,y" in text

    def test_comparison_table_counts_functional_cores(self, flat_soc):
        text = comparison_table([flat_soc])
        # flat3 has 4 cores incl. top; Table-4 convention shows 3.
        row = next(line for line in text.splitlines() if "flat3" in line)
        assert " 3 " in row

    def test_paper_vs_measured_deltas(self):
        text = paper_vs_measured_table([("x", 100, 110), ("y", 0, 5)])
        assert "+10.0%" in text
        assert "n/a" in text


class TestSyntheticSoc:
    def test_structure(self):
        soc = synthetic_soc("s", core_count=5, mean_patterns=100,
                            pattern_spread=0.5)
        assert len(soc) == 6
        assert len(soc.top.children) == 5

    def test_zero_spread_gives_equal_counts(self):
        soc = synthetic_soc("s", core_count=5, mean_patterns=100,
                            pattern_spread=0.0)
        counts = {c.patterns for c in soc if c.name != soc.top_name}
        assert counts == {100}

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            synthetic_soc("s", core_count=0, mean_patterns=10, pattern_spread=0)
        with pytest.raises(ValueError):
            synthetic_soc("s", core_count=2, mean_patterns=0, pattern_spread=0)
        with pytest.raises(ValueError):
            synthetic_soc("s", core_count=2, mean_patterns=10, pattern_spread=-1)

    def test_deterministic_per_seed(self):
        first = synthetic_soc("s", 5, 100, 1.0, seed=3)
        second = synthetic_soc("s", 5, 100, 1.0, seed=3)
        assert first.pattern_counts() == second.pattern_counts()


class TestSweeps:
    def test_reduction_grows_with_spread(self):
        points = sweep_pattern_variation([0.0, 1.0, 2.5])
        reductions = [
            -p.analysis.summary.modular_change_fraction for p in points
        ]
        assert reductions[0] < reductions[1] < reductions[2]

    def test_penalty_grows_with_wrapper_overhead(self):
        points = sweep_wrapper_overhead([16, 256])
        assert (points[0].analysis.summary.penalty_fraction
                < points[1].analysis.summary.penalty_fraction)

    def test_core_count_sweep_runs_from_one(self):
        points = sweep_core_count([1, 4, 16])
        assert [p.parameter for p in points] == [1.0, 4.0, 16.0]

    def test_core_count_sweep_rejects_zero(self):
        with pytest.raises(ValueError):
            sweep_core_count([0])

    def test_crossover_spread_brackets_zero_change(self):
        spread = crossover_spread()
        assert 0.0 < spread < 3.0
        # At the crossover the change fraction should be near zero.
        from repro.core import analyze

        soc = synthetic_soc("crossover", 10, 200, spread,
                            scan_cells_per_core=40, io_per_core=96, seed=7)
        assert abs(analyze(soc).summary.modular_change_fraction) < 0.05

    def test_crossover_without_bracket_rejected(self):
        def always_wins(spread):
            return synthetic_soc("w", 10, 200, spread,
                                 scan_cells_per_core=5000, io_per_core=4)

        with pytest.raises(ValueError, match="no crossover"):
            crossover_spread(soc_factory=always_wins)


class TestDeepHierarchy:
    """Eq. 5 and the Eq. 6 identity on a depth-3 embedding tree."""

    @pytest.fixture
    def deep_soc(self):
        return Soc("deep", [
            Core("top", inputs=64, outputs=64, patterns=1, children=["r"]),
            Core("r", inputs=24, outputs=24, scan_cells=400, patterns=300,
                 children=["m1", "m2"]),
            Core("m1", inputs=24, outputs=24, scan_cells=400, patterns=120,
                 children=["leaf"]),
            Core("m2", inputs=24, outputs=24, scan_cells=400, patterns=80),
            Core("leaf", inputs=24, outputs=24, scan_cells=400, patterns=500),
        ], top="top")

    def test_parents_pay_child_terminals(self, deep_soc):
        assert hierarchy_depth(deep_soc) == 3
        # Own 48 terminals plus 48 per direct child.
        assert [isocost(deep_soc, name) for name in ("r", "m1", "leaf")] == \
            [144, 96, 48]

    def test_identity_holds(self, deep_soc):
        assert analyze(deep_soc).summary.tdv_modular > 0
        for t_mono in (None, 900):
            decomposition = decompose(deep_soc, monolithic_patterns=t_mono)
            assert decomposition.identity_error() == decomposition.residual
