"""Unit tests for hierarchy diagrams and benchmark statistics."""

from repro.itc02 import load, soc_stats, suite_report, suite_stats
from repro.itc02.stats import explain_outcome
from repro.soc import (
    Core,
    Soc,
    hierarchy_depth,
    hierarchy_summary,
    hierarchy_tree,
)


class TestHierarchyTree:
    def test_tree_contains_every_core(self, hier_soc):
        text = hierarchy_tree(hier_soc)
        for core in hier_soc:
            assert core.name in text

    def test_children_indented_under_parent(self, hier_soc):
        lines = hierarchy_tree(hier_soc).splitlines()
        p_line = next(i for i, line in enumerate(lines) if " p " in line or "p  [" in line)
        x_line = next(i for i, line in enumerate(lines) if "x  [" in line)
        assert x_line > p_line
        indent_p = len(lines[p_line]) - len(lines[p_line].lstrip("|` -"))
        indent_x = len(lines[x_line]) - len(lines[x_line].lstrip("|` -"))
        assert len(lines[x_line]) - len(lines[x_line].lstrip()) > (
            len(lines[p_line]) - len(lines[p_line].lstrip())
        )

    def test_annotations_carry_isocost(self, hier_soc):
        text = hierarchy_tree(hier_soc)
        assert "ISO=" in text
        assert "S=300" in text  # core p

    def test_unannotated(self, hier_soc):
        text = hierarchy_tree(hier_soc, annotate=False)
        assert "ISO=" not in text

    def test_multiple_roots_rendered(self):
        soc = Soc("s", [Core("a"), Core("b")])
        text = hierarchy_tree(soc)
        assert "a" in text and "b" in text

    def test_p34392_matches_figure3(self):
        text = hierarchy_tree(load("p34392"), annotate=False)
        lines = [line for line in text.splitlines()]
        # The four top-level cores appear at the first indent level.
        first_level = [line.strip("|` -") for line in lines if line.startswith("    |--") or line.startswith("    `--")]
        assert first_level == ["1", "2", "10", "18"]

    def test_depth(self, hier_soc, flat_soc):
        assert hierarchy_depth(hier_soc) == 2
        assert hierarchy_depth(flat_soc) == 1

    def test_summary(self, hier_soc):
        text = hierarchy_summary(hier_soc)
        assert "hier" in text
        assert "5 cores" in text
        assert "depth 2: 2" in text


class TestSuiteStats:
    def test_all_ten_profiled(self):
        stats = suite_stats()
        assert [s.name for s in stats] == [
            "d695", "h953", "f2126", "g1023", "g12710",
            "p22810", "p34392", "p93791", "t512505", "a586710",
        ]

    def test_g12710_is_io_dominated(self):
        """The paper's stated reason for g12710's TDV increase."""
        stats = soc_stats(load("g12710"))
        assert stats.io_dominated
        assert stats.terminals_per_scan_cell > 1.0

    def test_big_reducers_are_scan_dominated(self):
        for name in ("p22810", "p93791", "a586710"):
            assert not soc_stats(load(name)).io_dominated, name

    def test_p34392_hierarchy_counted(self):
        stats = soc_stats(load("p34392"))
        assert stats.hierarchical_cores == 3  # cores 2, 10, 18
        assert stats.core_count == 19

    def test_pattern_extremes(self):
        stats = soc_stats(load("g12710"))
        assert (stats.pattern_min, stats.pattern_max) == (852, 1314)

    def test_report_renders_all(self):
        text = suite_report()
        assert "Dominated by" in text
        assert "a586710" in text

    def test_explain_outcome_mentions_direction(self):
        text = explain_outcome(load("g12710"))
        assert "+38.6%" in text
        assert "terminal-dominated" in text
        text = explain_outcome(load("a586710"))
        assert "-99.3%" in text
        assert "scan-dominated" in text
