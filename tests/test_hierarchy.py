"""Unit tests for ISOCOST and per-core TDV (repro.soc.hierarchy)."""

from repro.soc import (
    Core,
    Soc,
    core_tdv,
    core_test_bits_per_pattern,
    isocost,
    isocost_table,
    wrapper_cell_count,
)


class TestIsocost:
    def test_leaf_core_is_own_terminals(self, flat_soc):
        assert isocost(flat_soc, "a") == 8 + 4
        assert isocost(flat_soc, "c") == 4 + 2 + 2 * 3

    def test_parent_adds_direct_children(self, hier_soc):
        # p's own 30 terminals plus x (8) and y (9).
        assert isocost(hier_soc, "p") == 30 + 8 + 9

    def test_parent_excludes_grandchildren(self, hier_soc):
        # top embeds p and q only; x/y are p's problem.
        expected = (12 + 8) + (20 + 10) + (9 + 11)
        assert isocost(hier_soc, "top") == expected

    def test_chip_pin_wrappers_false_drops_top_own_terminals(self, hier_soc):
        with_pins = isocost(hier_soc, "top", chip_pin_wrappers=True)
        without = isocost(hier_soc, "top", chip_pin_wrappers=False)
        assert with_pins - without == hier_soc.top.io_terminals

    def test_chip_pin_convention_only_affects_top(self, hier_soc):
        for name in ("p", "q", "x", "y"):
            assert isocost(hier_soc, name, True) == isocost(hier_soc, name, False)

    def test_table_covers_every_core(self, hier_soc):
        table = isocost_table(hier_soc)
        assert set(table) == {"top", "p", "q", "x", "y"}
        assert all(v >= 0 for v in table.values())


class TestCoreTdv:
    def test_bits_per_pattern(self, flat_soc):
        assert core_test_bits_per_pattern(flat_soc, "a") == 200 + 12

    def test_core_tdv_is_patterns_times_bits(self, flat_soc):
        assert core_tdv(flat_soc, "a") == 50 * 212

    def test_zero_pattern_core_has_zero_tdv(self):
        soc = Soc("s", [Core("only", inputs=5, scan_cells=10, patterns=0)])
        assert core_tdv(soc, "only") == 0

    def test_paper_table3_leaf_row(self):
        """Core 3 of p34392: 3,108 x (37 + 25) = 192,696 (Table 3)."""
        soc = Soc(
            "p",
            [
                Core("2", inputs=165, outputs=263, scan_cells=8856,
                     patterns=514, children=["3"]),
                Core("3", inputs=37, outputs=25, patterns=3108),
            ],
            top="2",
        )
        assert core_tdv(soc, "3") == 192_696

    def test_paper_table3_parent_row(self):
        """Core 18 of p34392: 745 x (2*6555 + 387 + 87) = 10,120,080."""
        soc = Soc(
            "p",
            [
                Core("18", inputs=175, outputs=212, scan_cells=6555,
                     patterns=745, children=["19"]),
                Core("19", inputs=62, outputs=25, patterns=12336),
            ],
            top="18",
        )
        assert core_tdv(soc, "18") == 10_120_080


class TestWrapperCellCount:
    def test_equals_isocost_for_dedicated_cells(self, hier_soc):
        for core in hier_soc:
            assert wrapper_cell_count(hier_soc, core.name) == isocost(
                hier_soc, core.name
            )
