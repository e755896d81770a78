"""Unit tests for IEEE 1500-style wrapper modeling (repro.soc.wrapper)."""

from repro.soc import (
    Core,
    Soc,
    Wrapper,
    WrapperCellKind,
    WrapperMode,
    isocost,
    isocost_from_wrappers,
    wrapper_area_cells,
)


class TestWrapper:
    def test_cell_count(self):
        wrapper = Wrapper(Core("c", inputs=3, outputs=2, bidirs=4))
        # 3 input + 2 output + 2 per bidir.
        assert len(wrapper) == 3 + 2 + 8

    def test_cell_kinds(self):
        wrapper = Wrapper(Core("c", inputs=1, outputs=1, bidirs=1))
        kinds = sorted(cell.kind.value for cell in wrapper.cells)
        assert kinds == ["bidir_in", "bidir_out", "input", "output"]

    def test_intest_bits_equal_cell_count(self):
        """Every dedicated cell is controlled or observed in InTest."""
        core = Core("c", inputs=5, outputs=3, bidirs=2)
        wrapper = Wrapper(core)
        assert wrapper.bits_per_pattern(WrapperMode.INTEST) == core.io_terminals

    def test_extest_bits_equal_cell_count(self):
        core = Core("c", inputs=5, outputs=3, bidirs=2)
        wrapper = Wrapper(core)
        assert wrapper.bits_per_pattern(WrapperMode.EXTEST) == core.io_terminals

    def test_functional_and_bypass_cost_nothing(self):
        wrapper = Wrapper(Core("c", inputs=4, outputs=4))
        assert wrapper.bits_per_pattern(WrapperMode.FUNCTIONAL) == 0
        assert wrapper.bits_per_pattern(WrapperMode.BYPASS) == 0

    def test_intest_controls_inputs_observes_outputs(self):
        wrapper = Wrapper(Core("c", inputs=1, outputs=1))
        input_cell = next(
            c for c in wrapper.cells if c.kind is WrapperCellKind.INPUT
        )
        output_cell = next(
            c for c in wrapper.cells if c.kind is WrapperCellKind.OUTPUT
        )
        assert input_cell.is_controlled_in(WrapperMode.INTEST)
        assert not input_cell.is_observed_in(WrapperMode.INTEST)
        assert output_cell.is_observed_in(WrapperMode.INTEST)
        assert not output_cell.is_controlled_in(WrapperMode.INTEST)

    def test_extest_reverses_roles(self):
        wrapper = Wrapper(Core("c", inputs=1, outputs=1))
        input_cell = next(
            c for c in wrapper.cells if c.kind is WrapperCellKind.INPUT
        )
        assert input_cell.is_observed_in(WrapperMode.EXTEST)
        assert not input_cell.is_controlled_in(WrapperMode.EXTEST)


class TestIsocostDerivation:
    def test_matches_eq5_on_every_core(self, hier_soc):
        """The wrapper-derived cost must reproduce Eq. 5 exactly."""
        for core in hier_soc:
            assert isocost_from_wrappers(hier_soc, core.name) == isocost(
                hier_soc, core.name
            )

    def test_matches_on_bidir_heavy_core(self):
        soc = Soc(
            "s",
            [Core("p", inputs=2, outputs=1, bidirs=7, children=["c"]),
             Core("c", inputs=3, outputs=4, bidirs=5)],
            top="p",
        )
        for name in ("p", "c"):
            assert isocost_from_wrappers(soc, name) == isocost(soc, name)


class TestArea:
    def test_total_cells(self, flat_soc):
        expected = sum(core.io_terminals for core in flat_soc)
        assert wrapper_area_cells(flat_soc) == expected
