"""Unit tests for flattening (repro.soc.flatten)."""

import pytest

from repro.core import tdv_monolithic_optimistic
from repro.soc import flat_bits_per_pattern, flatten
from repro.soc.hierarchy import core_tdv


class TestFlatten:
    def test_single_core_carries_all_scan(self, hier_soc):
        flat = flatten(hier_soc)
        assert len(flat) == 1
        assert flat.top.scan_cells == hier_soc.total_scan_cells
        assert flat.top.io_terminals == hier_soc.chip_io_terminals

    def test_default_patterns_is_eq2_bound(self, hier_soc):
        assert flatten(hier_soc).top.patterns == hier_soc.max_core_patterns

    def test_explicit_patterns(self, hier_soc):
        flat = flatten(hier_soc, monolithic_patterns=1000)
        assert flat.top.patterns == 1000

    def test_below_bound_rejected(self, hier_soc):
        with pytest.raises(ValueError, match="Eq. 2"):
            flatten(hier_soc, monolithic_patterns=1)

    def test_flat_core_tdv_equals_optimistic_monolithic(self, hier_soc):
        """Flattening routes Eq. 3 through the ordinary per-core path."""
        flat = flatten(hier_soc)
        assert core_tdv(flat, flat.top_name) == tdv_monolithic_optimistic(hier_soc)

    def test_bits_per_pattern(self, flat_soc):
        assert flat_bits_per_pattern(flat_soc) == 16 + 2 * 390
