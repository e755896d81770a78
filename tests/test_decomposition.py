"""Unit tests for the Eq. 6 decomposition (repro.core.decomposition)."""

from repro.core import benefit_by_core, decompose, penalty_by_core


class TestDecompose:
    def test_identity_error_equals_residual(self, flat_soc, hier_soc):
        for soc in (flat_soc, hier_soc):
            decomposition = decompose(soc)
            assert decomposition.identity_error() == decomposition.residual

    def test_identity_holds_with_identity_benefit(self, hier_soc):
        assert decompose(hier_soc).identity_holds()

    def test_identity_error_stable_without_chip_pin_wrappers(self, hier_soc):
        """Both penalty and modular drop by the same top-terminal bits."""
        with_pins = decompose(hier_soc, chip_pin_wrappers=True)
        without = decompose(hier_soc, chip_pin_wrappers=False)
        assert with_pins.identity_error() == without.identity_error()
        top_bits = hier_soc.top.io_terminals * hier_soc.top.patterns
        assert with_pins.penalty - without.penalty == top_bits
        assert with_pins.tdv_modular - without.tdv_modular == top_bits

    def test_per_core_sums_match_totals(self, hier_soc):
        decomposition = decompose(hier_soc)
        assert sum(c.penalty for c in decomposition.per_core) == decomposition.penalty
        assert (
            sum(c.benefit for c in decomposition.per_core)
            == decomposition.benefit_strict
        )
        assert (
            sum(c.modular_tdv for c in decomposition.per_core)
            == decomposition.tdv_modular
        )

    def test_per_core_benefit_nonnegative(self, hier_soc):
        for core in decompose(hier_soc).per_core:
            assert core.benefit >= 0

    def test_explicit_monolithic_patterns(self, flat_soc):
        decomposition = decompose(flat_soc, monolithic_patterns=1000)
        assert decomposition.monolithic_patterns == 1000
        assert decomposition.identity_error() == decomposition.residual

    def test_benefit_identity_exceeds_strict(self, flat_soc):
        decomposition = decompose(flat_soc)
        assert (
            decomposition.benefit_identity
            == decomposition.benefit_strict + decomposition.residual
        )


class TestByCore:
    def test_penalty_by_core_matches_decompose(self, hier_soc):
        decomposition = decompose(hier_soc)
        table = penalty_by_core(hier_soc)
        for core in decomposition.per_core:
            assert table[core.core_name] == core.penalty

    def test_benefit_by_core_matches_decompose(self, hier_soc):
        decomposition = decompose(hier_soc)
        table = benefit_by_core(hier_soc)
        for core in decomposition.per_core:
            assert table[core.core_name] == core.benefit

    def test_max_pattern_core_contributes_no_benefit(self, hier_soc):
        table = benefit_by_core(hier_soc)
        assert table["x"] == 0  # x holds the SOC-wide maximum pattern count
