"""Unit tests for the shared-isolation relaxation (repro.soc.shared_isolation)."""


class TestSharedIsolation:
    """Tests for the functional-cell isolation relaxation
    (repro.soc.shared_isolation)."""

    def test_zero_sharing_matches_eq5(self, hier_soc):
        from repro.soc import isocost, shared_isocost

        for core in hier_soc:
            assert shared_isocost(hier_soc, core.name, 0.0) == isocost(
                hier_soc, core.name
            )

    def test_full_sharing_is_free(self, hier_soc):
        from repro.soc import shared_isocost

        for core in hier_soc:
            assert shared_isocost(hier_soc, core.name, 1.0) == 0

    def test_monotone_in_sharing(self, hier_soc):
        from repro.soc import tdv_modular_shared

        volumes = [
            tdv_modular_shared(hier_soc, sharing)
            for sharing in (0.0, 0.3, 0.6, 1.0)
        ]
        assert volumes == sorted(volumes, reverse=True)

    def test_invalid_fraction_rejected(self, hier_soc):
        import pytest

        from repro.soc import shared_isocost

        with pytest.raises(ValueError):
            shared_isocost(hier_soc, "p", 1.5)

    def test_g12710_breakeven(self):
        from repro.itc02 import load
        from repro.soc import breakeven_sharing, sharing_sweep

        g12710 = load("g12710")
        breakeven = breakeven_sharing(g12710)
        assert 0.7 < breakeven < 0.9
        points = sharing_sweep(g12710, [0.0, 1.0])
        assert points[0].modular_change_fraction > 0  # paper's +38.6%
        assert points[1].modular_change_fraction < 0  # pure benefit

    def test_winning_socs_have_no_breakeven(self, flat_soc):
        from repro.itc02 import load
        from repro.soc import breakeven_sharing

        assert breakeven_sharing(load("a586710")) is None

    def test_sweep_change_fractions_decrease(self):
        from repro.itc02 import load
        from repro.soc import sharing_sweep

        points = sharing_sweep(load("d695"))
        changes = [p.modular_change_fraction for p in points]
        assert changes == sorted(changes, reverse=True)
