"""Unit tests for the TDV equations (repro.core.tdv)."""

import itertools
from pathlib import Path

import pytest

from repro.core import (
    TdvSummary,
    chip_io_residual,
    decompose,
    monolithic_pattern_lower_bound,
    summarize,
    tdv_benefit,
    tdv_modular,
    tdv_modular_breakdown,
    tdv_monolithic,
    tdv_monolithic_optimistic,
    tdv_penalty,
)
from repro.io import load_soc
from repro.soc import Core, Soc

SHIPPED_SOCS = sorted(
    (Path(__file__).resolve().parents[1] / "src" / "repro" / "itc02" / "data")
    .glob("*.soc")
)


class TestMonolithic:
    def test_eq1_bit_width(self, flat_soc):
        # (10+6) chip terminals + 2*390 scan cells, times T.
        assert tdv_monolithic(flat_soc, 100) == (16 + 780) * 100

    def test_zero_patterns_gives_zero(self, flat_soc):
        assert tdv_monolithic(flat_soc, 0) == 0

    def test_negative_patterns_rejected(self, flat_soc):
        with pytest.raises(ValueError):
            tdv_monolithic(flat_soc, -1)

    def test_eq2_bound_is_max_core_patterns(self, flat_soc):
        assert monolithic_pattern_lower_bound(flat_soc) == 200

    def test_optimistic_uses_bound(self, flat_soc):
        assert tdv_monolithic_optimistic(flat_soc) == tdv_monolithic(flat_soc, 200)

    def test_paper_table1_mono_row(self):
        """SOC1: (51 + 10 + 2*270) * 216 = 129,816 (Table 1)."""
        soc = Soc(
            "SOC1",
            [Core("top", inputs=51, outputs=10, patterns=2),
             Core("all", scan_cells=270, patterns=216)],
            top="top",
        )
        assert tdv_monolithic(soc, 216) == 129_816

    def test_paper_table2_mono_rows(self):
        """SOC2: 2,986,200 actual and 1,428,320 optimistic (Table 2)."""
        soc = Soc(
            "SOC2",
            [Core("top", inputs=14, outputs=198, patterns=2),
             Core("all", scan_cells=1474, patterns=452)],
            top="top",
        )
        assert tdv_monolithic(soc, 945) == 2_986_200
        assert tdv_monolithic_optimistic(soc) == 1_428_320


class TestModular:
    def test_eq4_sums_per_core(self, flat_soc):
        breakdown = tdv_modular_breakdown(flat_soc)
        assert tdv_modular(flat_soc) == sum(breakdown.values())

    def test_breakdown_keys(self, flat_soc):
        assert set(tdv_modular_breakdown(flat_soc)) == {"top", "a", "b", "c"}

    def test_monotone_in_patterns(self, flat_soc):
        grown = Soc(
            flat_soc.name,
            [core.with_patterns(core.patterns + 10) for core in flat_soc],
            top=flat_soc.top_name,
        )
        assert tdv_modular(grown) > tdv_modular(flat_soc)


class TestPenaltyBenefit:
    def test_eq7_manual(self, flat_soc):
        expected = (
            2 * (16 + 12 + 12 + 12)  # top: own 16 + children terminals
            + 50 * 12
            + 200 * 12
            + 20 * 12
        )
        assert tdv_penalty(flat_soc) == expected

    def test_eq8_manual(self, flat_soc):
        expected = (
            (200 - 2) * 0
            + (200 - 50) * 200
            + 0
            + (200 - 20) * 500
        )
        assert tdv_benefit(flat_soc) == expected

    def test_benefit_zero_when_counts_equal(self):
        cores = [Core(f"c{i}", scan_cells=10, patterns=7) for i in range(3)]
        soc = Soc("s", cores)
        assert tdv_benefit(soc) == 0

    def test_benefit_with_larger_t_mono(self, flat_soc):
        base = tdv_benefit(flat_soc)
        larger = tdv_benefit(flat_soc, monolithic_patterns=300)
        assert larger == base + 100 * 2 * flat_soc.total_scan_cells

    def test_benefit_rejects_below_bound(self, flat_soc):
        with pytest.raises(ValueError, match="Eq. 2"):
            tdv_benefit(flat_soc, monolithic_patterns=199)

    def test_residual(self, flat_soc):
        assert chip_io_residual(flat_soc) == 16 * 200
        assert chip_io_residual(flat_soc, 300) == 16 * 300


class TestSummarize:
    def test_identity_convention_balances_eq6(self, flat_soc):
        summary = summarize(flat_soc)
        assert (
            summary.tdv_monolithic + summary.tdv_penalty - summary.tdv_benefit
            == summary.tdv_modular
        )

    def test_strict_convention_off_by_residual(self, flat_soc):
        summary = summarize(flat_soc, identity_consistent_benefit=False)
        gap = (
            summary.tdv_monolithic + summary.tdv_penalty - summary.tdv_benefit
            - summary.tdv_modular
        )
        assert gap == summary.chip_io_residual

    def test_ratios(self, hier_soc):
        summary = summarize(hier_soc)
        assert summary.reduction_ratio == pytest.approx(
            summary.tdv_monolithic / summary.tdv_modular
        )
        assert summary.modular_change_fraction == pytest.approx(
            summary.tdv_modular / summary.tdv_monolithic - 1.0
        )

    def test_fractions_sum_consistently(self, hier_soc):
        summary = summarize(hier_soc)
        assert 1.0 + summary.penalty_fraction - summary.benefit_fraction == (
            pytest.approx(summary.tdv_modular / summary.tdv_monolithic)
        )

    def test_explicit_monolithic_patterns(self, flat_soc):
        summary = summarize(flat_soc, monolithic_patterns=500)
        assert summary.monolithic_patterns == 500
        assert summary.tdv_monolithic == tdv_monolithic(flat_soc, 500)


def depth3_soc():
    """Top -> a -> a1 -> a2: ISOCOST counts only direct children, a
    bidirectional at every level, a scan-less leaf and a zero-pattern
    core."""
    return Soc(
        "deep",
        [
            Core("top", inputs=6, outputs=4, bidirs=2, scan_cells=10,
                 patterns=3, children=["a", "b"]),
            Core("a", inputs=8, outputs=5, scan_cells=200, patterns=40,
                 children=["a1"]),
            Core("a1", inputs=4, outputs=4, bidirs=1, scan_cells=90,
                 patterns=120, children=["a2"]),
            Core("a2", inputs=3, outputs=2, bidirs=3, scan_cells=0,
                 patterns=700),
            Core("b", inputs=5, outputs=9, scan_cells=150, patterns=0),
        ],
        top="top",
    )


class TestSummarizeMatchesEquations:
    """The one-pass summarize equals the per-equation functions and the
    per-core sums of decompose, under every convention."""

    @pytest.mark.parametrize(
        "soc",
        [load_soc(path) for path in SHIPPED_SOCS] + [depth3_soc()],
        ids=[path.stem for path in SHIPPED_SOCS] + ["depth3"],
    )
    def test_summarize_equals_equations_and_decompose(self, soc):
        measured = soc.max_core_patterns + 37
        for t_mono, identity, pins in itertools.product(
            (None, measured), (True, False), (True, False)
        ):
            case = (t_mono, identity, pins)
            summary = summarize(soc, t_mono, identity, pins)
            mono = soc.monolithic_patterns(t_mono)
            strict = tdv_benefit(soc, t_mono)
            residual = chip_io_residual(soc, t_mono)
            assert summary == TdvSummary(
                soc_name=soc.name,
                core_count=len(soc),
                monolithic_patterns=mono,
                tdv_monolithic=tdv_monolithic(soc, mono),
                tdv_modular=tdv_modular(soc, pins),
                tdv_penalty=tdv_penalty(soc, pins),
                tdv_benefit=strict + residual if identity else strict,
                chip_io_residual=residual,
            ), case
            parts = decompose(soc, t_mono, pins)
            assert summary.tdv_modular == sum(
                core.modular_tdv for core in parts.per_core
            ), case
            assert summary.tdv_penalty == sum(
                core.penalty for core in parts.per_core
            ), case
            assert summary.tdv_benefit == sum(
                core.benefit for core in parts.per_core
            ) + (parts.residual if identity else 0), case
