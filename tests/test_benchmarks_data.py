"""Tests for the shipped ITC'02 data files (repro.itc02.benchmarks).

These tests are the reproduction's Table 3/4 acceptance criteria: every
shipped SOC must match the published aggregates within the calibration
tolerance, and p34392 must match Table 3 verbatim.
"""

import pytest

from repro.core import pattern_count_variation, summarize
from repro.itc02 import benchmark_names, build_p34392, load, load_all, load_file
from repro.itc02.paper_tables import (
    TABLE3_INCONSISTENT_CORES,
    TABLE3_P34392,
    TABLE4,
)
from repro.soc.hierarchy import core_tdv

TOLERANCE = 5e-4


class TestLoading:
    def test_all_ten_present(self):
        names = benchmark_names()
        assert len(names) == 10
        socs = load_all()
        assert list(socs) == names

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown"):
            load("d999")

    def test_files_parse_with_hierarchy(self):
        soc = load("p34392")
        assert soc["2"].children == ["3", "4", "5", "6", "7", "8", "9"]
        assert soc.top_name == "0"

    def test_load_file_returns_socfile(self):
        parsed = load_file("d695")
        assert parsed.soc.name == "d695"


class TestP34392VerbatimData:
    def test_matches_table3_fields(self):
        soc = load("p34392")
        for row in TABLE3_P34392:
            core = soc[row.core]
            assert (core.inputs, core.outputs, core.bidirs,
                    core.scan_cells, core.patterns) == (
                row.inputs, row.outputs, row.bidirs,
                row.scan_cells, row.patterns,
            ), row.core

    def test_build_p34392_equals_shipped_file(self):
        built = build_p34392()
        shipped = load("p34392")
        for core in built:
            clone = shipped[core.name]
            assert (clone.inputs, clone.outputs, clone.bidirs, clone.scan_cells,
                    clone.patterns, clone.children) == (
                core.inputs, core.outputs, core.bidirs, core.scan_cells,
                core.patterns, core.children,
            )

    def test_consistent_rows_are_bit_exact(self):
        soc = load("p34392")
        for row in TABLE3_P34392:
            if row.core in TABLE3_INCONSISTENT_CORES:
                continue
            assert core_tdv(soc, row.core) == row.tdv, row.core

    def test_inconsistent_rows_differ_as_documented(self):
        soc = load("p34392")
        assert core_tdv(soc, "0") != 39_069
        assert core_tdv(soc, "10") == 4_604_468  # Eq. 4/5 value, not 4,559,068

    def test_opt_mono_matches_table4_exactly(self):
        soc = load("p34392")
        assert summarize(soc).tdv_monolithic == 522_738_000


class TestTable4Aggregates:
    @pytest.mark.parametrize("row", TABLE4, ids=lambda r: r.soc)
    def test_opt_penalty_benefit_within_tolerance(self, row):
        # p34392 is verbatim Table 3 data, whose aggregates differ from
        # the (partly inconsistent) Table 4 row by up to ~0.16%.
        tolerance = 2e-3 if row.soc == "p34392" else TOLERANCE
        summary = summarize(load(row.soc))
        assert summary.tdv_monolithic == pytest.approx(
            row.tdv_opt_mono, rel=tolerance
        )
        assert summary.tdv_penalty == pytest.approx(row.tdv_penalty, rel=tolerance)
        assert summary.tdv_benefit == pytest.approx(row.tdv_benefit, rel=tolerance)

    @pytest.mark.parametrize("row", TABLE4, ids=lambda r: r.soc)
    def test_core_counts_match(self, row):
        assert len(load(row.soc)) - 1 == row.cores

    @pytest.mark.parametrize("row", TABLE4, ids=lambda r: r.soc)
    def test_norm_stdev_matches_published_rounding(self, row):
        # p34392's published 1.29 is itself inconsistent with its own
        # Table 3 pattern counts (which give 1.24); everywhere else the
        # shipped data must round to the published value.
        variation = pattern_count_variation(load(row.soc))
        if row.soc == "p34392":
            assert variation == pytest.approx(1.24, abs=0.01)
        else:
            assert variation == pytest.approx(row.norm_stdev, abs=0.015)

    @pytest.mark.parametrize("row", TABLE4, ids=lambda r: r.soc)
    def test_modular_sign_matches_published(self, row):
        """The headline: who wins must match the paper for every SOC."""
        summary = summarize(load(row.soc))
        assert (summary.modular_change_fraction > 0) == (row.modular_percent > 0)

    def test_g12710_is_the_only_modular_loss(self):
        losers = [
            name for name in benchmark_names()
            if summarize(load(name)).modular_change_fraction > 0
        ]
        assert losers == ["g12710"]

    def test_a586710_reduction_exceeds_99_percent(self):
        summary = summarize(load("a586710"))
        assert summary.modular_change_fraction < -0.99

    def test_g12710_pinned_pattern_counts(self):
        soc = load("g12710")
        counts = sorted(
            core.patterns for core in soc if core.name != soc.top_name
        )
        assert counts == [852, 1223, 1223, 1314]

    def test_d695_pinned_pattern_counts(self):
        soc = load("d695")
        counts = sorted(
            core.patterns for core in soc if core.name != soc.top_name
        )
        assert counts == sorted([12, 73, 75, 105, 110, 234, 95, 97, 12, 68])


class TestRegeneration:
    def test_make_data_is_reproducible(self, tmp_path):
        """Regenerating the data files yields byte-identical output."""
        from repro.itc02.benchmarks import data_dir
        from repro.itc02.make_data import generate_all

        written = generate_all(out_dir=tmp_path, verbose=False)
        for name, path in written.items():
            shipped = (data_dir() / f"{name}.soc").read_text()
            assert path.read_text() == shipped, name
