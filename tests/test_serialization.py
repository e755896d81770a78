"""Unit tests for JSON serialization (repro.core.serialization)."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.atpg.patterns import TestPattern, TestSet
from repro.core import serialization
from repro.core import (
    analysis_report,
    decompose,
    decomposition_to_dict,
    soc_from_dict,
    soc_to_dict,
    summarize,
    summary_to_dict,
    table4_report,
)
from repro.core.serialization import dumps, loads_soc
from repro.itc02 import load
from repro.soc import Core, Soc


class TestSocRoundTrip:
    def test_round_trip_preserves_everything(self, hier_soc):
        clone = soc_from_dict(json.loads(dumps(soc_to_dict(hier_soc))))
        assert clone.name == hier_soc.name
        assert clone.top_name == hier_soc.top_name
        for core in hier_soc:
            twin = clone[core.name]
            assert (twin.inputs, twin.outputs, twin.bidirs, twin.scan_cells,
                    twin.patterns, twin.children) == (
                core.inputs, core.outputs, core.bidirs, core.scan_cells,
                core.patterns, core.children,
            )

    def test_loads_soc(self, flat_soc):
        clone = loads_soc(dumps(soc_to_dict(flat_soc)))
        assert summarize(clone).tdv_modular == summarize(flat_soc).tdv_modular

    def test_missing_fields_default_to_zero(self):
        soc = soc_from_dict({"name": "s", "cores": [{"name": "a"}]})
        assert soc["a"].inputs == 0

    def test_invalid_structure_rejected(self):
        with pytest.raises(Exception):
            soc_from_dict({"name": "s", "cores": [
                {"name": "a", "children": ["ghost"]},
            ]})


class TestSummarySerialization:
    def test_fields_match_dataclass(self, hier_soc):
        summary = summarize(hier_soc)
        data = summary_to_dict(summary)
        assert data["tdv_monolithic"] == summary.tdv_monolithic
        assert data["tdv_modular"] == summary.tdv_modular
        assert data["modular_change_fraction"] == pytest.approx(
            summary.modular_change_fraction
        )

    def test_json_serializable(self, hier_soc):
        json.dumps(summary_to_dict(summarize(hier_soc)))

    def test_decomposition_per_core_sums(self, hier_soc):
        decomposition = decompose(hier_soc)
        data = decomposition_to_dict(decomposition)
        assert sum(row["penalty"] for row in data["per_core"]) == data["penalty"]
        assert (
            sum(row["benefit"] for row in data["per_core"])
            == data["benefit_strict"]
        )


class TestReports:
    def test_analysis_report_is_self_contained(self, flat_soc):
        report = analysis_report(flat_soc)
        text = dumps(report)
        parsed = json.loads(text)
        assert parsed["summary"]["soc"] == "flat3"
        assert parsed["soc"]["name"] == "flat3"
        restored = soc_from_dict(parsed["soc"])
        assert summarize(restored).tdv_modular == (
            parsed["summary"]["tdv_modular"]
        )

    def test_table4_report_includes_published_values(self):
        from repro.experiments import table4

        report = table4_report(table4(names=["d695", "g12710"]))
        rows = report["table4"]
        assert [row["soc"] for row in rows] == ["d695", "g12710"]
        assert rows[0]["published"]["tdv_opt_mono"] == 2_987_712
        json.dumps(report)

    def test_cli_json_mode(self, tmp_path, capsys):
        from repro.cli import main
        from repro.itc02.format import save_soc_file

        path = tmp_path / "d695.soc"
        save_soc_file(path, load("d695"))
        assert main(["tdv", str(path), "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["summary"]["tdv_monolithic"] == 2_987_712


# -- ATPG test sets --------------------------------------------------------------

#: A pattern over sparse net ids: any subset assigned, the rest X.
_patterns = st.dictionaries(
    st.integers(0, 5000), st.integers(0, 1), max_size=24
).map(TestPattern)


class TestTestSetCodec:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_patterns, max_size=12))
    @example([])  # the empty set
    @example([TestPattern({})])  # one all-X pattern
    @example([TestPattern({3: 1, 900: 0}), TestPattern({})])
    @example([TestPattern({n: n % 2 for n in range(40)})] * 3)  # full rows
    def test_json_round_trip(self, patterns):
        test_set = TestSet("core", patterns)
        encoded = json.loads(json.dumps(serialization.test_set_to_dict(test_set)))
        assert serialization.test_set_from_dict(encoded) == test_set

    def test_rows_are_one_char_per_sorted_input(self):
        test_set = TestSet("core", [
            TestPattern({12: 1, 3: 0}),
            TestPattern({7: 1}),
            TestPattern({}),
        ])
        assert serialization.test_set_to_dict(test_set) == {
            "circuit": "core",
            "inputs": [3, 7, 12],
            "patterns": ["0-1", "-1-", "---"],
        }
