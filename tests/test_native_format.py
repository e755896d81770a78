"""Unit tests for the native ITC'02 dialect reader (repro.itc02.native)."""

import pytest
from hypothesis import given, settings

from repro.core import summarize
from repro.errors import ReproError
from repro.itc02.native import (
    NativeFormatError,
    NativeModule,
    NativeSocFile,
    native_to_soc,
    parse_native,
)

from .text_edits import EDITS, apply_edits

SAMPLE = """
# native-style file with a two-level hierarchy
SocName demo
TotalModules 4
Module 0 'demo'
    Level 0
    Inputs 10
    Outputs 8
    Bidirs 2
    TotalTests 1
    Test 1
        TamUse 1
        ScanUse 1
        Patterns 5
Module 1 'cpu'
    Level 1
    Inputs 20
    Outputs 16
    ScanChains 2 100 80
    TotalTests 2
    Test 1
        TamUse 0
        ScanUse 1
        Patterns 999
    Test 2
        TamUse 1
        ScanUse 1
        Patterns 250
Module 2 'sub'
    Level 2
    Inputs 4
    Outputs 4
    TotalScanChains 0
    Test 1
        TamUse 1
        ScanUse 1
        Patterns 40
Module 3 'dsp'
    Level 1
    Inputs 8
    Outputs 8
    ScanChain 0 64
    ScanChain 1 64
    Test 1
        TamUse 1
        ScanUse 1
        Patterns 120
"""


class TestParse:
    def test_modules_and_fields(self):
        parsed = parse_native(SAMPLE)
        assert parsed.name == "demo"
        assert len(parsed.modules) == 4
        cpu = parsed.modules[1]
        assert cpu.name == "cpu"
        assert cpu.scan_cells == 180
        assert cpu.scan_chain_lengths == [100, 80]

    def test_per_chain_form(self):
        parsed = parse_native(SAMPLE)
        dsp = parsed.modules[3]
        assert dsp.scan_cells == 128
        assert dsp.scan_chain_lengths == [64, 64]

    def test_test_selection_prefers_tamuse_scanuse(self):
        parsed = parse_native(SAMPLE)
        assert parsed.modules[1].selected_patterns() == 250  # not 999

    def test_fallback_to_first_test(self):
        text = ("SocName s\nModule 0\nLevel 0\nInputs 1\nOutputs 1\n"
                "Test 1\nTamUse 0\nScanUse 0\nPatterns 7\n")
        parsed = parse_native(text)
        assert parsed.modules[0].selected_patterns() == 7

    def test_unknown_keys_collected_not_fatal(self):
        text = SAMPLE.replace("    Inputs 20", "    Inputs 20\n    Frobnicate 3")
        parsed = parse_native(text)
        assert "frobnicate" in parsed.ignored_keys

    def test_missing_socname_rejected(self):
        with pytest.raises(NativeFormatError, match="SocName"):
            parse_native("Module 0\nLevel 0\n")

    def test_no_modules_rejected(self):
        with pytest.raises(NativeFormatError, match="no Module"):
            parse_native("SocName empty\n")

    def test_bad_integer_rejected(self):
        with pytest.raises(NativeFormatError, match="integer"):
            parse_native("SocName s\nModule 0\nInputs many\n")

    @pytest.mark.parametrize("line", ["ScanChains 2 10 1x", "ScanChain 0 6x"])
    def test_bad_chain_length_rejected(self, line):
        with pytest.raises(NativeFormatError, match="expected an integer"):
            parse_native(f"SocName s\nModule 0\nLevel 0\n{line}\n")

    def test_negative_level_rejected(self):
        with pytest.raises(NativeFormatError, match="Level must be >= 0"):
            parse_native("SocName s\nModule 0\nLevel -1\n")


class TestHierarchy:
    def test_level_nesting(self):
        soc = native_to_soc(SAMPLE)
        assert soc.top_name == "0"
        assert soc["0"].children == ["1", "3"]
        assert soc["1"].children == ["2"]
        assert soc["3"].children == []

    def test_orphan_level_rejected(self):
        text = ("SocName s\nModule 0\nLevel 0\nModule 1\nLevel 2\n"
                "Test 1\nPatterns 1\n")
        with pytest.raises(NativeFormatError, match="no preceding"):
            parse_native(text).to_soc()

    def test_no_top_module_rejected(self):
        parsed = NativeSocFile("s", [NativeModule(index=0, level=-1)])
        with pytest.raises(NativeFormatError, match="no level-0"):
            parsed.to_soc()

    def test_converted_soc_analyzes(self):
        soc = native_to_soc(SAMPLE)
        summary = summarize(soc)
        assert summary.tdv_modular > 0
        assert soc.total_scan_cells == 180 + 128

    def test_round_trip_through_package_format(self):
        from repro.itc02 import dump_soc, parse_soc

        soc = native_to_soc(SAMPLE)
        again = parse_soc(dump_soc(soc)).soc
        assert summarize(again).tdv_modular == summarize(soc).tdv_modular


@settings(max_examples=300, deadline=None)
@given(edits=EDITS)
def test_edited_native_raises_only_typed_errors(edits):
    """1-4 character edits of SAMPLE convert or raise a ReproError."""
    try:
        native_to_soc(apply_edits(SAMPLE, edits))
    except ReproError:
        pass
