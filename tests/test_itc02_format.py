"""Unit tests for the .soc format (repro.itc02.format)."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.itc02 import SocFormatError, dump_soc, parse_soc
from repro.itc02.format import SocFile, load_soc_file, save_soc_file
from repro.soc import Core, Soc

SAMPLE = """
# a tiny SOC
Soc tiny
Top t
Core t
    Inputs 4
    Outputs 2
    Patterns 1
    Embeds a b
End
Core a
    Inputs 3
    Outputs 3
    ScanCells 50
    Patterns 10
End
Core b
    Inputs 1
    Outputs 1
    Bidirs 2
    ScanChains 10 20 15
    Patterns 7
End
"""


class TestParse:
    def test_structure(self):
        parsed = parse_soc(SAMPLE)
        soc = parsed.soc
        assert soc.name == "tiny"
        assert soc.top_name == "t"
        assert soc["t"].children == ["a", "b"]
        assert soc["a"].scan_cells == 50
        assert soc["b"].bidirs == 2

    def test_scan_chains_sum_and_record(self):
        parsed = parse_soc(SAMPLE)
        assert parsed.soc["b"].scan_cells == 45
        assert parsed.scan_chains == {"b": [10, 20, 15]}

    def test_comments_ignored(self):
        parsed = parse_soc("Soc s # inline\nCore c\n  Patterns 3\nEnd\n")
        assert parsed.soc["c"].patterns == 3

    def test_defaults_to_zero(self):
        parsed = parse_soc("Soc s\nCore c\nEnd\n")
        core = parsed.soc["c"]
        assert core.inputs == 0 and core.scan_cells == 0

    def test_missing_header_rejected(self):
        with pytest.raises(SocFormatError, match="Soc"):
            parse_soc("Core c\nEnd\n")

    def test_no_cores_rejected(self):
        with pytest.raises(SocFormatError, match="no cores"):
            parse_soc("Soc s\n")

    def test_unterminated_block_rejected(self):
        with pytest.raises(SocFormatError, match="unterminated"):
            parse_soc("Soc s\nCore c\n")

    def test_nested_core_rejected(self):
        with pytest.raises(SocFormatError, match="nested"):
            parse_soc("Soc s\nCore c\nCore d\nEnd\nEnd\n")

    def test_field_outside_block_rejected(self):
        with pytest.raises(SocFormatError, match="outside"):
            parse_soc("Soc s\nInputs 3\n")

    def test_end_without_core_rejected(self):
        with pytest.raises(SocFormatError, match="without matching"):
            parse_soc("Soc s\nEnd\n")

    def test_scancells_and_scanchains_exclusive(self):
        text = "Soc s\nCore c\nScanCells 5\nScanChains 1 2\nEnd\n"
        with pytest.raises(SocFormatError, match="mutually exclusive"):
            parse_soc(text)

    def test_negative_int_rejected_with_line_number(self):
        with pytest.raises(SocFormatError, match="line 3"):
            parse_soc("Soc s\nCore c\nInputs -1\nEnd\n")

    def test_non_integer_rejected(self):
        with pytest.raises(SocFormatError, match="expected an integer"):
            parse_soc("Soc s\nCore c\nInputs many\nEnd\n")

    def test_unknown_keyword_rejected(self):
        with pytest.raises(SocFormatError, match="Frobnicate"):
            parse_soc("Soc s\nCore c\nFrobnicate 3\nEnd\n")

    def test_unknown_embed_rejected(self):
        with pytest.raises(Exception, match="unknown core"):
            parse_soc("Soc s\nCore c\nEmbeds ghost\nEnd\n")


class TestDump:
    def test_round_trip(self):
        parsed = parse_soc(SAMPLE)
        again = parse_soc(dump_soc(parsed))
        for core in parsed.soc:
            clone = again.soc[core.name]
            assert (clone.inputs, clone.outputs, clone.bidirs,
                    clone.scan_cells, clone.patterns, clone.children) == (
                core.inputs, core.outputs, core.bidirs,
                core.scan_cells, core.patterns, core.children,
            )
        assert again.scan_chains == parsed.scan_chains

    def test_dump_plain_soc(self):
        soc = Soc("s", [Core("a", inputs=1, outputs=1, scan_cells=3, patterns=2)])
        text = dump_soc(soc)
        assert "ScanCells 3" in text
        assert parse_soc(text).soc["a"].scan_cells == 3

    def test_header_comment(self):
        soc = Soc("s", [Core("a")])
        text = dump_soc(soc, header_comment="line one\nline two")
        assert text.startswith("# line one\n# line two\n")

    def test_file_round_trip(self, tmp_path):
        parsed = parse_soc(SAMPLE)
        path = tmp_path / "tiny.soc"
        save_soc_file(path, parsed)
        again = load_soc_file(path)
        assert isinstance(again, SocFile)
        assert again.soc.name == "tiny"


A586710 = (
    Path(__file__).resolve().parents[1] / "src/repro/itc02/data/a586710.soc"
).read_text()

#: One edit: (position as a fraction of the text, kind, character).
EDIT = st.tuples(
    st.floats(0, 1, exclude_max=True),
    st.sampled_from(["insert", "delete", "replace"]),
    st.sampled_from(list("0123456789 -#\nabxCEIOPST")),
)


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(EDIT, min_size=1, max_size=4))
def test_edited_soc_raises_only_typed_errors(edits):
    """1-4 character edits of a shipped file parse or raise a ReproError."""
    text = A586710
    for where, kind, char in edits:
        at = int(where * len(text))
        if kind == "insert":
            text = text[:at] + char + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + char + text[at + 1:]
    try:
        parse_soc(text)
    except ReproError:
        pass
