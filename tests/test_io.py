"""Tests for the public repro.io loaders (and their format sniffing)."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

import repro
from repro.circuit import dump_bench
from repro.errors import InputEncodingError, InputFileError, ReproError
from repro.io import load_netlist, load_soc
from tests.conftest import C17_BENCH
from tests.test_itc02_format import A586710
from tests.test_native_format import SAMPLE as NATIVE_SAMPLE
from tests.text_edits import EDITS, apply_edits


class TestLoadNetlist:
    def test_bench_by_default(self, tmp_path, c17):
        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        loaded = load_netlist(path)
        assert loaded.name == "c17"
        assert dump_bench(loaded) == dump_bench(c17)

    def test_verilog_by_extension(self, tmp_path):
        path = tmp_path / "tiny.v"
        path.write_text(
            "module tiny(a, b, y);\n"
            "  input a, b;\n"
            "  output y;\n"
            "  and g1(y, a, b);\n"
            "endmodule\n"
        )
        loaded = load_netlist(path)
        assert set(loaded.inputs) == {"a", "b"}
        assert loaded.outputs == ["y"]

    def test_accepts_str_and_path(self, tmp_path):
        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        assert dump_bench(load_netlist(str(path))) == dump_bench(load_netlist(path))


class TestLoadSoc:
    def test_native_itc02_sniffed_by_header(self, tmp_path):
        path = tmp_path / "native.txt"
        path.write_text(
            "SocName mini\n"
            "TotalModules 2\n"
            "Options Version 2.1\n"
            "Module 0 Level 0 Inputs 4 Outputs 4 Bidirs 0 "
            "ScanChains 0 : TotalPatterns 0\n"
            "Module 1 Level 1 Inputs 2 Outputs 2 Bidirs 0 "
            "ScanChains 1 : 8 TotalPatterns 10\n"
        )
        soc = load_soc(path)
        assert soc.name == "mini"

    def test_soc_dialect_fallback(self, tmp_path):
        path = tmp_path / "mini.soc"
        path.write_text(
            "Soc mini2\n"
            "Core a\n"
            "    Inputs 2\n"
            "    Outputs 2\n"
            "    ScanCells 4\n"
            "    Patterns 10\n"
            "End\n"
        )
        soc = load_soc(path)
        assert soc.name == "mini2"
        assert [core.name for core in soc.cores] == ["a"]


class TestUnreadableFiles:
    """A file that cannot be read is a typed error naming the path; the
    old handlers (``OSError``, ``ValueError`` for bad bytes) still catch it."""

    @pytest.mark.parametrize("loader", [load_netlist, load_soc])
    def test_missing_file_and_directory_are_os_errors(self, tmp_path, loader):
        for path in (tmp_path / "nosuch.bench", tmp_path):
            with pytest.raises(InputFileError) as error:
                loader(path)
            assert isinstance(error.value, OSError)
            assert isinstance(error.value, ReproError)
            assert str(error.value).startswith(f"cannot read {path}: ")

    @pytest.mark.parametrize("name", ["bad.bench", "bad.v", "bad.soc"])
    def test_bytes_that_do_not_decode_are_value_errors(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"ok\n\xc3(\n")
        loader = load_soc if name.endswith(".soc") else load_netlist
        with pytest.raises(ValueError) as error:
            loader(path)
        assert isinstance(error.value, InputEncodingError)
        assert str(error.value) == (
            f"cannot read {path}: not utf-8 text (invalid continuation byte "
            f"at byte 3)"
        )


@pytest.mark.parametrize("text", [NATIVE_SAMPLE, A586710], ids=["native", "soc"])
@settings(max_examples=150, deadline=None)
@given(edits=EDITS)
def test_edited_soc_file_loads_or_raises_typed_error(text, edits):
    """1-4 character edits of either dialect load or raise a ReproError.

    An edit can also break the ``SocName`` header, so the sniffing
    itself is part of what is fuzzed.
    """
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "edited.soc"
        path.write_text(apply_edits(text, edits))
        try:
            load_soc(path)
        except ReproError:
            pass


class TestTopLevelExports:
    def test_loaders_reexported(self):
        assert repro.load_netlist is load_netlist
        assert repro.load_soc is load_soc

    def test_runtime_surface_reexported(self):
        from repro.runtime import RunManifest

        assert repro.RunManifest is RunManifest
        assert "RunManifest" in repro.__all__
        assert "load_soc" in repro.__all__
