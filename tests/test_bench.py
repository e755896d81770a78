"""Unit tests for the .bench reader/writer (repro.circuit.bench)."""

import pytest
from hypothesis import given, settings

from repro.circuit import BenchFormatError, dump_bench, parse_bench
from repro.circuit.bench import load_bench_file, save_bench_file
from repro.errors import ReproError

from .conftest import C17_BENCH
from .text_edits import EDITS, apply_edits


class TestParse:
    def test_c17_shape(self, c17):
        assert len(c17.inputs) == 5
        assert len(c17.outputs) == 2
        assert len(c17.gates) == 6

    def test_comments_and_blank_lines_ignored(self):
        netlist = parse_bench(
            "# header\n\nINPUT(a)\nOUTPUT(z)  # trailing\nz = NOT(a)\n"
        )
        assert netlist.inputs == ["a"]

    def test_dff_parsed(self, seq_netlist):
        assert len(seq_netlist.flip_flops) == 1
        assert seq_netlist.flip_flops[0].output == "S"
        assert seq_netlist.flip_flops[0].data == "NS"

    def test_buff_alias_accepted(self):
        netlist = parse_bench("INPUT(a)\nOUTPUT(z)\nz = BUFF(a)\n")
        assert netlist.gates[0].gate_type.value == "BUF"

    def test_output_may_precede_driver(self):
        netlist = parse_bench("OUTPUT(z)\nINPUT(a)\nz = NOT(a)\n")
        assert netlist.outputs == ["z"]

    def test_dff_arity_error_carries_line_number(self):
        with pytest.raises(BenchFormatError, match="line 2"):
            parse_bench("INPUT(a)\nq = DFF(a, a)\n")

    def test_unknown_gate_rejected(self):
        with pytest.raises(BenchFormatError, match="MAJ"):
            parse_bench("INPUT(a)\nINPUT(b)\nz = MAJ(a, b)\nOUTPUT(z)\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(BenchFormatError, match="unparseable"):
            parse_bench("this is not bench\n")

    def test_undriven_output_rejected_at_validate(self):
        with pytest.raises(BenchFormatError, match="undriven"):
            parse_bench("INPUT(a)\nOUTPUT(zz)\nz = NOT(a)\n")

    def test_duplicate_driver_rejected(self):
        with pytest.raises(BenchFormatError, match="already driven"):
            parse_bench("INPUT(a)\nz = NOT(a)\nz = BUF(a)\nOUTPUT(z)\n")


class TestRoundTrip:
    def test_dump_parse_identity(self, c17):
        text = dump_bench(c17, header_comment="c17 round trip")
        again = parse_bench(text, "c17")
        assert again.inputs == c17.inputs
        assert again.outputs == c17.outputs
        assert [(g.gate_type, g.output, g.inputs) for g in again.gates] == (
            [(g.gate_type, g.output, g.inputs) for g in c17.gates]
        )

    def test_sequential_round_trip(self, seq_netlist):
        again = parse_bench(dump_bench(seq_netlist), "seq")
        assert [(ff.output, ff.data) for ff in again.flip_flops] == (
            [(ff.output, ff.data) for ff in seq_netlist.flip_flops]
        )

    def test_buf_serialized_as_buff(self):
        netlist = parse_bench("INPUT(a)\nOUTPUT(z)\nz = BUF(a)\n")
        assert "BUFF(a)" in dump_bench(netlist)

    def test_file_round_trip(self, c17, tmp_path):
        path = tmp_path / "c17.bench"
        save_bench_file(path, c17)
        again = load_bench_file(path)
        assert again.name == "c17"
        assert len(again.gates) == 6

    def test_generated_circuit_round_trips(self):
        from repro.synth import GeneratorSpec, generate_circuit

        netlist = generate_circuit(
            GeneratorSpec(name="g", inputs=8, outputs=3, flip_flops=4,
                          target_gates=60, seed=9)
        )
        again = parse_bench(dump_bench(netlist), "g")
        assert len(again.gates) == len(netlist.gates)
        assert len(again.flip_flops) == 4


@settings(max_examples=300, deadline=None)
@given(edits=EDITS)
def test_edited_bench_raises_only_typed_errors(edits):
    """1-4 character edits of c17 parse or raise a ReproError."""
    try:
        parse_bench(apply_edits(C17_BENCH, edits), "c17")
    except ReproError:
        pass
