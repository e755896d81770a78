"""Unit tests for the structural Verilog subset (repro.circuit.verilog)."""

import pytest
from hypothesis import given, settings

from repro.circuit import dump_bench
from repro.circuit.verilog import (
    VerilogFormatError,
    dump_verilog,
    load_verilog_file,
    parse_verilog,
    save_verilog_file,
)
from repro.errors import ReproError
from repro.synth import GeneratorSpec, generate_circuit

from .text_edits import EDITS, apply_edits

SAMPLE = """
// a tiny sequential module
module tiny (a, b, z);
  input a, b;
  output z;
  wire t, q, nq;
  nand g0 (t, a, b);
  dff  d0 (q, t);
  not  g1 (nq, q);
  and  g2 (z, nq, a);
endmodule
"""


class TestParse:
    def test_structure(self):
        netlist = parse_verilog(SAMPLE)
        assert netlist.name == "tiny"
        assert netlist.inputs == ["a", "b"]
        assert netlist.outputs == ["z"]
        assert len(netlist.gates) == 3
        assert len(netlist.flip_flops) == 1

    def test_block_comments_stripped(self):
        text = SAMPLE.replace("// a tiny sequential module",
                              "/* multi\nline */")
        assert parse_verilog(text).name == "tiny"

    def test_function_matches_semantics(self):
        netlist = parse_verilog(SAMPLE)
        values = netlist.evaluate({"a": 1, "b": 1, "q": 0})
        assert values["t"] == 0  # nand(1,1)
        assert values["z"] == 1  # and(not(0), 1)

    def test_missing_module_rejected(self):
        with pytest.raises(VerilogFormatError, match="module"):
            parse_verilog("wire x;")

    def test_missing_endmodule_rejected(self):
        with pytest.raises(VerilogFormatError, match="endmodule"):
            parse_verilog("module m (a);\n input a;\n")

    def test_unsupported_cell_rejected(self):
        text = "module m (a, z);\n input a;\n output z;\n mux2 u (z, a, a);\nendmodule\n"
        with pytest.raises(VerilogFormatError, match="unsupported cell"):
            parse_verilog(text)

    def test_vector_declarations_rejected(self):
        text = "module m (a, z);\n input [3:0] a;\n output z;\nendmodule\n"
        with pytest.raises(VerilogFormatError, match="unsupported net"):
            parse_verilog(text)

    def test_bad_dff_arity_rejected(self):
        text = ("module m (a, z);\n input a;\n output z;\n"
                " dff d (z, a, a);\nendmodule\n")
        with pytest.raises(VerilogFormatError, match="dff"):
            parse_verilog(text)

    def test_undriven_output_rejected(self):
        text = "module m (a, z);\n input a;\n output z;\nendmodule\n"
        with pytest.raises(VerilogFormatError, match="undriven"):
            parse_verilog(text)


class TestRoundTrip:
    def test_verilog_round_trip(self):
        netlist = parse_verilog(SAMPLE)
        again = parse_verilog(dump_verilog(netlist))
        assert again.inputs == netlist.inputs
        assert again.outputs == netlist.outputs
        assert [(g.gate_type, g.output, g.inputs) for g in again.gates] == (
            [(g.gate_type, g.output, g.inputs) for g in netlist.gates]
        )

    def test_bench_to_verilog_to_bench(self, c17):
        verilog = dump_verilog(c17)
        back = parse_verilog(verilog, name="c17")
        assert dump_bench(back) == dump_bench(c17)

    def test_generated_circuit_round_trips(self):
        netlist = generate_circuit(
            GeneratorSpec(name="vgen", inputs=9, outputs=4, flip_flops=5,
                          target_gates=70, seed=33)
        )
        again = parse_verilog(dump_verilog(netlist))
        assert len(again.gates) == len(netlist.gates)
        assert len(again.flip_flops) == 5

    def test_atpg_agrees_across_formats(self, seq_netlist):
        from repro.atpg import generate_tests

        direct = generate_tests(seq_netlist, seed=4)
        via_verilog = generate_tests(
            parse_verilog(dump_verilog(seq_netlist), name=seq_netlist.name),
            seed=4,
        )
        assert direct.pattern_count == via_verilog.pattern_count
        assert direct.fault_coverage == via_verilog.fault_coverage

    def test_file_round_trip(self, tmp_path, c17):
        path = tmp_path / "c17.v"
        save_verilog_file(path, c17, header_comment="round trip")
        again = load_verilog_file(path)
        assert again.name == "c17"

    def test_hostile_module_name_sanitized(self):
        netlist = parse_verilog(SAMPLE)
        netlist.name = "weird name-1"
        text = dump_verilog(netlist)
        assert "module weird_name_1 " in text
        parse_verilog(text)


@settings(max_examples=300, deadline=None)
@given(edits=EDITS)
def test_edited_verilog_raises_only_typed_errors(edits):
    """1-4 character edits of SAMPLE parse or raise a ReproError."""
    try:
        parse_verilog(apply_edits(SAMPLE, edits))
    except ReproError:
        pass
