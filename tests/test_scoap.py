"""Unit tests for SCOAP testability analysis (repro.circuit.scoap)."""

from repro.circuit import GateType, Netlist, parse_bench
from repro.circuit.scoap import INFINITY, hardest_nets, scoap_measures
from repro.circuit.scoap import testability_summary as scoap_summary


def and2() -> Netlist:
    netlist = Netlist("and2")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_gate(GateType.AND, "z", ["a", "b"])
    netlist.mark_output("z")
    return netlist


class TestControllability:
    def test_inputs_cost_one(self):
        measures = scoap_measures(and2())
        assert (measures["a"].cc0, measures["a"].cc1) == (1, 1)

    def test_and_gate_textbook_values(self):
        measures = scoap_measures(and2())
        # CC1(z) = CC1(a) + CC1(b) + 1 = 3; CC0(z) = min(CC0) + 1 = 2.
        assert measures["z"].cc1 == 3
        assert measures["z"].cc0 == 2

    def test_or_gate_dual(self):
        netlist = Netlist("or2")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_gate(GateType.OR, "z", ["a", "b"])
        netlist.mark_output("z")
        measures = scoap_measures(netlist)
        assert measures["z"].cc0 == 3
        assert measures["z"].cc1 == 2

    def test_inverting_gates_swap(self):
        netlist = Netlist("nand2")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_gate(GateType.NAND, "z", ["a", "b"])
        netlist.mark_output("z")
        measures = scoap_measures(netlist)
        assert measures["z"].cc0 == 3  # all-ones case, inverted
        assert measures["z"].cc1 == 2

    def test_not_chain_accumulates(self):
        netlist = parse_bench("INPUT(a)\nOUTPUT(z)\nb = NOT(a)\nz = NOT(b)\n")
        measures = scoap_measures(netlist)
        assert measures["b"].cc0 == 2  # needs a=1: 1 + 1
        assert measures["z"].cc0 == 3

    def test_xor_parity_dp(self):
        netlist = Netlist("xor2")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_gate(GateType.XOR, "z", ["a", "b"])
        netlist.mark_output("z")
        measures = scoap_measures(netlist)
        # Either polarity needs two assigned inputs: 1 + 1 + 1 = 3.
        assert measures["z"].cc0 == 3
        assert measures["z"].cc1 == 3

    def test_deep_and_tree_cc1_grows(self):
        netlist = Netlist("tree")
        for k in range(8):
            netlist.add_input(f"i{k}")
        netlist.add_gate(GateType.AND, "l0", ["i0", "i1"])
        netlist.add_gate(GateType.AND, "l1", ["i2", "i3"])
        netlist.add_gate(GateType.AND, "l2", ["l0", "l1"])
        netlist.mark_output("l2")
        measures = scoap_measures(netlist)
        assert measures["l2"].cc1 > measures["l0"].cc1 > measures["i0"].cc1


class TestObservability:
    def test_outputs_cost_zero(self):
        measures = scoap_measures(and2())
        assert measures["z"].co == 0

    def test_and_input_observability(self):
        measures = scoap_measures(and2())
        # Observing a through z: side input b must be 1: 0 + 1 + CC1(b).
        assert measures["a"].co == 2

    def test_unobservable_net_gets_infinity(self):
        netlist = Netlist("dead")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_gate(GateType.AND, "unused", ["a", "b"])
        netlist.add_gate(GateType.NOT, "z", ["a"])
        netlist.mark_output("z")
        measures = scoap_measures(netlist)
        assert measures["unused"].co >= INFINITY

    def test_reconvergent_fanout_takes_cheapest_path(self, c17):
        measures = scoap_measures(c17)
        assert all(m.co < INFINITY for m in measures.values())

    def test_ff_nets_are_free_in_full_scan_view(self, seq_netlist):
        measures = scoap_measures(seq_netlist)
        assert (measures["S"].cc0, measures["S"].cc1) == (1, 1)
        assert measures["NS"].co == 0


class TestRanking:
    def test_hardest_nets_ordering(self):
        netlist = Netlist("mix")
        for k in range(6):
            netlist.add_input(f"i{k}")
        netlist.add_gate(GateType.AND, "hard", [f"i{k}" for k in range(6)])
        netlist.add_gate(GateType.NOT, "easy", ["i0"])
        netlist.add_gate(GateType.OR, "z", ["hard", "easy"])
        netlist.mark_output("z")
        ranked = hardest_nets(netlist, count=3)
        assert ranked[0][0] == "hard"

    def test_summary_fields(self, c17):
        summary = scoap_summary(c17)
        assert summary["nets"] == 11
        assert 0 < summary["mean_detect_cost"] <= summary["max_detect_cost"]

    def test_detect_cost_properties(self, c17):
        for measure in scoap_measures(c17).values():
            assert measure.detect_cost_sa0 == min(
                INFINITY, measure.cc1 + measure.co
            )
            assert measure.detect_cost_sa1 == min(
                INFINITY, measure.cc0 + measure.co
            )
