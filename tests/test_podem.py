"""Unit tests for PODEM (repro.atpg.podem)."""

from repro.atpg import (
    CompiledCircuit,
    Fault,
    FaultSimulator,
    Podem,
    PodemOutcome,
    collapse_faults,
    full_fault_universe,
)
from repro.circuit import parse_bench


def verify_detection(circuit, fault, pattern) -> bool:
    """A PODEM pattern must detect its target under X-aware fault sim."""
    simulator = FaultSimulator(circuit)
    trits = [{net_id: pattern.assignments.get(net_id) for net_id in circuit.input_ids}]
    good, count = simulator.good_values(trits)
    return simulator.detect_mask(good, count, fault) == 1


class TestOnC17:
    def test_every_fault_gets_a_verified_pattern(self, c17):
        """c17 has no untestable stuck-at faults; PODEM must find all."""
        circuit = CompiledCircuit(c17)
        podem = Podem(circuit)
        for fault in full_fault_universe(circuit):
            result = podem.generate(fault)
            assert result.outcome is PodemOutcome.DETECTED, fault.describe(circuit)
            assert verify_detection(circuit, fault, result.pattern), (
                fault.describe(circuit)
            )

    def test_patterns_are_partial(self, c17):
        """PODEM should leave unneeded inputs unassigned."""
        circuit = CompiledCircuit(c17)
        podem = Podem(circuit)
        fault = Fault(circuit.net_ids["G1"], 0)
        result = podem.generate(fault)
        assert result.pattern.specified_bits() < len(circuit.input_ids)


class TestUntestable:
    def test_redundant_fault_proven_untestable(self):
        """z = OR(a, NOT(a)) is constant 1: z stuck-at-1 is untestable."""
        netlist = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\n"
            "n = NOT(a)\nt = OR(a, n)\nz = AND(t, b)\n",
            "redundant",
        )
        circuit = CompiledCircuit(netlist)
        podem = Podem(circuit)
        fault = Fault(circuit.net_ids["t"], 1)
        assert podem.generate(fault).outcome is PodemOutcome.UNTESTABLE

    def test_unobservable_fault_proven_untestable(self):
        """A net with no path to any output cannot be tested."""
        netlist = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\n"
            "dead = AND(a, b)\nz = NOT(a)\n",
            "dead_end",
        )
        circuit = CompiledCircuit(netlist)
        podem = Podem(circuit)
        fault = Fault(circuit.net_ids["dead"], 0)
        assert podem.generate(fault).outcome is PodemOutcome.UNTESTABLE

    def test_backtrack_limit_aborts(self, c17):
        circuit = CompiledCircuit(c17)
        podem = Podem(circuit, backtrack_limit=0)
        # A fault needing at least one decision+flip cycle somewhere:
        outcomes = {
            podem.generate(f).outcome for f in full_fault_universe(circuit)
        }
        assert outcomes <= {PodemOutcome.DETECTED, PodemOutcome.ABORTED}


class TestOnSequentialView:
    def test_all_faults_detected(self, seq_netlist):
        circuit = CompiledCircuit(seq_netlist)
        podem = Podem(circuit)
        for fault in collapse_faults(circuit):
            result = podem.generate(fault)
            assert result.outcome is PodemOutcome.DETECTED
            assert verify_detection(circuit, fault, result.pattern)

    def test_branch_fault_detected(self, seq_netlist):
        """S fans out to NS and T; its branch faults need separate tests."""
        circuit = CompiledCircuit(seq_netlist)
        branch_faults = [f for f in full_fault_universe(circuit) if f.is_branch]
        assert branch_faults
        podem = Podem(circuit)
        for fault in branch_faults:
            result = podem.generate(fault)
            assert result.outcome is PodemOutcome.DETECTED
            assert verify_detection(circuit, fault, result.pattern)


class TestXorLogic:
    def test_xor_tree_faults(self):
        netlist = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(z)\n"
            "x = XOR(a, b)\ny = XNOR(c, d)\nz = XOR(x, y)\n",
            "xortree",
        )
        circuit = CompiledCircuit(netlist)
        podem = Podem(circuit)
        for fault in full_fault_universe(circuit):
            result = podem.generate(fault)
            assert result.outcome is PodemOutcome.DETECTED
            assert verify_detection(circuit, fault, result.pattern)

    def test_wide_gates(self):
        netlist = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(z)\n"
            "z = NAND(a, b, c, d)\n",
            "wide",
        )
        circuit = CompiledCircuit(netlist)
        podem = Podem(circuit)
        for fault in full_fault_universe(circuit):
            result = podem.generate(fault)
            assert result.outcome is PodemOutcome.DETECTED
            assert verify_detection(circuit, fault, result.pattern)


class TestDeterminism:
    def test_same_fault_same_pattern(self, c17):
        circuit = CompiledCircuit(c17)
        fault = Fault(circuit.net_ids["G16"], 1)
        first = Podem(circuit).generate(fault)
        second = Podem(circuit).generate(fault)
        assert first.pattern.assignments == second.pattern.assignments
