"""Unit tests for fault simulation (repro.atpg.faultsim).

The ground truth is a brute-force reference: inject the fault by
re-evaluating the netlist with the forced value and compare outputs.
"""

import itertools
import random
from typing import Dict, Optional

import pytest

from repro.atpg import (
    CompiledCircuit,
    Fault,
    FaultSimulator,
    collapse_faults,
    fault_coverage,
    full_fault_universe,
    generate_tests,
)
from repro.circuit import Netlist
from repro.circuit.gates import GateType
from repro.runtime.config import AtpgConfig
from repro.synth import GeneratorSpec, generate_circuit


def reference_detects(
    netlist: Netlist,
    circuit: CompiledCircuit,
    fault: Fault,
    assignment: Dict[str, Optional[int]],
) -> bool:
    """Slow, obviously-correct single-pattern fault simulation."""
    good = netlist.evaluate(assignment)

    def faulty_evaluate() -> Dict[str, Optional[int]]:
        from repro.circuit.gates import evaluate_gate

        values: Dict[str, Optional[int]] = {}
        fault_name = circuit.net_names[fault.net]
        for net in netlist.combinational_inputs():
            values[net] = assignment.get(net)
            if not fault.is_branch and net == fault_name:
                values[net] = fault.stuck_at
        for index, gate in enumerate(netlist.topological_order()):
            inputs = []
            for pin, net in enumerate(gate.inputs):
                value = values.get(net)
                if (
                    fault.is_branch
                    and circuit.gates[fault.gate_index].output
                    == circuit.net_ids[gate.output]
                    and pin == fault.pin
                ):
                    value = fault.stuck_at
                inputs.append(value)
            out = evaluate_gate(gate.gate_type, inputs)
            if not fault.is_branch and gate.output == fault_name:
                out = fault.stuck_at
            values[gate.output] = out
        return values

    faulty = faulty_evaluate()
    for net in netlist.combinational_outputs():
        g, f = good[net], faulty[net]
        if g is not None and f is not None and g != f:
            return True
    return False


class TestDetectMask:
    def test_matches_reference_exhaustively_on_c17(self, c17):
        circuit = CompiledCircuit(c17)
        simulator = FaultSimulator(circuit)
        vectors = list(itertools.product((0, 1), repeat=5))
        patterns = [
            {circuit.input_ids[k]: v for k, v in enumerate(vector)}
            for vector in vectors
        ]
        good, count = simulator.good_values(patterns)
        for fault in full_fault_universe(circuit):
            mask = simulator.detect_mask(good, count, fault)
            for bit, vector in enumerate(vectors):
                expected = reference_detects(
                    c17, circuit, fault, dict(zip(c17.inputs, vector))
                )
                assert bool(mask & (1 << bit)) == expected, (
                    f"{fault.describe(circuit)} vector {vector}"
                )

    def test_matches_reference_with_x_bits(self, seq_netlist):
        circuit = CompiledCircuit(seq_netlist)
        simulator = FaultSimulator(circuit)
        rng = random.Random(13)
        patterns = [
            {net_id: rng.choice([0, 1, None]) for net_id in circuit.input_ids}
            for _ in range(32)
        ]
        good, count = simulator.good_values(patterns)
        for fault in full_fault_universe(circuit):
            mask = simulator.detect_mask(good, count, fault)
            for bit, pattern in enumerate(patterns):
                assignment = {
                    circuit.net_names[n]: v for n, v in pattern.items()
                }
                expected = reference_detects(seq_netlist, circuit, fault, assignment)
                assert bool(mask & (1 << bit)) == expected

    def test_undetectable_when_good_equals_stuck(self, c17):
        circuit = CompiledCircuit(c17)
        simulator = FaultSimulator(circuit)
        pattern = {net_id: 0 for net_id in circuit.input_ids}
        good, count = simulator.good_values([pattern])
        # With all inputs 0, G10 = 1; a stuck-at-1 there changes nothing.
        fault = Fault(circuit.net_ids["G10"], 1)
        assert simulator.detect_mask(good, count, fault) == 0


class TestDropAndCoverage:
    def test_drop_detected_partitions(self, c17):
        circuit = CompiledCircuit(c17)
        simulator = FaultSimulator(circuit)
        faults = full_fault_universe(circuit)
        patterns = [{net_id: 0 for net_id in circuit.input_ids}]
        remaining, dropped = simulator.drop_detected(patterns, faults)
        assert dropped + len(remaining) == len(faults)
        assert dropped > 0

    def test_full_vector_set_covers_all_collapsed_c17_faults(self, c17):
        from repro.atpg import collapse_faults

        circuit = CompiledCircuit(c17)
        vectors = list(itertools.product((0, 1), repeat=5))
        patterns = [
            {circuit.input_ids[k]: v for k, v in enumerate(vector)}
            for vector in vectors
        ]
        coverage = fault_coverage(circuit, patterns, collapse_faults(circuit))
        assert coverage == 1.0  # c17 has no undetectable stuck-at faults

    def test_useful_pattern_mask(self, c17):
        circuit = CompiledCircuit(c17)
        simulator = FaultSimulator(circuit)
        faults = full_fault_universe(circuit)
        patterns = [
            {net_id: 0 for net_id in circuit.input_ids},
            {net_id: 0 for net_id in circuit.input_ids},  # duplicate
        ]
        mask = simulator.useful_pattern_mask(patterns, faults)
        assert mask & 0b01  # first detects something
        assert mask & 0b10  # identical second detects the same faults

    def test_empty_fault_list_rejected(self, c17):
        circuit = CompiledCircuit(c17)
        with pytest.raises(ValueError):
            fault_coverage(circuit, [], [])


# -- exhaustive oracle: every input vector of small circuits -----------------

DAG_GATES = (
    GateType.AND, GateType.OR, GateType.NAND, GateType.NOR, GateType.XOR,
    GateType.NOT,
)

def random_dag(seed: int) -> Netlist:
    """A random gate DAG: 3-6 inputs, 12-18 gates over earlier nets.

    Every gate that no other gate reads is an output.  Reconvergent
    fanout and unread inputs leave redundant (untestable) faults, which
    ``generate_circuit``'s cones almost never have.
    """
    rng = random.Random(seed)
    netlist = Netlist(f"dag{seed}")
    nets = [f"i{k}" for k in range(rng.randint(3, 6))]
    for net in nets:
        netlist.add_input(net)
    read = set()
    for k in range(rng.randint(12, 18)):
        gate_type = rng.choice(DAG_GATES)
        arity = 1 if gate_type is GateType.NOT else rng.randint(2, 3)
        inputs = rng.sample(nets, arity)
        netlist.add_gate(gate_type, f"g{k}", inputs)
        read.update(inputs)
        nets.append(f"g{k}")
    for gate in netlist.gates:
        if gate.output not in read:
            netlist.mark_output(gate.output)
    netlist.validate()
    return netlist


def oracle_netlists():
    """Ten random DAGs plus four generator circuits, <= 6 scan inputs."""
    netlists = [random_dag(seed) for seed in range(10)]
    for seed in range(4):
        netlists.append(generate_circuit(GeneratorSpec(
            name=f"gen{seed}", inputs=3 + seed % 3, outputs=2,
            flip_flops=seed % 2, target_gates=25, max_cone_width=8,
            overlap=1.0, xor_fraction=0.3, seed=seed,
        )))
    return netlists


@pytest.fixture(scope="module")
def oracle_cases():
    """(netlist, collapsed faults, all input vectors, reference masks)."""
    cases = []
    for netlist in oracle_netlists():
        circuit = CompiledCircuit(netlist)
        faults = collapse_faults(circuit)
        names = [circuit.net_names[n] for n in circuit.input_ids]
        vectors = list(itertools.product((0, 1), repeat=len(names)))
        masks = []
        for fault in faults:
            mask = 0
            for bit, vector in enumerate(vectors):
                if reference_detects(netlist, circuit, fault, dict(zip(names, vector))):
                    mask |= 1 << bit
            masks.append(mask)
        cases.append((netlist, faults, vectors, masks))
    return cases


class TestExhaustiveOracle:
    def test_cases_include_untestable_faults(self, oracle_cases):
        untestable = sum(
            1 for *_, masks in oracle_cases for mask in masks if not mask
        )
        assert untestable > 0

    def test_detect_masks_match_reference(self, oracle_cases):
        for netlist, faults, vectors, reference in oracle_cases:
            circuit = CompiledCircuit(netlist)
            assert collapse_faults(circuit) == faults
            simulator = FaultSimulator(circuit)
            patterns = [dict(zip(circuit.input_ids, vector)) for vector in vectors]
            good, count = simulator.good_values(patterns)
            assert simulator.detect_masks(good, count, faults) == reference, (
                netlist.name
            )

    # The oracle circuits have at most 24 nets, so they run one-word
    # blocks unless forced wider.
    @pytest.mark.parametrize("lanes", [1, 8])
    def test_engine_verdicts_match_reference(self, oracle_cases, lanes):
        for netlist, faults, _, reference in oracle_cases:
            circuit = CompiledCircuit(netlist)
            circuit.block_lanes = lanes
            result = generate_tests(netlist, config=AtpgConfig(), circuit=circuit)
            never_detected = {
                fault for fault, mask in zip(faults, reference) if not mask
            }
            assert set(result.untestable) == never_detected, netlist.name
            assert result.detected_count == len(faults) - len(never_detected)
            assert result.aborted == []
