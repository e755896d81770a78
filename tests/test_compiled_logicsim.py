"""Unit tests for circuit compilation and bit-parallel simulation."""

import itertools
import random

from repro.atpg import CompiledCircuit, pack_patterns, simulate, unpack_value
from repro.atpg.logicsim import output_rails


class TestCompiledCircuit:
    def test_net_interning(self, c17):
        circuit = CompiledCircuit(c17)
        assert circuit.net_count == 11
        assert len(circuit.gates) == 6
        assert len(circuit.input_ids) == 5
        assert len(circuit.output_ids) == 2

    def test_sequential_view(self, seq_netlist):
        circuit = CompiledCircuit(seq_netlist)
        names = [circuit.net_names[i] for i in circuit.input_ids]
        assert names == ["A", "B", "S"]
        out_names = [circuit.net_names[i] for i in circuit.output_ids]
        assert out_names == ["Z", "NS"]
        assert circuit.primary_input_count == 2

    def test_levels_increase_along_paths(self, c17):
        circuit = CompiledCircuit(c17)
        by_output = {circuit.net_names[g.output]: g.level for g in circuit.gates}
        assert by_output["G10"] == 1
        assert by_output["G16"] == 2
        assert by_output["G22"] == 3

    def test_is_input_and_driver(self, c17):
        circuit = CompiledCircuit(c17)
        g1 = circuit.net_ids["G1"]
        g22 = circuit.net_ids["G22"]
        assert circuit.is_input(g1) and not circuit.is_input(g22)
        assert circuit.gates[circuit.driver_gate[g22]].output == g22

    def test_fanout_cone(self, c17):
        circuit = CompiledCircuit(c17)
        cone = circuit.fanout_cone_gates(circuit.net_ids["G11"])
        outputs = {circuit.net_names[circuit.gates[g].output] for g in cone}
        assert outputs == {"G16", "G19", "G22", "G23"}

    def test_fanout_cone_of_output_is_empty(self, c17):
        circuit = CompiledCircuit(c17)
        assert circuit.fanout_cone_gates(circuit.net_ids["G22"]) == []


class TestBitParallelSim:
    def test_agrees_with_reference_evaluator_exhaustively(self, c17):
        """All 32 input vectors at once, checked against Netlist.evaluate."""
        circuit = CompiledCircuit(c17)
        vectors = list(itertools.product((0, 1), repeat=5))
        patterns = [
            {circuit.input_ids[k]: v for k, v in enumerate(vector)}
            for vector in vectors
        ]
        values = simulate(circuit, pack_patterns(circuit, patterns), len(patterns))
        for bit, vector in enumerate(vectors):
            reference = c17.evaluate(dict(zip(c17.inputs, vector)))
            for net in ("G10", "G16", "G22", "G23"):
                assert unpack_value(values[circuit.net_ids[net]], bit) == (
                    reference[net]
                ), f"net {net}, vector {vector}"

    def test_x_propagation_matches_reference(self, c17):
        circuit = CompiledCircuit(c17)
        rng = random.Random(7)
        patterns = []
        for _ in range(64):
            patterns.append({
                net_id: rng.choice([0, 1, None]) for net_id in circuit.input_ids
            })
        values = simulate(circuit, pack_patterns(circuit, patterns), len(patterns))
        for bit, pattern in enumerate(patterns):
            assignment = {
                circuit.net_names[net_id]: value
                for net_id, value in pattern.items()
            }
            reference = c17.evaluate(assignment)
            for net in ("G22", "G23"):
                assert unpack_value(values[circuit.net_ids[net]], bit) == (
                    reference[net]
                )

    def test_xor_chain_parity(self, seq_netlist):
        circuit = CompiledCircuit(seq_netlist)
        ids = {circuit.net_names[i]: i for i in circuit.input_ids}
        patterns = [
            {ids["A"]: 1, ids["B"]: 0, ids["S"]: 0},  # T=0, Z=1
            {ids["A"]: 1, ids["B"]: 1, ids["S"]: 0},  # T=1, Z=0
        ]
        values = simulate(circuit, pack_patterns(circuit, patterns), 2)
        z = values[circuit.net_ids["Z"]]
        assert unpack_value(z, 0) == 1
        assert unpack_value(z, 1) == 0

    def test_output_rails_ordering(self, c17):
        circuit = CompiledCircuit(c17)
        patterns = [{net_id: 0 for net_id in circuit.input_ids}]
        values = simulate(circuit, pack_patterns(circuit, patterns), 1)
        rails = output_rails(circuit, values)
        assert rails[0] == values[circuit.net_ids["G22"]]
        assert rails[1] == values[circuit.net_ids["G23"]]
