"""Gate-level scan stitching and cycle-accurate shift verification."""

import random

import pytest

from repro.circuit import insert_scan, netlist_stats
from repro.synth import GeneratorSpec, generate_circuit

from .scan_oracle import (
    settle_combinational,
    shift_in_sequence,
    simulate_sequence,
    stitch_scan_chains,
)


@pytest.fixture(scope="module")
def design():
    netlist = generate_circuit(
        GeneratorSpec(name="stitch", inputs=7, outputs=4, flip_flops=11,
                      target_gates=90, seed=23)
    )
    insertion = insert_scan(netlist, chain_count=3)
    return netlist, insertion, stitch_scan_chains(netlist, insertion)


class TestSeqSim:
    def test_state_updates_each_cycle(self, seq_netlist):
        # S starts X; drive A=1,B=1 twice: NS = AND(A, S).
        trace = simulate_sequence(
            seq_netlist,
            [{"A": 1, "B": 1}, {"A": 1, "B": 1}],
            initial_state={"S": 1},
        )
        assert trace.cycles == 2
        assert trace.states[0]["S"] == 1  # AND(1, 1)
        assert trace.outputs[0]["Z"] == 0  # XOR(OR(1,1), 1)

    def test_unknown_initial_state_propagates_x(self, seq_netlist):
        trace = simulate_sequence(seq_netlist, [{"A": 1, "B": 0}])
        assert trace.states[0]["S"] is None  # AND(1, X) = X

    def test_unknown_ff_in_initial_state_rejected(self, seq_netlist):
        with pytest.raises(ValueError, match="unknown flip-flops"):
            simulate_sequence(seq_netlist, [{}], initial_state={"nope": 1})

    def test_final_state_requires_cycles(self, seq_netlist):
        trace = simulate_sequence(seq_netlist, [])
        with pytest.raises(ValueError):
            trace.final_state()

    def test_settle_combinational(self, seq_netlist):
        values = settle_combinational(seq_netlist, {"A": 0, "B": 1}, {"S": 0})
        assert values["Z"] == 1


class TestStitching:
    def test_structure(self, design):
        netlist, insertion, stitched = design
        stats = netlist_stats(stitched)
        assert stats["flip_flops"] == 11
        # Original inputs + scan_enable + one scan_in per chain.
        assert stats["inputs"] == 7 + 1 + 3
        # Original outputs + one scan_out per chain.
        assert stats["outputs"] == 4 + 3
        # 3 mux gates per cell + inverter + per-chain scan_out buffer.
        assert stats["gates"] == len(netlist.gates) + 3 * 11 + 1 + 3

    def test_incomplete_insertion_rejected(self, design):
        netlist, _insertion, _stitched = design
        partial = insert_scan(netlist, chain_count=2)
        partial.chains = partial.chains[:1]
        with pytest.raises(ValueError, match="does not cover"):
            stitch_scan_chains(netlist, partial)

    def test_functional_mode_preserves_logic(self, design):
        """With scan_enable = 0 the stitched design must equal the
        original (full-scan combinational view, muxes transparent)."""
        netlist, _insertion, stitched = design
        rng = random.Random(5)
        for _ in range(64):
            inputs = {net: rng.getrandbits(1) for net in netlist.inputs}
            state = {ff.output: rng.getrandbits(1) for ff in netlist.flip_flops}
            reference = settle_combinational(netlist, inputs, state)
            stitched_inputs = dict(inputs)
            stitched_inputs["scan_enable"] = 0
            for k in range(3):
                stitched_inputs[f"scan_in{k}"] = 0
            observed = settle_combinational(stitched, stitched_inputs, state)
            for net in netlist.outputs:
                assert observed[net] == reference[net]
            for ff in netlist.flip_flops:
                assert observed[f"{ff.output}_scanmux"] == reference[ff.data]

    def test_shift_loads_exact_state(self, design):
        """The headline: gate-level shifting reproduces the abstract
        scan-load the whole TDV accounting assumes."""
        netlist, insertion, stitched = design
        rng = random.Random(9)
        for trial in range(5):
            load = {ff.output: rng.getrandbits(1) for ff in netlist.flip_flops}
            sequence = shift_in_sequence(
                insertion, load,
                functional_inputs={net: 0 for net in netlist.inputs},
            )
            trace = simulate_sequence(stitched, sequence)
            final = trace.final_state()
            for cell, value in load.items():
                assert final[cell] == value, f"trial {trial}, cell {cell}"

    def test_shift_cycle_count_is_max_chain_length(self, design):
        _netlist, insertion, _stitched = design
        sequence = shift_in_sequence(insertion, {})
        assert len(sequence) == insertion.max_chain_length

    def test_unbalanced_chains_also_load_correctly(self):
        netlist = generate_circuit(
            GeneratorSpec(name="ub", inputs=5, outputs=2, flip_flops=10,
                          target_gates=60, seed=29)
        )
        insertion = insert_scan(netlist, chain_count=3, balanced=False)
        assert insertion.imbalance > 1
        stitched = stitch_scan_chains(netlist, insertion)
        rng = random.Random(2)
        load = {ff.output: rng.getrandbits(1) for ff in netlist.flip_flops}
        sequence = shift_in_sequence(
            insertion, load,
            functional_inputs={net: 0 for net in netlist.inputs},
        )
        final = simulate_sequence(stitched, sequence).final_state()
        for cell, value in load.items():
            assert final[cell] == value

    def test_scan_out_observes_chain_tail(self, design):
        netlist, insertion, stitched = design
        state = {ff.output: 1 for ff in netlist.flip_flops}
        inputs = {net: 0 for net in netlist.inputs}
        inputs["scan_enable"] = 1
        for k in range(3):
            inputs[f"scan_in{k}"] = 0
        values = settle_combinational(stitched, inputs, state)
        for index, chain in enumerate(insertion.chains):
            assert values[f"scan_out{index}"] == 1
