"""Differential tests: event-driven fault-sim kernel vs full-cone reference.

The event kernel in :mod:`repro.atpg.faultsim` promises *bit-identical*
detect masks to the classic full-static-cone rescan it replaced.  These
tests reimplement that reference — one `_eval_rail` pass over the whole
fanout cone of the fault site — and compare every fault of randomized
generator circuits under fully-specified and X-heavy partial pattern
batches, at word widths 1 and 64.
"""

import random

import pytest

from repro.atpg.compiled import CompiledCircuit
from repro.atpg.faults import full_fault_universe
from repro.atpg.faultsim import FaultSimulator
from repro.atpg.logicsim import (
    RailBatch,
    _eval_rail,
    pack_patterns,
    pack_patterns_flat,
    simulate,
    simulate_flat,
)
from repro.synth import GeneratorSpec, generate_circuit


def reference_faulty_nets(circuit, good, full, fault):
    """Full-cone rescan: faulty rails of every net the fault changes.

    This is the pre-event-kernel algorithm, kept verbatim as the
    reference semantics: inject the stuck rail (or the branch-faulted
    gate's output), then re-evaluate the *entire* static fanout cone in
    topological order, recording nets whose faulty rail differs.
    """
    stuck_rail = (full, 0) if fault.stuck_at else (0, full)
    faulty = {}
    if fault.is_branch:
        gate = circuit.gates[fault.gate_index]
        inputs = [good[i] for i in gate.inputs]
        inputs[fault.pin] = stuck_rail
        out_rail = _eval_rail(gate.gate_type, inputs, full)
        if out_rail == good[gate.output]:
            return {}
        faulty[gate.output] = out_rail
        cone = circuit.fanout_cone_gates(gate.output)
    else:
        if good[fault.net] == stuck_rail:
            return {}
        faulty[fault.net] = stuck_rail
        cone = circuit.fanout_cone_gates(fault.net)
    for gate_index in cone:
        gate = circuit.gates[gate_index]
        if fault.is_branch and gate_index == fault.gate_index:
            continue
        if not any(i in faulty for i in gate.inputs):
            continue
        inputs = [faulty.get(i, good[i]) for i in gate.inputs]
        out_rail = _eval_rail(gate.gate_type, inputs, full)
        if out_rail != good[gate.output]:
            faulty[gate.output] = out_rail
    return faulty


def reference_detect_mask(circuit, good, count, fault):
    full = (1 << count) - 1
    faulty = reference_faulty_nets(circuit, good, full, fault)
    detected = 0
    for net_id in circuit.output_ids:
        rail = faulty.get(net_id)
        if rail is None:
            continue
        good_ones, good_zeros = good[net_id]
        detected |= (good_ones & rail[1]) | (good_zeros & rail[0])
    return detected


def make_circuit(seed, gates=180, inputs=10, outputs=6, flip_flops=8):
    net = generate_circuit(
        GeneratorSpec(
            name=f"kernel_diff_{seed}",
            inputs=inputs,
            outputs=outputs,
            flip_flops=flip_flops,
            target_gates=gates,
            seed=seed,
        )
    )
    return CompiledCircuit(net)


def make_patterns(circuit, rng, count, x_weight):
    """Pattern batch with ``x_weight`` chance of X per input."""
    choices = [0, 1, None]
    weights = [(1 - x_weight) / 2, (1 - x_weight) / 2, x_weight]
    return [
        {
            net_id: rng.choices(choices, weights)[0]
            for net_id in circuit.input_ids
        }
        for _ in range(count)
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("count,x_weight", [(1, 0.0), (64, 0.0), (64, 0.5)])
def test_detect_masks_match_full_cone_reference(seed, count, x_weight):
    circuit = make_circuit(seed)
    rng = random.Random(1000 + seed)
    patterns = make_patterns(circuit, rng, count, x_weight)
    simulator = FaultSimulator(circuit)
    good, got_count = simulator.good_values(patterns)
    assert got_count == count

    faults = full_fault_universe(circuit)
    assert any(f.is_branch for f in faults)
    mismatches = []
    for fault in faults:
        expected = reference_detect_mask(circuit, good, count, fault)
        actual = simulator.detect_mask(good, count, fault)
        if expected != actual:
            mismatches.append((fault, expected, actual))
    assert not mismatches, mismatches[:5]


@pytest.mark.parametrize("seed", [3, 4])
def test_faulty_output_rails_match_reference(seed):
    circuit = make_circuit(seed, gates=120)
    rng = random.Random(2000 + seed)
    patterns = make_patterns(circuit, rng, 32, 0.3)
    simulator = FaultSimulator(circuit)
    good, count = simulator.good_values(patterns)
    full = (1 << count) - 1

    for fault in full_fault_universe(circuit):
        reference = reference_faulty_nets(circuit, good, full, fault)
        expected = {
            net_id: reference[net_id]
            for net_id in circuit.output_ids
            if net_id in reference
        }
        actual = simulator.faulty_output_rails(good, count, fault)
        assert actual == expected, fault


def test_flat_simulation_matches_tuple_reference():
    circuit = make_circuit(7, gates=150)
    rng = random.Random(77)
    patterns = make_patterns(circuit, rng, 48, 0.25)

    rails = pack_patterns(circuit, patterns)
    reference = simulate(circuit, rails, len(patterns))

    ones, zeros = pack_patterns_flat(circuit, patterns)
    simulate_flat(circuit, ones, zeros, len(patterns))
    assert list(zip(ones, zeros)) == reference


def test_detect_mask_accepts_legacy_list_of_rails():
    circuit = make_circuit(9, gates=80)
    rng = random.Random(9)
    patterns = make_patterns(circuit, rng, 16, 0.4)
    simulator = FaultSimulator(circuit)
    good, count = simulator.good_values(patterns)
    assert isinstance(good, RailBatch)
    legacy = [good[net_id] for net_id in range(len(good))]

    for fault in full_fault_universe(circuit)[::7]:
        assert simulator.detect_mask(legacy, count, fault) == (
            simulator.detect_mask(good, count, fault)
        )


def test_stem_and_branch_seed_degenerate_cases():
    """Seeds equal to the good value and unobservable sites return 0."""
    circuit = make_circuit(11, gates=60)
    rng = random.Random(11)
    patterns = make_patterns(circuit, rng, 8, 0.0)
    simulator = FaultSimulator(circuit)
    good, count = simulator.good_values(patterns)
    full = (1 << count) - 1

    for fault in full_fault_universe(circuit):
        mask = simulator.detect_mask(good, count, fault)
        if not fault.is_branch:
            stuck_rail = (full, 0) if fault.stuck_at else (0, full)
            if good[fault.net] == stuck_rail:
                assert mask == 0
        if not circuit.reaches_output[fault.net]:
            assert mask == 0
