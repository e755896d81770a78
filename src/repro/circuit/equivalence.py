"""Random-simulation equivalence checking between netlists.

The flattening and merge operations must preserve every core's logic
function — a correctness obligation of the monolithic-vs-modular
comparison (the paper compares two *test* strategies for the *same*
logic).  This checker drives both designs with the same random vectors
through the bit-parallel simulator and compares the mapped outputs.
Random simulation is refutation-complete in practice for the circuit
sizes here (thousands of vectors across all outputs) and is the
standard light-weight check before a full formal pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from .netlist import Netlist

# NOTE: the simulators live in repro.atpg, which sits *above* this layer
# (it imports repro.circuit); they are imported inside the functions to
# keep the package import graph acyclic.


@dataclass(frozen=True)
class Counterexample:
    """One input vector on which the two designs disagree."""

    assignment: Dict[str, int]  # over the reference design's inputs
    output: str  # the reference output that differs
    reference_value: Optional[int]
    candidate_value: Optional[int]


@dataclass
class EquivalenceResult:
    equivalent: bool
    vectors_checked: int
    counterexample: Optional[Counterexample] = None

    def __bool__(self) -> bool:
        return self.equivalent


def check_equivalence(
    reference: Netlist,
    candidate: Netlist,
    input_map: Optional[Dict[str, str]] = None,
    output_map: Optional[Dict[str, str]] = None,
    vectors: int = 1024,
    seed: int = 0,
) -> EquivalenceResult:
    """Compare two netlists' combinational (full-scan) functions.

    ``input_map``/``output_map`` translate reference names to candidate
    names (identity by default).  X outputs are compared as X — both
    designs must be undefined together for fully-specified vectors that
    is vacuous, but the maps let callers compare partial cones too.
    """
    from ..atpg.compiled import CompiledCircuit
    from ..atpg.logicsim import (
        RailBatch,
        pack_patterns_flat,
        simulate_flat,
        unpack_value,
    )

    input_map = input_map or {}
    output_map = output_map or {}
    ref_inputs = reference.combinational_inputs()
    ref_outputs = reference.combinational_outputs()
    cand_inputs = {input_map.get(net, net) for net in ref_inputs}
    missing = cand_inputs - set(candidate.combinational_inputs())
    if missing:
        raise ValueError(f"candidate lacks mapped inputs: {sorted(missing)[:5]}")
    cand_outputs = {output_map.get(net, net) for net in ref_outputs}
    missing = cand_outputs - set(candidate.combinational_outputs())
    if missing:
        raise ValueError(f"candidate lacks mapped outputs: {sorted(missing)[:5]}")

    ref_circuit = CompiledCircuit(reference)
    cand_circuit = CompiledCircuit(candidate)
    rng = random.Random(seed)

    checked = 0
    while checked < vectors:
        block_size = min(64, vectors - checked)
        block = [
            {net: rng.getrandbits(1) for net in ref_inputs}
            for _ in range(block_size)
        ]
        ref_patterns = [
            {ref_circuit.net_ids[net]: value for net, value in vec.items()}
            for vec in block
        ]
        cand_patterns = [
            {
                cand_circuit.net_ids[input_map.get(net, net)]: value
                for net, value in vec.items()
            }
            for vec in block
        ]
        ref_ones, ref_zeros = pack_patterns_flat(ref_circuit, ref_patterns)
        simulate_flat(ref_circuit, ref_ones, ref_zeros, block_size)
        ref_values = RailBatch(ref_ones, ref_zeros, block_size)
        cand_ones, cand_zeros = pack_patterns_flat(cand_circuit, cand_patterns)
        simulate_flat(cand_circuit, cand_ones, cand_zeros, block_size)
        cand_values = RailBatch(cand_ones, cand_zeros, block_size)
        for bit in range(block_size):
            for net in ref_outputs:
                ref_value = unpack_value(
                    ref_values[ref_circuit.net_ids[net]], bit
                )
                cand_value = unpack_value(
                    cand_values[cand_circuit.net_ids[output_map.get(net, net)]],
                    bit,
                )
                if ref_value != cand_value:
                    return EquivalenceResult(
                        equivalent=False,
                        vectors_checked=checked + bit + 1,
                        counterexample=Counterexample(
                            assignment=block[bit],
                            output=net,
                            reference_value=ref_value,
                            candidate_value=cand_value,
                        ),
                    )
        checked += block_size
    return EquivalenceResult(equivalent=True, vectors_checked=checked)


def check_instance_in_flat(
    core: Netlist,
    flat: Netlist,
    rename: Dict[str, str],
    vectors: int = 512,
    seed: int = 0,
) -> EquivalenceResult:
    """Check an instantiated core inside a flattened design.

    ``rename`` is the map returned by :meth:`Netlist.merge`.  Only the
    core's *internal* function can be compared this way (its inputs in
    the flat design may be driven by other cores), so the flat netlist
    is probed through a fresh sandbox that re-declares the mapped input
    nets as primary inputs — i.e. we compare against the instantiated
    gate structure, not the surrounding system.
    """
    sandbox = Netlist(f"{flat.name}_probe")
    for net in core.combinational_inputs():
        sandbox.add_input(rename[net])
    needed = {rename[gate.output] for gate in core.gates}
    for gate in flat.topological_order():
        if gate.output in needed:
            sandbox.add_gate(gate.gate_type, gate.output, gate.inputs)
    for net in core.outputs:
        sandbox.mark_output(rename[net])
    for ff in core.flip_flops:
        # The sandbox is combinational: expose the D nets directly.
        sandbox.mark_output(rename[ff.data])
    sandbox.validate()
    output_map = {net: rename[net] for net in core.combinational_outputs()}
    input_map = {net: rename[net] for net in core.combinational_inputs()}
    return check_equivalence(
        core, sandbox, input_map=input_map, output_map=output_map,
        vectors=vectors, seed=seed,
    )
