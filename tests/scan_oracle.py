"""Gate-level scan delivery: the oracle for exported test programs.

Everything in the package works on the full-scan *combinational view*.
This module checks that view from outside: it stitches a netlist's
flip-flops into gate-level mux-scan chains (:func:`stitch_scan_chains`),
builds the per-cycle vectors that shift a load through them
(:func:`shift_in_sequence`), and clocks the result cycle by cycle
(:func:`simulate_sequence`).  ``TestGateLevelDelivery`` delivers whole
:func:`~repro.atpg.export_program` programs this way and matches every
predicted response.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.circuit import GateType, Netlist, ScanInsertion, Trit


def stitch_scan_chains(netlist: Netlist, insertion: ScanInsertion) -> Netlist:
    """Build the gate-level mux-scan netlist for a scan configuration.

    Every flip-flop's D input is replaced by a 2:1 mux: functional data
    when ``scan_enable`` is 0, the previous chain cell (or the chain's
    ``scan_in`` port) when 1.  Each chain's last cell drives a
    ``scan_out`` output.  The mux is synthesized from the existing
    primitives (``OR(AND(d, !se), AND(si, se))``), so the result is an
    ordinary netlist that every tool in the package — including the
    cycle-accurate simulator used to *prove* the shift behaviour —
    handles unchanged.
    """
    cells = {cell for chain in insertion.chains for cell in chain.cells}
    if cells != {ff.output for ff in netlist.flip_flops}:
        raise ValueError(
            f"{netlist.name}: scan insertion does not cover the flip-flops"
        )
    stitched = Netlist(f"{netlist.name}_scan")
    for net in netlist.inputs:
        stitched.add_input(net)
    stitched.add_input("scan_enable")
    stitched.add_gate(GateType.NOT, "scan_enable_n", ["scan_enable"])

    previous_in_chain: Dict[str, str] = {}
    for index, chain in enumerate(insertion.chains):
        scan_in = f"scan_in{index}"
        stitched.add_input(scan_in)
        upstream = scan_in
        for cell in chain.cells:
            previous_in_chain[cell] = upstream
            upstream = cell
        if chain.cells:
            scan_out = f"scan_out{index}"
            stitched.add_gate(GateType.BUF, scan_out, [chain.cells[-1]])
            stitched.mark_output(scan_out)

    for ff in netlist.flip_flops:
        mux = f"{ff.output}_scanmux"
        stitched.add_flip_flop(ff.output, mux)
        stitched.add_gate(
            GateType.AND, f"{mux}_func", [ff.data, "scan_enable_n"]
        )
        stitched.add_gate(
            GateType.AND, f"{mux}_shift",
            [previous_in_chain[ff.output], "scan_enable"],
        )
        stitched.add_gate(GateType.OR, mux, [f"{mux}_func", f"{mux}_shift"])

    for gate in netlist.topological_order():
        stitched.add_gate(gate.gate_type, gate.output, gate.inputs)
    for net in netlist.outputs:
        stitched.mark_output(net)
    stitched.validate()
    return stitched


def shift_in_sequence(
    insertion: ScanInsertion,
    load: Dict[str, int],
    functional_inputs: Optional[Dict[str, int]] = None,
) -> List[Dict[str, int]]:
    """The per-cycle input vectors that shift ``load`` into the chains.

    ``load`` maps scan-cell names to target values.  Returns
    ``max_chain_length`` cycles of assignments for the stitched netlist
    (scan_enable high, scan_in pins carrying the serial streams): cell
    values enter last-cell-first, so after the final cycle every cell
    holds its target — the claim the shift tests prove.
    """
    cycles = insertion.max_chain_length
    functional_inputs = functional_inputs or {}
    sequence: List[Dict[str, int]] = []
    for cycle in range(cycles):
        step: Dict[str, int] = {"scan_enable": 1}
        step.update(functional_inputs)
        for index, chain in enumerate(insertion.chains):
            if not chain.cells:
                continue
            # A bit injected at cycle c undergoes (cycles-1-c) further
            # shifts, ending in cell (cycles-1-c).  Chains shorter than
            # the longest therefore lead with padding (those early bits
            # fall off the far end), then carry the real stream.
            position = cycles - 1 - cycle
            if position < len(chain.cells):
                step[f"scan_in{index}"] = load.get(chain.cells[position], 0)
            else:
                step[f"scan_in{index}"] = 0
        sequence.append(step)
    return sequence


@dataclass
class SequentialTrace:
    """State and outputs over a simulated clock sequence."""

    states: List[Dict[str, Trit]] = field(default_factory=list)  # per cycle, post-clock
    outputs: List[Dict[str, Trit]] = field(default_factory=list)  # pre-clock

    @property
    def cycles(self) -> int:
        return len(self.states)

    def final_state(self) -> Dict[str, Trit]:
        if not self.states:
            raise ValueError("no cycles simulated")
        return self.states[-1]


def simulate_sequence(
    netlist: Netlist,
    input_sequence: Sequence[Dict[str, Trit]],
    initial_state: Optional[Dict[str, Trit]] = None,
) -> SequentialTrace:
    """Clock the netlist once per entry of ``input_sequence``.

    Each cycle: apply the cycle's primary-input values together with the
    current flip-flop state, record the primary outputs, then clock —
    every flip-flop captures its D net.  Missing inputs/state bits are X
    and propagate as such.
    """
    state: Dict[str, Trit] = {
        ff.output: None for ff in netlist.flip_flops
    }
    if initial_state:
        unknown = set(initial_state) - set(state)
        if unknown:
            raise ValueError(f"unknown flip-flops in initial state: {sorted(unknown)[:5]}")
        state.update(initial_state)

    trace = SequentialTrace()
    for cycle_inputs in input_sequence:
        assignment: Dict[str, Trit] = dict(state)
        assignment.update(cycle_inputs)
        values = netlist.evaluate(assignment)
        trace.outputs.append({net: values[net] for net in netlist.outputs})
        state = {ff.output: values[ff.data] for ff in netlist.flip_flops}
        trace.states.append(dict(state))
    return trace


def settle_combinational(
    netlist: Netlist,
    inputs: Dict[str, Trit],
    state: Dict[str, Trit],
) -> Dict[str, Trit]:
    """One combinational evaluation at a given state (no clock)."""
    assignment = dict(state)
    assignment.update(inputs)
    return netlist.evaluate(assignment)
