"""Array-compiled circuit representation — the ATPG engines' hot format.

Name-keyed :class:`~repro.circuit.netlist.Netlist` objects are pleasant
to build and inspect but slow to simulate.  :class:`CompiledCircuit`
lowers the full-scan combinational view once into dense integer arrays:
net ids, a topologically ordered gate table, per-net fanout lists, and
per-gate logic levels.  PODEM, the bit-parallel logic simulator, and
the event-driven fault simulator all run on this form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.gates import GateType
from ..circuit.netlist import Netlist

# Gate-type opcodes for the flat-array kernels.  Every simulator in the
# package (bit-parallel logic sim, event-driven fault sim, PODEM's
# five-valued implication) dispatches on these small ints instead of
# GateType enum members; the numbering is stable and pairs inverting
# variants next to their base ops.
OP_BUF, OP_NOT, OP_AND, OP_NAND, OP_OR, OP_NOR, OP_XOR, OP_XNOR = range(8)

OPCODES: Dict[GateType, int] = {
    GateType.BUF: OP_BUF,
    GateType.NOT: OP_NOT,
    GateType.AND: OP_AND,
    GateType.NAND: OP_NAND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_NOR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
}

#: Pattern-block width in 64-bit words, by circuit size: the first
#: ``(net-count threshold, lanes)`` row a circuit reaches.  Wide blocks
#: amortize each draw, simulate and detect call over up to 512 patterns
#: on the flat SOCs.  Tiny circuits (per-cone ATPG in the population
#: studies) keep single-word blocks: their random phases stop after a
#: batch or two, so wider draws would waste RNG work.  Every width gives
#: the same patterns, verdicts and coverage.
LANE_TABLE: Tuple[Tuple[int, int], ...] = ((384, 8), (192, 4))


def lanes_for(net_count: int) -> int:
    """Pattern-block width in 64-bit words for a circuit of ``net_count`` nets."""
    for threshold, lanes in LANE_TABLE:
        if net_count >= threshold:
            return lanes
    return 1


@dataclass(frozen=True)
class CompiledGate:
    """One gate in the compiled table."""

    index: int  # position in topological order
    gate_type: GateType
    output: int  # net id
    inputs: Tuple[int, ...]  # net ids
    level: int  # 1 + max level of fanin gates (inputs are level 0)


class CompiledCircuit:
    """The full-scan combinational view of a netlist, as arrays.

    ``input_ids`` covers primary inputs followed by pseudo-primary
    inputs (flip-flop outputs); ``output_ids`` covers primary outputs
    followed by pseudo-primary outputs (flip-flop D nets), matching the
    conventions of :mod:`repro.circuit.netlist`.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.name = netlist.name
        order = netlist.topological_order()

        self.net_names: List[str] = []
        self.net_ids: Dict[str, int] = {}
        for net in netlist.combinational_inputs():
            self._intern(net)
        for gate in order:
            self._intern(gate.output)
        # Output nets are already interned (inputs or gate outputs), but
        # a PO may also be a PI in degenerate netlists; intern defensively.
        for net in netlist.combinational_outputs():
            self._intern(net)

        self.input_ids: List[int] = [
            self.net_ids[net] for net in netlist.combinational_inputs()
        ]
        self.output_ids: List[int] = [
            self.net_ids[net] for net in netlist.combinational_outputs()
        ]
        self.primary_input_count = len(netlist.inputs)
        self.primary_output_count = len(netlist.outputs)

        level: Dict[int, int] = {net_id: 0 for net_id in self.input_ids}
        self.gates: List[CompiledGate] = []
        self.driver_gate: Dict[int, int] = {}  # net id -> gate index
        for index, gate in enumerate(order):
            in_ids = tuple(self.net_ids[net] for net in gate.inputs)
            gate_level = 1 + max((level.get(i, 0) for i in in_ids), default=0)
            out_id = self.net_ids[gate.output]
            level[out_id] = gate_level
            compiled = CompiledGate(
                index=index,
                gate_type=gate.gate_type,
                output=out_id,
                inputs=in_ids,
                level=gate_level,
            )
            self.gates.append(compiled)
            self.driver_gate[out_id] = index

        self.net_count = len(self.net_names)
        self.fanout: List[List[int]] = [[] for _ in range(self.net_count)]
        for gate in self.gates:
            for net_id in gate.inputs:
                self.fanout[net_id].append(gate.index)
        self.max_level = max((gate.level for gate in self.gates), default=0)
        self._output_id_set = set(self.output_ids)
        self._build_flat_view()
        self._cone_cache: Dict[int, List[int]] = {}
        self._ffr: Optional[Tuple[List[int], List[int]]] = None
        self._reconvergent: Optional[List[bool]] = None
        # The pattern-block width (in 64-bit words) the engines pack
        # batches to.  It never changes results, so it is no part of a
        # run's identity or cache key; tests may override it to force
        # wide or narrow paths.
        self.block_lanes: int = lanes_for(self.net_count)

    def _build_flat_view(self) -> None:
        """Lower the gate table to parallel flat arrays.

        This is the representation the hot kernels run on: opcode /
        output-net / level arrays indexed by gate, CSR-style index
        arrays for gate inputs and net fanouts, and per-net flags for
        "is a (pseudo-)primary output" and "can reach one".  The object
        view (``self.gates``) stays available for inspection and for
        the colder code paths.
        """
        gates = self.gates
        self.gate_op: List[int] = [OPCODES[g.gate_type] for g in gates]
        self.gate_out: List[int] = [g.output for g in gates]
        self.gate_levels: List[int] = [g.level for g in gates]
        # One-tuple-per-gate iteration form shared by the kernels.
        self.gate_table: List[Tuple[int, int, Tuple[int, ...]]] = [
            (op, out, g.inputs)
            for op, out, g in zip(self.gate_op, self.gate_out, gates)
        ]
        # CSR gate-input arrays: inputs of gate i are
        # gate_in_ids[gate_in_start[i]:gate_in_start[i + 1]].
        self.gate_in_start: List[int] = [0] * (len(gates) + 1)
        self.gate_in_ids: List[int] = []
        for i, gate in enumerate(gates):
            self.gate_in_ids.extend(gate.inputs)
            self.gate_in_start[i + 1] = len(self.gate_in_ids)
        # CSR fanout arrays: gates loading net n are
        # fanout_gates[fanout_start[n]:fanout_start[n + 1]].
        self.fanout_start: List[int] = [0] * (self.net_count + 1)
        self.fanout_gates: List[int] = []
        for net_id, loads in enumerate(self.fanout):
            self.fanout_gates.extend(loads)
            self.fanout_start[net_id + 1] = len(self.fanout_gates)
        self.is_output_flag: List[bool] = [False] * self.net_count
        for net_id in self.output_ids:
            self.is_output_flag[net_id] = True
        # Per-net observability: True when the net can reach some
        # (pseudo-)primary output.  A fault effect confined to
        # unobservable nets can never be detected, so the event-driven
        # fault simulator refuses to schedule gates behind them.
        reaches = [False] * self.net_count
        stack: List[int] = []
        for net_id in self.output_ids:
            if not reaches[net_id]:
                reaches[net_id] = True
                stack.append(net_id)
        while stack:
            net_id = stack.pop()
            gate_index = self.driver_gate.get(net_id)
            if gate_index is None:
                continue
            for in_id in gates[gate_index].inputs:
                if not reaches[in_id]:
                    reaches[in_id] = True
                    stack.append(in_id)
        self.reaches_output: List[bool] = reaches

    def _intern(self, net: str) -> int:
        if net not in self.net_ids:
            self.net_ids[net] = len(self.net_names)
            self.net_names.append(net)
        return self.net_ids[net]

    def is_input(self, net_id: int) -> bool:
        return net_id not in self.driver_gate

    def is_output(self, net_id: int) -> bool:
        return net_id in self._output_id_set

    def fanout_cone_gates(self, net_id: int) -> List[int]:
        """Gate indices in the transitive fanout of a net, topo order.

        This is the static bound on the region a fault on ``net_id``
        can influence; the event-driven fault simulator visits only the
        dynamically changed subset of it.  Cones are memoized on the
        circuit, so every simulator/pass sharing one
        :class:`CompiledCircuit` shares the precomputation.  Callers
        must not mutate the returned list.
        """
        cone = self._cone_cache.get(net_id)
        if cone is not None:
            return cone
        seen_gates = set()
        seen_nets = {net_id}
        stack = [net_id]
        while stack:
            net = stack.pop()
            for gate_index in self.fanout[net]:
                if gate_index not in seen_gates:
                    seen_gates.add(gate_index)
                    out = self.gates[gate_index].output
                    if out not in seen_nets:
                        seen_nets.add(out)
                        stack.append(out)
        cone = sorted(seen_gates)
        self._cone_cache[net_id] = cone
        return cone

    def ffr_view(self) -> Tuple[List[int], List[int]]:
        """Fanout-free-region structure: ``(ffr_root, ffr_load_gate)``.

        A net is a *region root* when it is a (pseudo-)primary output
        or does not feed exactly one gate pin (fanout stems, dangling
        nets, and nets wired to two pins of the same gate all count —
        the fanout list holds one entry per loading *pin*).
        ``ffr_root[n]`` is the root net the unique gate chain from
        ``n`` ends at (``n`` itself for roots); ``ffr_load_gate[n]`` is
        the single loading gate along that chain, or ``-1`` at roots.

        Inside a region every fault effect travels a unique
        reconvergence-free path, which is what lets the fault simulator
        replace per-fault event chases with local path-sensitization
        algebra on fully specified batches.  Net ids are topological
        (a gate's output id exceeds all its input ids), so one
        descending pass resolves every chain.  Memoized per circuit.
        """
        if self._ffr is None:
            load = [-1] * self.net_count
            root = list(range(self.net_count))
            is_out = self.is_output_flag
            fanout = self.fanout
            gate_out = self.gate_out
            for net_id in range(self.net_count - 1, -1, -1):
                loads = fanout[net_id]
                if len(loads) == 1 and not is_out[net_id]:
                    gate_index = loads[0]
                    load[net_id] = gate_index
                    root[net_id] = root[gate_out[gate_index]]
            self._ffr = (root, load)
        return self._ffr

    def reconvergent_roots(self) -> List[bool]:
        """Per-net flags: region roots whose fanout branches reconverge.

        A root is *reconvergent* when it is not a (pseudo-)primary
        output, reaches one, and two of its load pins reach a common
        region root — equivalently, two branch fanout cones share a
        gate whose output reaches an output (two pins on one gate
        count).  Only observable loads matter: a root's *children* are
        the roots ``ffr_root[gate_out[g]]`` of its load gates ``g``
        whose output reaches an output.

        For every other observable root the branches' cones are
        disjoint, so a flip of the root reaches an output exactly where
        a flip of one of its branches does; the fault simulator ORs
        branch observabilities there and runs an event chase only at
        the flagged roots.  One descending pass over net ids (children
        have higher ids) builds each root's descendant-root set as a
        bitset over root ordinals; the sets are dropped afterwards.
        Memoized per circuit, like :meth:`ffr_view`.
        """
        if self._reconvergent is None:
            ffr_root, ffr_load = self.ffr_view()
            reaches = self.reaches_output
            is_out = self.is_output_flag
            fan_start = self.fanout_start
            fan_gates = self.fanout_gates
            gate_out = self.gate_out
            flags = [False] * self.net_count
            ordinal = [-1] * self.net_count
            below: List[int] = []  # descendant-root bitset per ordinal
            for net_id in range(self.net_count - 1, -1, -1):
                if ffr_load[net_id] >= 0 or not reaches[net_id]:
                    continue
                seen = 0
                shared = False
                for k in range(fan_start[net_id], fan_start[net_id + 1]):
                    out = gate_out[fan_gates[k]]
                    if reaches[out]:
                        child = below[ordinal[ffr_root[out]]]
                        if seen & child:
                            shared = True
                        seen |= child
                ordinal[net_id] = len(below)
                below.append(seen | (1 << len(below)))
                flags[net_id] = shared and not is_out[net_id]
            self._reconvergent = flags
        return self._reconvergent

    def __repr__(self) -> str:
        return (
            f"CompiledCircuit({self.name!r}, nets={self.net_count}, "
            f"gates={len(self.gates)}, inputs={len(self.input_ids)}, "
            f"outputs={len(self.output_ids)})"
        )
