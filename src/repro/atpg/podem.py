"""PODEM — path-oriented decision making test generation.

Classic PODEM (Goel 1981) over the five-valued D-algebra: all decisions
are made at (pseudo-)primary inputs; objectives are translated to input
assignments by backtracing through the circuit; forward implication is
a five-valued resimulation with the target fault injected.  The search
backtracks by flipping the most recent unflipped input decision,
bounded by a backtrack limit that separates *aborted* from proven
*untestable* faults.

For speed, the implication pass runs over the circuit's flat opcode
table (:attr:`~repro.atpg.compiled.CompiledCircuit.gate_table`) and
computes the D-frontier and output-detection flags in the same sweep.
Two-input gates — the overwhelming majority — evaluate with a single
precomputed 5x5 table lookup; wider gates fall back to the exact
componentwise three-valued fold (pairwise five-valued folding is lossy
for three or more inputs, see :mod:`repro.atpg.values`).

The search itself runs on the *incremental* implication kernel
(:class:`ImplicationKernel`): one full sweep seeds a persistent
five-valued value array when a fault is targeted, and each PI decision
afterwards propagates only through a levelized event worklist — the
same discipline as the event-driven fault-simulation kernel — while an
undo trail lets backtracking restore the exact prior state instead of
resimulating the circuit.  Each decision therefore costs O(affected
cone) instead of O(circuit).  The full-sweep :meth:`Podem._imply` is
kept as the reference implementation; ``tests/test_podem_kernel.py``
differentially enforces that the kernel's values, D-frontier, and
detection flag match it at every decision point, and
``Podem(circuit, incremental=False)`` still runs the search entirely on
the reference sweep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..circuit.gates import GateType
from ..observability import get_tracer, register_counter
from ..runtime.abort import get_abort
from .compiled import (
    OP_AND,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    CompiledCircuit,
)
from .faults import Fault
from .patterns import TestPattern
from .values import (
    AND3,
    AND_TABLE,
    COMPOSE3,
    FAULTY_COMPONENT,
    GOOD_COMPONENT,
    NOT_TABLE,
    ONE,
    OR3,
    OR_TABLE,
    X,
    XOR3,
    XOR_TABLE,
    ZERO,
    compose,
    good_value,
)

# Values 3 (D) and 4 (D-bar) carry a fault effect; X is 2.
_FAULTED_MIN = 3

# Implication-table plumbing per opcode: the exact 5x5 pairwise table
# (2-input gates only), the three-valued fold table with its identity
# (any width), and whether the output is inverted afterwards.
_PAIR_TABLES = {
    OP_AND: AND_TABLE,
    OP_NAND: AND_TABLE,
    OP_OR: OR_TABLE,
    OP_NOR: OR_TABLE,
    OP_XOR: XOR_TABLE,
    OP_XNOR: XOR_TABLE,
}
_FOLD_TABLES = {
    OP_AND: (AND3, 1),
    OP_NAND: (AND3, 1),
    OP_OR: (OR3, 0),
    OP_NOR: (OR3, 0),
    OP_XOR: (XOR3, 0),
    OP_XNOR: (XOR3, 0),
}
_INVERTING_OPS = frozenset((OP_NOT, OP_NAND, OP_NOR, OP_XNOR))

# Evaluation kinds for the implication loop.
_KIND_BUF, _KIND_NOT, _KIND_PAIR, _KIND_FOLD = range(4)

PODEM_CALLS = register_counter("podem.calls", "PODEM searches attempted")
PODEM_BACKTRACKS = register_counter("podem.backtracks", "decision flips taken")
PODEM_DECISIONS = register_counter("podem.decisions", "input decisions made")
PODEM_EVENTS = register_counter(
    "podem.events", "gate re-evaluations in the incremental implication kernel"
)
PODEM_UNDO_DEPTH = register_counter(
    "podem.undo_depth", "implication trail entries unwound while backtracking"
)


class PodemOutcome(enum.Enum):
    DETECTED = "detected"
    UNTESTABLE = "untestable"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    outcome: PodemOutcome
    pattern: Optional[TestPattern]
    backtracks: int
    decisions: int


@dataclass
class _ImplyState:
    """Everything one implication sweep learns."""

    values: List[int]
    frontier: List[int]  # gate table indices with X output and faulted input
    detected: bool


class ImplicationKernel:
    """Persistent, event-driven five-valued implication for one search.

    :meth:`begin` seeds the state with one reference-grade full sweep;
    :meth:`assign` propagates a single new PI assignment through a
    levelized event worklist, updating the value array, the D-frontier
    membership, and the detected-output count only where gates actually
    re-evaluated; :meth:`undo` pops the trail back to a checkpoint, so
    backtracking restores the exact pre-decision state without any
    resimulation.

    Invariant (enforced differentially by ``tests/test_podem_kernel.py``):
    after any sequence of assigns/undos, ``values``, ``frontier()`` and
    ``detected`` equal what :meth:`Podem._imply` computes from scratch
    for the same assignment dict — the kernel is a cache of the
    reference sweep, never a different algorithm.
    """

    __slots__ = (
        "_podem", "_circuit", "values", "_frontier_flag", "_frontier",
        "_detected_outs", "_vtrail", "_ftrail", "_buckets", "_gate_epoch",
        "_epoch", "_fault_net", "_stuck", "_branch_gate", "_branch_pin",
        "_fault_gate", "events", "undo_entries",
    )

    def __init__(self, podem: "Podem"):
        self._podem = podem
        self._circuit = podem.circuit
        gate_count = len(self._circuit.gates)
        self.values: List[int] = []
        self._frontier_flag = [False] * gate_count
        self._frontier: set = set()
        self._detected_outs = 0
        self._vtrail: List[Tuple[int, int]] = []  # (net id, previous value)
        self._ftrail: List[Tuple[int, bool]] = []  # (gate index, previous flag)
        self._buckets: List[List[int]] = [
            [] for _ in range(self._circuit.max_level + 1)
        ]
        self._gate_epoch = [0] * gate_count
        self._epoch = 0
        self._fault_net = -1
        self._stuck = 0
        self._branch_gate = -1
        self._branch_pin = -1
        self._fault_gate = -1
        self.events = 0
        self.undo_entries = 0

    # -- lifecycle -------------------------------------------------------

    def begin(self, fault: Fault, assignments: Dict[int, int]) -> None:
        """Target ``fault``: seed state with one reference sweep.

        With no assignments (every primary target) the sweep is skipped
        outright: all-X inputs imply all-X nets — ``_inject(X)`` is X,
        every five-valued op maps all-X operands to X — so the reference
        result is statically known to be (all-X, empty frontier, not
        detected).
        """
        if assignments:
            state = self._podem._imply(assignments, fault)
            self.values = state.values
            frontier = state.frontier
            values = self.values
            self._detected_outs = sum(
                1
                for net_id in self._circuit.output_ids
                if values[net_id] >= _FAULTED_MIN
            )
        else:
            self.values = [X] * self._circuit.net_count
            frontier = ()
            self._detected_outs = 0
        flags = self._frontier_flag
        for gate_index in self._frontier:
            flags[gate_index] = False
        self._frontier = set(frontier)
        for gate_index in self._frontier:
            flags[gate_index] = True
        self._vtrail.clear()
        self._ftrail.clear()
        self._fault_net = fault.net
        self._stuck = fault.stuck_at
        self._branch_gate = fault.gate_index if fault.is_branch else -1
        self._branch_pin = fault.pin
        if self._branch_gate < 0:
            self._fault_gate = self._circuit.driver_gate.get(fault.net, -1)
        else:
            self._fault_gate = -1

    # -- queries ---------------------------------------------------------

    @property
    def detected(self) -> bool:
        return self._detected_outs > 0

    def frontier(self) -> List[int]:
        """The D-frontier in sweep order (ascending gate index).

        Sorting the membership set reproduces exactly the list order the
        reference full sweep appends in, so objective selection — a
        ``min`` that breaks level ties by list position — is
        bit-identical between the two implementations.
        """
        return sorted(self._frontier)

    def state(self) -> _ImplyState:
        """The current state in the reference sweep's result shape."""
        return _ImplyState(
            values=self.values, frontier=self.frontier(), detected=self.detected
        )

    def mark(self) -> Tuple[int, int]:
        """A checkpoint token for :meth:`undo`."""
        return (len(self._vtrail), len(self._ftrail))

    # -- mutation --------------------------------------------------------

    def assign(self, net_id: int, value: int) -> None:
        """Apply one PI assignment and propagate its consequences."""
        if self._branch_gate < 0 and net_id == self._fault_net:
            value = _inject(value, self._stuck)
        values = self.values
        if values[net_id] == value:
            return
        self._set_value(net_id, value)

        circuit = self._circuit
        fan_start = circuit.fanout_start
        fan_gates = circuit.fanout_gates
        gate_levels = circuit.gate_levels
        gate_epoch = self._gate_epoch
        buckets = self._buckets
        self._epoch += 1
        epoch = self._epoch

        pending = 0
        level = circuit.max_level + 1
        top_level = 0
        for k in range(fan_start[net_id], fan_start[net_id + 1]):
            g = fan_gates[k]
            if gate_epoch[g] != epoch:
                gate_epoch[g] = epoch
                lvl = gate_levels[g]
                buckets[lvl].append(g)
                pending += 1
                if lvl < level:
                    level = lvl
                if lvl > top_level:
                    top_level = lvl

        # Levelized event sweep: events travel to strictly higher
        # levels, so each touched gate evaluates once, inputs final.
        events = 0
        table5 = self._podem._table5
        frontier_flag = self._frontier_flag
        while pending and level <= top_level:
            bucket = buckets[level]
            level += 1
            if not bucket:
                continue
            for gate_index in bucket:
                pending -= 1
                events += 1
                out_id, out, in_frontier = self._eval_gate(gate_index, table5)
                if in_frontier != frontier_flag[gate_index]:
                    self._ftrail.append((gate_index, frontier_flag[gate_index]))
                    frontier_flag[gate_index] = in_frontier
                    if in_frontier:
                        self._frontier.add(gate_index)
                    else:
                        self._frontier.discard(gate_index)
                if out == values[out_id]:
                    continue  # output unchanged — fanout stays settled
                self._set_value(out_id, out)
                for k in range(fan_start[out_id], fan_start[out_id + 1]):
                    g = fan_gates[k]
                    if gate_epoch[g] != epoch:
                        gate_epoch[g] = epoch
                        lvl = gate_levels[g]
                        buckets[lvl].append(g)
                        pending += 1
                        if lvl > top_level:
                            top_level = lvl
            del bucket[:]
        self.events += events

    def undo(self, mark: Tuple[int, int]) -> None:
        """Restore the state checkpointed by :meth:`mark`."""
        v_mark, f_mark = mark
        values = self.values
        is_output = self._podem._is_output
        vtrail = self._vtrail
        undone = len(vtrail) - v_mark
        while len(vtrail) > v_mark:
            net_id, previous = vtrail.pop()
            if is_output[net_id]:
                now_faulted = values[net_id] >= _FAULTED_MIN
                was_faulted = previous >= _FAULTED_MIN
                if now_faulted and not was_faulted:
                    self._detected_outs -= 1
                elif was_faulted and not now_faulted:
                    self._detected_outs += 1
            values[net_id] = previous
        ftrail = self._ftrail
        undone += len(ftrail) - f_mark
        frontier_flag = self._frontier_flag
        while len(ftrail) > f_mark:
            gate_index, previous_flag = ftrail.pop()
            frontier_flag[gate_index] = previous_flag
            if previous_flag:
                self._frontier.add(gate_index)
            else:
                self._frontier.discard(gate_index)
        self.undo_entries += undone

    # -- internals -------------------------------------------------------

    def _set_value(self, net_id: int, value: int) -> None:
        values = self.values
        previous = values[net_id]
        self._vtrail.append((net_id, previous))
        values[net_id] = value
        if self._podem._is_output[net_id]:
            now_faulted = value >= _FAULTED_MIN
            was_faulted = previous >= _FAULTED_MIN
            if now_faulted and not was_faulted:
                self._detected_outs += 1
            elif was_faulted and not now_faulted:
                self._detected_outs -= 1

    def _eval_gate(self, gate_index: int, table5) -> Tuple[int, int, bool]:
        """One gate's (output net, new value, frontier membership).

        Mirrors the per-gate body of :meth:`Podem._imply` exactly,
        including the stem-fault output injection and the branch-fault
        pin override.
        """
        values = self.values
        out_id, in_ids, kind, table, inv = table5[gate_index]
        in_frontier = False
        if gate_index == self._branch_gate:
            sink: List[int] = []
            out = self._podem._eval_branch_gate(
                values, in_ids, kind, inv,
                gate_index, self._branch_pin, self._stuck, sink.append,
            )
            in_frontier = bool(sink)
        elif kind == _KIND_PAIR:
            v0 = values[in_ids[0]]
            v1 = values[in_ids[1]]
            out = table[v0][v1]
            if inv:
                out = NOT_TABLE[out]
            if out == X and (v0 >= _FAULTED_MIN or v1 >= _FAULTED_MIN):
                in_frontier = True
        elif kind == _KIND_BUF:
            out = values[in_ids[0]]
        elif kind == _KIND_NOT:
            out = NOT_TABLE[values[in_ids[0]]]
        else:
            table3, identity = table
            good = faulty = identity
            faulted_input = False
            for in_id in in_ids:
                v = values[in_id]
                if v >= _FAULTED_MIN:
                    faulted_input = True
                good = table3[good][GOOD_COMPONENT[v]]
                faulty = table3[faulty][FAULTY_COMPONENT[v]]
            out = COMPOSE3[good][faulty]
            if inv:
                out = NOT_TABLE[out]
            if out == X and faulted_input:
                in_frontier = True
        if gate_index == self._fault_gate:
            out = _inject(out, self._stuck)
        return out_id, out, in_frontier


class Podem:
    """A reusable PODEM engine for one compiled circuit.

    ``incremental`` selects the implication implementation: the default
    event-driven kernel with an undo trail, or (``False``) the reference
    full sweep per decision.  Both produce bit-identical searches — the
    flag exists for differential testing and for measuring the kernel's
    speedup.
    """

    def __init__(
        self,
        circuit: CompiledCircuit,
        backtrack_limit: int = 100,
        incremental: bool = True,
    ):
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self.incremental = incremental
        self._kernel: Optional[ImplicationKernel] = None
        self._input_set = set(circuit.input_ids)
        self._is_output = circuit.is_output_flag
        self._level = circuit.gate_levels
        # Implication table: (output id, input ids, kind, table, invert)
        # specialized per gate from the circuit's flat opcode table.
        table5: List[Tuple[int, Tuple[int, ...], int, object, bool]] = []
        fold_info: List[Optional[Tuple[object, int]]] = []
        for op, out_id, in_ids in circuit.gate_table:
            inv = op in _INVERTING_OPS
            if op < OP_AND:  # BUF / NOT
                kind = _KIND_NOT if op == OP_NOT else _KIND_BUF
                table: object = None
                fold_info.append(None)
            elif len(in_ids) == 2:
                kind = _KIND_PAIR
                table = _PAIR_TABLES[op]
                fold_info.append(_FOLD_TABLES[op])
            else:
                kind = _KIND_FOLD
                table = _FOLD_TABLES[op]
                fold_info.append(_FOLD_TABLES[op])
            table5.append((out_id, in_ids, kind, table, inv))
        self._table5, self._fold_info = table5, fold_info

    # -- public ------------------------------------------------------------

    def generate(
        self, fault: Fault, frozen: Optional[Dict[int, int]] = None
    ) -> PodemResult:
        """Find an input assignment detecting ``fault``, or prove/abort.

        ``frozen`` pre-assigns input values the search may use but never
        revisit — the dynamic-compaction hook: detecting a *secondary*
        fault under the primary pattern's assignments extends that
        pattern instead of opening a new one.  An UNTESTABLE outcome
        with ``frozen`` set means only "not under these constraints".
        """
        kernel = self._kernel
        events_before = kernel.events if kernel is not None else 0
        undo_before = kernel.undo_entries if kernel is not None else 0
        result = self._generate(fault, frozen)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count(PODEM_CALLS)
            if result.backtracks:
                tracer.count(PODEM_BACKTRACKS, result.backtracks)
            if result.decisions:
                tracer.count(PODEM_DECISIONS, result.decisions)
            kernel = self._kernel
            if kernel is not None:
                events = kernel.events - events_before
                if events:
                    tracer.count(PODEM_EVENTS, events)
                undone = kernel.undo_entries - undo_before
                if undone:
                    tracer.count(PODEM_UNDO_DEPTH, undone)
        return result

    def _generate(
        self, fault: Fault, frozen: Optional[Dict[int, int]] = None
    ) -> PodemResult:
        if self.incremental:
            return self._generate_incremental(fault, frozen)
        return self._generate_reference(fault, frozen)

    def _generate_incremental(
        self, fault: Fault, frozen: Optional[Dict[int, int]] = None
    ) -> PodemResult:
        """The search loop on the event-driven kernel.

        Mirrors :meth:`_generate_reference` step for step; the only
        difference is that implication state is updated in place
        (assign) and checkpoint-restored (undo) instead of resimulated,
        so the two paths make identical decisions in identical order.
        """
        assignments: Dict[int, int] = dict(frozen) if frozen else {}
        kernel = self._kernel
        if kernel is None:
            kernel = self._kernel = ImplicationKernel(self)
        kernel.begin(fault, assignments)
        # (net_id, already flipped, trail checkpoint before the decision)
        stack: List[Tuple[int, bool, Tuple[int, int]]] = []
        backtracks = 0
        decisions = 0
        abort = get_abort()

        while True:
            abort.check()
            if kernel.detected:
                return PodemResult(
                    PodemOutcome.DETECTED,
                    TestPattern(dict(assignments)),
                    backtracks,
                    decisions,
                )
            state = kernel.state()
            objective = None
            if self._promising(state, fault):
                objective = self._objective(state, fault)
            if objective is not None:
                pi, value = self._backtrace(objective, state.values)
                if pi is not None:
                    mark = kernel.mark()
                    assignments[pi] = value
                    kernel.assign(pi, value)
                    stack.append((pi, False, mark))
                    decisions += 1
                    continue
                # No X input reachable for the objective: treat as conflict.
            backtracks += 1
            abort.spend_backtracks(1)
            if backtracks > self.backtrack_limit:
                return PodemResult(PodemOutcome.ABORTED, None, backtracks, decisions)
            while stack:
                pi, flipped, mark = stack.pop()
                kernel.undo(mark)
                if flipped:
                    del assignments[pi]
                else:
                    assignments[pi] = 1 - assignments[pi]
                    kernel.assign(pi, assignments[pi])
                    stack.append((pi, True, mark))
                    break
            else:
                return PodemResult(PodemOutcome.UNTESTABLE, None, backtracks, decisions)

    def _generate_reference(
        self, fault: Fault, frozen: Optional[Dict[int, int]] = None
    ) -> PodemResult:
        assignments: Dict[int, int] = dict(frozen) if frozen else {}
        stack: List[Tuple[int, bool]] = []  # (net_id, already flipped)
        backtracks = 0
        decisions = 0
        abort = get_abort()

        while True:
            abort.check()
            state = self._imply(assignments, fault)
            if state.detected:
                return PodemResult(
                    PodemOutcome.DETECTED,
                    TestPattern(dict(assignments)),
                    backtracks,
                    decisions,
                )
            objective = None
            if self._promising(state, fault):
                objective = self._objective(state, fault)
            if objective is not None:
                pi, value = self._backtrace(objective, state.values)
                if pi is not None:
                    assignments[pi] = value
                    stack.append((pi, False))
                    decisions += 1
                    continue
                # No X input reachable for the objective: treat as conflict.
            backtracks += 1
            abort.spend_backtracks(1)
            if backtracks > self.backtrack_limit:
                return PodemResult(PodemOutcome.ABORTED, None, backtracks, decisions)
            while stack:
                pi, flipped = stack.pop()
                if flipped:
                    del assignments[pi]
                else:
                    assignments[pi] = 1 - assignments[pi]
                    stack.append((pi, True))
                    break
            else:
                return PodemResult(PodemOutcome.UNTESTABLE, None, backtracks, decisions)

    # -- implication --------------------------------------------------------

    def _imply(self, assignments: Dict[int, int], fault: Fault) -> _ImplyState:
        """Forward five-valued sweep with the fault injected.

        One pass computes net values, the D-frontier, and whether a
        fault effect reached a (pseudo-)primary output.  Two-input
        gates use the exact pairwise 5x5 tables; wider gates use the
        componentwise fold (see the module docstring).
        """
        circuit = self.circuit
        values = [X] * circuit.net_count
        for net_id, assigned in assignments.items():
            values[net_id] = assigned  # ZERO == 0, ONE == 1
        fault_net = fault.net
        stuck = fault.stuck_at
        branch_gate = fault.gate_index if fault.is_branch else -1
        branch_pin = fault.pin
        if branch_gate < 0:
            values[fault_net] = _inject(values[fault_net], stuck)
            fault_gate = circuit.driver_gate.get(fault_net, -1)
        else:
            fault_gate = -1

        not_t = NOT_TABLE
        is_output = self._is_output
        frontier: List[int] = []
        frontier_append = frontier.append
        detected = False

        for gate_index, (out_id, in_ids, kind, table, inv) in enumerate(self._table5):
            if gate_index == branch_gate:
                out = self._eval_branch_gate(
                    values, in_ids, kind, inv, gate_index, branch_pin, stuck,
                    frontier_append,
                )
            elif kind == _KIND_PAIR:
                v0 = values[in_ids[0]]
                v1 = values[in_ids[1]]
                out = table[v0][v1]
                if inv:
                    out = not_t[out]
                if out == X and (v0 >= _FAULTED_MIN or v1 >= _FAULTED_MIN):
                    frontier_append(gate_index)
            elif kind == _KIND_BUF:
                out = values[in_ids[0]]
            elif kind == _KIND_NOT:
                out = not_t[values[in_ids[0]]]
            else:
                # Componentwise fold — exact for wide gates (see values.py).
                table3, identity = table
                good = faulty = identity
                faulted_input = False
                for in_id in in_ids:
                    v = values[in_id]
                    if v >= _FAULTED_MIN:
                        faulted_input = True
                    good = table3[good][GOOD_COMPONENT[v]]
                    faulty = table3[faulty][FAULTY_COMPONENT[v]]
                out = COMPOSE3[good][faulty]
                if inv:
                    out = not_t[out]
                if out == X and faulted_input:
                    frontier_append(gate_index)
            if gate_index == fault_gate:
                out = _inject(out, stuck)
            values[out_id] = out
            if out >= _FAULTED_MIN and is_output[out_id]:
                detected = True
        # A faulted primary input that is itself an output (degenerate).
        if not detected and branch_gate < 0 and values[fault_net] >= _FAULTED_MIN:
            detected = is_output[fault_net]
        return _ImplyState(values=values, frontier=frontier, detected=detected)

    def _eval_branch_gate(
        self,
        values: List[int],
        in_ids: Tuple[int, ...],
        kind: int,
        inv: bool,
        gate_index: int,
        branch_pin: int,
        stuck: int,
        frontier_append,
    ) -> int:
        """Evaluate the branch-faulted gate with the pin override.

        Runs once per implication sweep; always uses the exact
        componentwise fold so injected pins behave identically to the
        reference evaluation regardless of gate width.
        """
        if kind == _KIND_BUF or kind == _KIND_NOT:
            v0 = _inject(values[in_ids[0]], stuck)
            return NOT_TABLE[v0] if kind == _KIND_NOT else v0
        table3, identity = self._fold_info[gate_index]
        good = faulty = identity
        faulted_input = False
        for pin, in_id in enumerate(in_ids):
            v = values[in_id]
            if pin == branch_pin:
                v = _inject(v, stuck)
            if v >= _FAULTED_MIN:
                faulted_input = True
            good = table3[good][GOOD_COMPONENT[v]]
            faulty = table3[faulty][FAULTY_COMPONENT[v]]
        out = COMPOSE3[good][faulty]
        if inv:
            out = NOT_TABLE[out]
        if out == X and faulted_input:
            frontier_append(gate_index)
        return out

    # -- search guidance ------------------------------------------------------

    def _promising(self, state: _ImplyState, fault: Fault) -> bool:
        """Whether the current assignment can still be extended to a test."""
        site = self._site_value(state.values, fault)
        if site in (ZERO, ONE):
            return False  # fault can no longer be activated
        if site == X:
            return True  # activation still pending
        if not state.frontier:
            return False
        return self._x_path_exists(state)

    def _site_value(self, values: List[int], fault: Fault) -> int:
        if fault.is_branch:
            stem = values[fault.net]
            if good_value(stem) is None:
                return X
            return _inject(stem, fault.stuck_at)
        return values[fault.net]

    def _x_path_exists(self, state: _ImplyState) -> bool:
        """Some D-frontier output reaches a PO through X-valued nets."""
        circuit = self.circuit
        values = state.values
        seen = set()
        gate_out = circuit.gate_out
        stack = [gate_out[g] for g in state.frontier]
        while stack:
            net_id = stack.pop()
            if net_id in seen:
                continue
            seen.add(net_id)
            if self._is_output[net_id]:
                return True
            for gate_index in circuit.fanout[net_id]:
                out = gate_out[gate_index]
                if values[out] == X and out not in seen:
                    stack.append(out)
        return False

    def _objective(self, state: _ImplyState, fault: Fault) -> Optional[Tuple[int, int]]:
        site = self._site_value(state.values, fault)
        if site == X:
            return (fault.net, 1 - fault.stuck_at)  # activate the fault
        # Propagate: lowest-level D-frontier gate, one X input to the
        # non-controlling value.
        gate_index = min(state.frontier, key=lambda g: self._level[g])
        gate = self.circuit.gates[gate_index]
        control = gate.gate_type.controlling_value
        non_controlling = 1 - control if control is not None else 1
        for net_id in gate.inputs:
            if state.values[net_id] == X:
                return (net_id, non_controlling)
        return None  # no X input left: implication will resolve or conflict

    def _backtrace(
        self, objective: Tuple[int, int], values: List[int]
    ) -> Tuple[Optional[int], int]:
        """Map an objective to an unassigned input assignment."""
        circuit = self.circuit
        net_id, value = objective
        guard = 0
        while net_id not in self._input_set:
            guard += 1
            if guard > circuit.net_count:
                return None, 0  # defensive: malformed structure
            gate = circuit.gates[circuit.driver_gate[net_id]]
            value = value ^ gate.gate_type.inverting
            chosen = None
            for candidate in gate.inputs:
                if values[candidate] == X:
                    chosen = candidate
                    break
            if chosen is None:
                return None, 0
            net_id = chosen
            if gate.gate_type in (GateType.XOR, GateType.XNOR):
                # Parity gates: aim for the target parity assuming other
                # X inputs settle to 0.
                known = 0
                for candidate in gate.inputs:
                    if candidate != chosen and values[candidate] == ONE:
                        known ^= 1
                value = value ^ known
        if values[net_id] != X:
            return None, 0
        return net_id, value


def _inject(value: int, stuck_at: int) -> int:
    """Five-valued result of forcing the faulty machine to ``stuck_at``."""
    return compose(good_value(value), stuck_at)
