"""Bit-parallel three-valued logic simulation.

Patterns are packed into arbitrary-width Python integers in *dual-rail*
form: each net carries a pair ``(ones, zeros)`` of bitmasks, where bit
``k`` of ``ones`` means pattern ``k`` drives the net to 1, bit ``k`` of
``zeros`` means 0, and neither means X.  One pass over the gate table
simulates every packed pattern simultaneously — the classic
parallel-pattern single-fault trick, here with unbounded word width
because Python integers are arbitrary precision.

The hot representation is *flat*: the ones and zeros rails live in two
parallel lists indexed by net id (:class:`RailBatch`), and gate
evaluation dispatches through an opcode-indexed table of evaluators
(:data:`OP_EVAL`) over those lists.  The tuple-of-rails view
(``List[Rail]``) and the :func:`_eval_rail` if-chain are kept as the
compatibility/reference form — the differential kernel tests check the
flat kernels against them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..circuit.gates import GateType
from .compiled import (
    OP_AND,
    OP_BUF,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OPCODES,
    CompiledCircuit,
)

Rail = Tuple[int, int]  # (ones mask, zeros mask)


class RailBatch:
    """Flat dual-rail net values for one packed pattern batch.

    ``ones[net_id]`` / ``zeros[net_id]`` are the per-net bitmasks over
    ``count`` packed patterns.  Indexing (``batch[net_id]``) returns the
    tuple-form :data:`Rail`, so code written against the list-of-rails
    view keeps working.
    """

    __slots__ = ("ones", "zeros", "count")

    def __init__(self, ones: List[int], zeros: List[int], count: int):
        self.ones = ones
        self.zeros = zeros
        self.count = count

    @property
    def full(self) -> int:
        return (1 << self.count) - 1

    def __getitem__(self, net_id: int) -> Rail:
        return (self.ones[net_id], self.zeros[net_id])

    def __len__(self) -> int:
        return len(self.ones)


def pack_patterns_flat(
    circuit: CompiledCircuit,
    patterns: Sequence[Dict[int, Optional[int]]],
) -> Tuple[List[int], List[int]]:
    """Pack per-pattern input assignments into flat ones/zeros lists.

    Each pattern maps input net ids to 0/1/None; missing entries are X.
    Non-input nets start all-X.
    """
    ones = [0] * circuit.net_count
    zeros = [0] * circuit.net_count
    for bit, pattern in enumerate(patterns):
        mask = 1 << bit
        for net_id, value in pattern.items():
            if value == 1:
                ones[net_id] |= mask
            elif value == 0:
                zeros[net_id] |= mask
    return ones, zeros


def pack_patterns(
    circuit: CompiledCircuit,
    patterns: Sequence[Dict[int, Optional[int]]],
) -> List[Rail]:
    """Tuple-of-rails view of :func:`pack_patterns_flat` (compatibility)."""
    ones, zeros = pack_patterns_flat(circuit, patterns)
    return list(zip(ones, zeros))


# -- opcode-dispatched gate evaluators over the flat rails ---------------
#
# Each evaluator reads its input rails out of the flat ones/zeros lists
# and returns the gate's output rail.  ``OP_EVAL[opcode]`` replaces the
# old per-gate ``_eval_rail`` if-chain in the simulation hot loop.


def _eval_buf(ones, zeros, ins, full):
    i = ins[0]
    return ones[i], zeros[i]


def _eval_not(ones, zeros, ins, full):
    i = ins[0]
    return zeros[i], ones[i]


def _eval_and(ones, zeros, ins, full):
    o, z = full, 0
    for i in ins:
        o &= ones[i]
        z |= zeros[i]
    return o, z


def _eval_nand(ones, zeros, ins, full):
    o, z = full, 0
    for i in ins:
        o &= ones[i]
        z |= zeros[i]
    return z, o


def _eval_or(ones, zeros, ins, full):
    o, z = 0, full
    for i in ins:
        o |= ones[i]
        z &= zeros[i]
    return o, z


def _eval_nor(ones, zeros, ins, full):
    o, z = 0, full
    for i in ins:
        o |= ones[i]
        z &= zeros[i]
    return z, o


def _eval_xor(ones, zeros, ins, full):
    # Defined only where every operand is defined.
    it = iter(ins)
    i = next(it)
    o, z = ones[i], zeros[i]
    for i in it:
        io, iz = ones[i], zeros[i]
        o, z = (o & iz) | (z & io), (o & io) | (z & iz)
    return o, z


def _eval_xnor(ones, zeros, ins, full):
    it = iter(ins)
    i = next(it)
    o, z = ones[i], zeros[i]
    for i in it:
        io, iz = ones[i], zeros[i]
        o, z = (o & iz) | (z & io), (o & io) | (z & iz)
    return z, o


OP_EVAL = (
    _eval_buf,
    _eval_not,
    _eval_and,
    _eval_nand,
    _eval_or,
    _eval_nor,
    _eval_xor,
    _eval_xnor,
)
assert OP_EVAL[OP_BUF] is _eval_buf and OP_EVAL[OP_XNOR] is _eval_xnor


def simulate_flat(
    circuit: CompiledCircuit,
    ones: List[int],
    zeros: List[int],
    pattern_count: int,
) -> Tuple[List[int], List[int]]:
    """Evaluate every gate over flat packed rails, in place.

    ``ones``/``zeros`` must cover the input nets (one entry per net
    id); values for all other nets are overwritten.  Returns the same
    two lists for convenience.

    The opcode dispatch is inlined (one branch tree per gate instead of
    an :data:`OP_EVAL` indirect call) — this sweep runs once per packed
    batch and per accumulated PODEM pattern, and the per-gate call and
    result-tuple overhead of the table dispatch is measurable there.
    :data:`OP_EVAL` remains the reference the kernel tests check
    against.
    """
    full = (1 << pattern_count) - 1
    for op, out, ins in circuit.gate_table:
        if OP_AND <= op <= OP_NOR:
            if op <= OP_NAND:  # AND / NAND
                o, z = full, 0
                for i in ins:
                    o &= ones[i]
                    z |= zeros[i]
                if op == OP_NAND:
                    o, z = z, o
            else:  # OR / NOR
                o, z = 0, full
                for i in ins:
                    o |= ones[i]
                    z &= zeros[i]
                if op == OP_NOR:
                    o, z = z, o
        elif op <= OP_NOT:  # BUF / NOT
            i = ins[0]
            o, z = ones[i], zeros[i]
            if op == OP_NOT:
                o, z = z, o
        else:  # XOR / XNOR
            it = iter(ins)
            i = next(it)
            o, z = ones[i], zeros[i]
            for i in it:
                io, iz = ones[i], zeros[i]
                o, z = (o & iz) | (z & io), (o & io) | (z & iz)
            if op == OP_XNOR:
                o, z = z, o
        ones[out] = o
        zeros[out] = z
    return ones, zeros


def append_pattern_sparse(
    circuit: CompiledCircuit,
    ones: List[int],
    zeros: List[int],
    assignments: Dict[int, Optional[int]],
    bit: int,
) -> None:
    """Simulate one partial pattern into bit ``bit`` of a batch, in place.

    Precondition: ``ones``/``zeros`` hold a simulated batch (every gate
    output already holds its gate's function of the inputs, as after
    :func:`simulate_flat`) and every net is X at bit ``bit`` and above
    — the pattern is the batch's next one.  Its care bits are set on
    the input rails, then the sweep runs forward at the batch's width
    from those inputs only, and a gate's fanout is scheduled only when
    the new bit of its output came out non-X.

    This equals simulating the whole batch again: re-evaluating a gate
    recomputes its other bits to the values they already hold (their
    inputs are unchanged), and in three-valued dual-rail logic a gate
    whose inputs are all X at bit ``bit`` outputs X there (every
    evaluator starts from the all-X identity and only accumulates input
    bits), so unvisited gates keep the X the precondition gave them.
    For PODEM's partial patterns — a few care bits driving a narrow
    cone — this touches a small fraction of the gate table.
    """
    mask = 1 << bit
    full = (mask << 1) - 1
    gate_table = circuit.gate_table
    gate_levels = circuit.gate_levels
    fanout_start = circuit.fanout_start
    fanout_gates = circuit.fanout_gates
    buckets: List[List[int]] = [[] for _ in range(circuit.max_level + 1)]
    scheduled = set()
    for net_id, value in assignments.items():
        if value == 1:
            ones[net_id] |= mask
        elif value == 0:
            zeros[net_id] |= mask
        else:
            continue
        for slot in range(fanout_start[net_id], fanout_start[net_id + 1]):
            gate = fanout_gates[slot]
            if gate not in scheduled:
                scheduled.add(gate)
                buckets[gate_levels[gate]].append(gate)
    # Levels ascend, and a gate's inputs all come from strictly lower
    # levels, so by the time a bucket runs its gates see final values.
    for bucket in buckets:
        for gate in bucket:
            op, out, ins = gate_table[gate]
            if OP_AND <= op <= OP_NOR:
                if op <= OP_NAND:  # AND / NAND
                    o, z = full, 0
                    for i in ins:
                        o &= ones[i]
                        z |= zeros[i]
                    if op == OP_NAND:
                        o, z = z, o
                else:  # OR / NOR
                    o, z = 0, full
                    for i in ins:
                        o |= ones[i]
                        z &= zeros[i]
                    if op == OP_NOR:
                        o, z = z, o
            elif op <= OP_NOT:  # BUF / NOT
                i = ins[0]
                o, z = ones[i], zeros[i]
                if op == OP_NOT:
                    o, z = z, o
            else:  # XOR / XNOR
                it = iter(ins)
                i = next(it)
                o, z = ones[i], zeros[i]
                for i in it:
                    io, iz = ones[i], zeros[i]
                    o, z = (o & iz) | (z & io), (o & io) | (z & iz)
                if op == OP_XNOR:
                    o, z = z, o
            # An X new bit leaves the output's rails exactly as they
            # were, so neither the write nor the fanout is needed.
            if (o | z) & mask:
                ones[out] = o
                zeros[out] = z
                for slot in range(fanout_start[out], fanout_start[out + 1]):
                    load = fanout_gates[slot]
                    if load not in scheduled:
                        scheduled.add(load)
                        buckets[gate_levels[load]].append(load)


def simulate(
    circuit: CompiledCircuit,
    rails: List[Rail],
    pattern_count: int,
) -> List[Rail]:
    """Tuple-of-rails view of :func:`simulate_flat` (compatibility).

    The input list is not modified.
    """
    ones = [rail[0] for rail in rails]
    zeros = [rail[1] for rail in rails]
    simulate_flat(circuit, ones, zeros, pattern_count)
    return list(zip(ones, zeros))


def eval_rail_op(opcode: int, inputs: List[Rail], full: int) -> Rail:
    """Evaluate one gate (by opcode) over tuple-form input rails.

    This is the reference evaluator: exhaustively equivalent to the
    flat :data:`OP_EVAL` table (the kernel tests enforce it), and used
    on cold paths that assemble ad-hoc input rails — e.g. injecting a
    stuck value at one gate pin.
    """
    if opcode == OP_BUF:
        return inputs[0]
    if opcode == OP_NOT:
        ones, zeros = inputs[0]
        return zeros, ones
    if opcode == OP_AND or opcode == OP_NAND:
        ones, zeros = full, 0
        for in_ones, in_zeros in inputs:
            ones &= in_ones
            zeros |= in_zeros
        if opcode == OP_NAND:
            ones, zeros = zeros, ones
        return ones, zeros
    if opcode == OP_OR or opcode == OP_NOR:
        ones, zeros = 0, full
        for in_ones, in_zeros in inputs:
            ones |= in_ones
            zeros &= in_zeros
        if opcode == OP_NOR:
            ones, zeros = zeros, ones
        return ones, zeros
    # XOR / XNOR: defined only where both operands are defined.
    ones, zeros = inputs[0]
    for in_ones, in_zeros in inputs[1:]:
        ones, zeros = (
            (ones & in_zeros) | (zeros & in_ones),
            (ones & in_ones) | (zeros & in_zeros),
        )
    if opcode == OP_XNOR:
        ones, zeros = zeros, ones
    return ones, zeros


def _eval_rail(gate_type: GateType, inputs: List[Rail], full: int) -> Rail:
    """GateType-keyed form of :func:`eval_rail_op` (compatibility)."""
    return eval_rail_op(OPCODES[gate_type], inputs, full)


def output_rails(
    circuit: CompiledCircuit, values: Union[List[Rail], RailBatch]
) -> List[Rail]:
    """Rails of the (pseudo-)primary outputs, in declaration order."""
    return [values[net_id] for net_id in circuit.output_ids]


def unpack_value(rail: Rail, bit: int) -> Optional[int]:
    """The three-valued value of one pattern on one rail."""
    mask = 1 << bit
    if rail[0] & mask:
        return 1
    if rail[1] & mask:
        return 0
    return None
