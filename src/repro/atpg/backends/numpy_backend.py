"""The ``numpy`` kernel backend: wide pattern blocks.

The backend's production role is :meth:`NumpyBackend.lanes_for`: it
widens the engine's pattern blocks from one 64-bit word to up to
eight (N x 64 packed patterns) on larger circuits.  Fault simulation
itself — the event kernel and the fanout-free-region path with its
stem-region analysis — is the scalar Python-int code in
:mod:`repro.atpg.faultsim`, which handles any block width (bigint
rails are word-width-free).

:meth:`NumpyBackend.lane_simulate` lowers the logic simulator to a
level-ordered dispatch plan: gates grouped by (level, opcode, arity)
evaluate as one fancy-indexed array op per input pin over
``(nets, words)`` uint64 arrays, with :func:`rails_to_words` /
:func:`words_to_rails` converting to and from Python-int rails.  No
production path calls it; the differential tests pin it against
:func:`repro.atpg.logicsim.simulate_flat`.

This module imports :mod:`numpy` at module level — the registry only
loads it when NumPy is importable.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..compiled import OP_NAND, OP_NOR, OP_NOT, OP_XNOR, CompiledCircuit

#: Pattern-block width (in 64-bit words) by circuit size.  Tiny
#: circuits (per-cone ATPG in the population studies) keep single-word
#: blocks: their random phases stop after a batch or two, so wider
#: draws would waste RNG work the pure path never spends.
WIDE_LANES = 8
MID_LANES = 4
WIDE_NET_THRESHOLD = 384
MID_NET_THRESHOLD = 192

# -- packed-rail <-> array conversion helpers ----------------------------


def rails_to_words(rails: List[int], words: int) -> np.ndarray:
    """Pack per-net Python-int rails into an (nets, words) uint64 array.

    Bit ``k`` of pattern word ``w`` of net ``n`` lands in
    ``out[n, w] >> k & 1`` — little-endian word order, matching
    ``int.to_bytes(..., "little")``.
    """
    size = words * 8
    buf = b"".join(value.to_bytes(size, "little") for value in rails)
    return np.frombuffer(buf, dtype="<u8").reshape(len(rails), words)


def words_to_rails(array: np.ndarray) -> List[int]:
    """Inverse of :func:`rails_to_words` (one Python int per row)."""
    words = array.shape[1]
    size = words * 8
    buf = np.ascontiguousarray(array, dtype="<u8").tobytes()
    return [
        int.from_bytes(buf[row * size:(row + 1) * size], "little")
        for row in range(array.shape[0])
    ]


class _CircuitPlan:
    """Compile-time array tables for one circuit (cached on it).

    Built lazily on first use and shared by every simulator holding the
    circuit; shipping a planned circuit to a worker process pickles the
    tables along (they are pure derived state).
    """

    def __init__(self, circuit: CompiledCircuit):
        gates = circuit.gates
        # Level-dispatch simulation plan: gates grouped by (level, opcode, arity); levels ascend, so a
        # group's input gathers always read finished values.
        grouped: Dict[Tuple[int, int, int], List[int]] = {}
        for gate in gates:
            key = (gate.level, circuit.gate_op[gate.index], len(gate.inputs))
            grouped.setdefault(key, []).append(gate.index)
        self.sim_groups: List[Tuple[int, np.ndarray, Tuple[np.ndarray, ...]]] = []
        for (_, op, arity), members in sorted(grouped.items()):
            outs = np.array([circuit.gate_out[g] for g in members], dtype=np.int64)
            cols = tuple(
                np.array([gates[g].inputs[pin] for g in members], dtype=np.int64)
                for pin in range(arity)
            )
            self.sim_groups.append((op, outs, cols))


def _plan_for(circuit: CompiledCircuit) -> _CircuitPlan:
    plan = getattr(circuit, "_np_plan", None)
    if plan is None:
        plan = _CircuitPlan(circuit)
        circuit._np_plan = plan
    return plan


class NumpyBackend:
    """Strategy object for wide pattern blocks (see module docs).

    Stateless — all derived tables cache on the circuit — and shared
    process-wide; pickles by class reference like the pure backend.
    """

    name = "numpy"

    def lanes_for(self, circuit: CompiledCircuit) -> int:
        """Pattern-block width in 64-bit words, by circuit size."""
        if circuit.net_count >= WIDE_NET_THRESHOLD:
            return WIDE_LANES
        if circuit.net_count >= MID_NET_THRESHOLD:
            return MID_LANES
        return 1

    # -- level-dispatched logic simulation ------------------------------

    def lane_simulate(
        self, circuit: CompiledCircuit, ones: np.ndarray, zeros: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate every gate over (nets, words) dual-rail arrays.

        In-place over ``ones``/``zeros`` (input rows must be filled,
        all other rows are overwritten), mirroring
        :func:`repro.atpg.logicsim.simulate_flat` word for word — the
        differential backend tests pin the two against each other on
        every opcode, including X handling.
        """
        for op, outs, cols in _plan_for(circuit).sim_groups:
            if op <= OP_NOT:  # BUF / NOT
                o = ones[cols[0]]
                z = zeros[cols[0]]
            elif op <= OP_NOR:  # AND / NAND / OR / NOR
                o = ones[cols[0]]
                z = zeros[cols[0]]
                if op <= OP_NAND:
                    for col in cols[1:]:
                        o = o & ones[col]
                        z = z | zeros[col]
                else:
                    for col in cols[1:]:
                        o = o | ones[col]
                        z = z & zeros[col]
            else:  # XOR / XNOR
                o = ones[cols[0]]
                z = zeros[cols[0]]
                for col in cols[1:]:
                    io = ones[col]
                    iz = zeros[col]
                    o, z = (o & iz) | (z & io), (o & io) | (z & iz)
            if op in (OP_NOT, OP_NAND, OP_NOR, OP_XNOR):
                o, z = z, o
            ones[outs] = o
            zeros[outs] = z
        return ones, zeros
