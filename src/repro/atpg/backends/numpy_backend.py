"""The ``numpy`` kernel backend: vectorized array kernels over wide words.

Pattern blocks grow from one 64-bit word to ``lanes_for`` words (N x 64
packed patterns), and the per-fault scalar algebra of the fanout-free-
region fast path (:meth:`FaultSimulator._ffr_detect_masks`) is replaced
by whole-array operations over ``(faults, words)`` uint64 matrices:

* **excitation** is one gather per polarity from the good rails,
* **branch side-sensitization** reads a compile-time per-pin sibling
  table (class codes: AND-like pins mask with sibling ones-rails,
  OR-like with zeros-rails, BUF/NOT/XOR pins pass),
* **chain sensitization** is computed for *every* net at once by
  walking chain-depth buckets (``depth[n] = depth[parent] + 1``,
  resolved structurally at compile time),
* **root observability** needs one scalar stem chase per *live* region
  root — and only one, not two: seeding the chase with the
  complemented root rails (the "flip chase") yields exactly
  ``obs0 | obs1``, and for stem-at-root faults ``flip & excitation``
  is exactly the single-polarity chase the pure path runs.  Per-bit
  independence of the dual-rail ops makes both identities exact, and
  the differential backend suite pins them against the pure path.

The logic simulator is also lowered to a level-ordered dispatch plan
(:meth:`NumpyBackend.lane_simulate`): gates grouped by (level, opcode,
arity) evaluate as one fancy-indexed array op per input pin.  The
production pipeline keeps Python-int rails canonical (the event kernel
and stem chases run on them, and bigint gate sweeps are already
word-width-free), so the lane simulator serves array-native consumers
and the differential tests rather than the default good-machine path.

Everything here is bit-identical to the pure backend by construction;
only the work changes.  This module imports :mod:`numpy` at module
level — the registry only loads it when NumPy is importable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..compiled import (
    OP_AND,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    CompiledCircuit,
)
from ..faultsim import SIM_STATS

_U64 = np.uint64
_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Pattern-block width (in 64-bit words) by circuit size.  Tiny
#: circuits (per-cone ATPG in the population studies) keep single-word
#: blocks: their random phases stop after a batch or two, so wider
#: draws would waste RNG work the pure path never spends.
WIDE_LANES = 8
MID_LANES = 4
WIDE_NET_THRESHOLD = 384
MID_NET_THRESHOLD = 192

#: Below this many faults the fixed cost of rail conversion and array
#: setup exceeds the scalar loop it replaces; the fault simulator's own
#: pure FFR path handles the call (bit-identical either way).
FFR_MIN_FAULTS = 16

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


def _int_to_words(value: int, words: int) -> np.ndarray:
    return np.frombuffer(value.to_bytes(words * 8, "little"), dtype="<u8")


class _CircuitPlan:
    """Compile-time array tables for one circuit (cached on it).

    Built lazily on first use and shared by every simulator holding the
    circuit; shipping a planned circuit to a worker process pickles the
    tables along (they are pure derived state).
    """

    def __init__(self, circuit: CompiledCircuit):
        gates = circuit.gates
        net_count = circuit.net_count

        # -- level-dispatch simulation plan -------------------------
        # Gates grouped by (level, opcode, arity); levels ascend, so a
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

        # -- fanout-free-region tables ------------------------------
        ffr_root, ffr_load = circuit.ffr_view()
        self.net_count = net_count
        self.root = np.array(ffr_root, dtype=np.int64)
        self.reaches = np.array(circuit.reaches_output, dtype=bool)
        self.gate_out = np.array(circuit.gate_out, dtype=np.int64)
        self.gate_in_start = np.array(circuit.gate_in_start, dtype=np.int64)

        # Per-pin sensitization metadata over the CSR pin rows:
        # class code (0 pass, 1 AND-like, 2 OR-like) and the sibling
        # net ids of the same gate, padded to max arity with -1.
        gate_in_ids = circuit.gate_in_ids
        total_pins = len(gate_in_ids)
        max_sibs = max((len(g.inputs) for g in gates), default=1) - 1
        max_sibs = max(max_sibs, 1)
        pin_class = np.zeros(total_pins, dtype=np.int64)
        pin_sibs = np.full((total_pins, max_sibs), -1, dtype=np.int64)
        for gate in gates:
            op = circuit.gate_op[gate.index]
            if OP_AND <= op <= OP_NAND:
                code = 1
            elif OP_OR <= op <= OP_NOR:
                code = 2
            else:
                code = 0
            start = circuit.gate_in_start[gate.index]
            ins = gate.inputs
            for pin in range(len(ins)):
                row = start + pin
                pin_class[row] = code
                k = 0
                for other in range(len(ins)):
                    if other != pin:
                        pin_sibs[row, k] = ins[other]
                        k += 1
        self.pin_class = pin_class
        self.pin_sibs = pin_sibs

        # Chain tables: every non-root net has exactly one load pin;
        # depth counts gates to its region root.  Net ids are
        # topological (parents have higher ids), so one descending
        # pass resolves every depth.
        parent = np.full(net_count, -1, dtype=np.int64)
        pin_row = np.full(net_count, -1, dtype=np.int64)
        depth = np.zeros(net_count, dtype=np.int64)
        gate_in_start_list = circuit.gate_in_start
        for net_id in range(net_count - 1, -1, -1):
            load = ffr_load[net_id]
            if load < 0:
                continue
            out_net = circuit.gate_out[load]
            parent[net_id] = out_net
            start = gate_in_start_list[load]
            end = gate_in_start_list[load + 1]
            for row in range(start, end):
                if gate_in_ids[row] == net_id:
                    pin_row[net_id] = row
                    break
            depth[net_id] = depth[out_net] + 1
        self.parent_net = parent
        self.net_pin_row = pin_row
        max_depth = int(depth.max()) if net_count else 0
        self.depth_buckets = [
            np.nonzero(depth == d)[0] for d in range(1, max_depth + 1)
        ]
        self.depth0 = np.nonzero(depth == 0)[0]

    # -- per-batch algebra ----------------------------------------------

    def pin_side_mask(
        self, rows: np.ndarray, g1: np.ndarray, g0: np.ndarray, words: int
    ) -> np.ndarray:
        """Side-sensitization masks for a batch of pin rows.

        AND-like pins need every sibling at 1, OR-like every sibling at
        0; pass-class pins (BUF/NOT/XOR/XNOR) always propagate a flip.
        """
        mask = np.full((len(rows), words), _FULL_WORD, dtype=_U64)
        cls = self.pin_class[rows]
        sibs = self.pin_sibs[rows]
        for column in range(sibs.shape[1]):
            sib = sibs[:, column]
            sel = (cls == 1) & (sib >= 0)
            if sel.any():
                mask[sel] &= g1[sib[sel]]
            sel = (cls == 2) & (sib >= 0)
            if sel.any():
                mask[sel] &= g0[sib[sel]]
        return mask

    def sens_all(self, g1: np.ndarray, g0: np.ndarray, words: int) -> np.ndarray:
        """Chain sensitization of every net to its region root.

        Region roots are trivially sensitized; each deeper net ANDs its
        parent's value with its own pin's side mask.  Buckets by chain
        depth keep every step a pure array op.
        """
        sens = np.empty((self.net_count, words), dtype=_U64)
        sens[self.depth0] = _FULL_WORD
        for bucket in self.depth_buckets:
            rows = self.net_pin_row[bucket]
            mask = self.pin_side_mask(rows, g1, g0, words)
            sens[bucket] = sens[self.parent_net[bucket]] & mask
        return sens


def _plan_for(circuit: CompiledCircuit) -> _CircuitPlan:
    plan = getattr(circuit, "_np_plan", None)
    if plan is None:
        plan = _CircuitPlan(circuit)
        circuit._np_plan = plan
    return plan


class NumpyBackend:
    """Strategy object for the vectorized kernels (see module docs).

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

    # -- vectorized fanout-free-region detect masks ---------------------

    def ffr_detect_masks(
        self,
        simulator,
        g_ones: List[int],
        g_zeros: List[int],
        full: int,
        pattern_count: int,
        faults: Iterable,
    ) -> Optional[List[int]]:
        """Array-form of ``FaultSimulator._ffr_detect_masks``.

        Returns ``None`` for fault lists too small to amortize the
        conversion — the caller's scalar path takes over, bit-identical
        either way.
        """
        fault_list = faults if isinstance(faults, list) else list(faults)
        count = len(fault_list)
        if count < FFR_MIN_FAULTS:
            return None
        circuit = simulator.circuit
        plan = _plan_for(circuit)
        words = (pattern_count + 63) // 64
        g1 = rails_to_words(g_ones, words)
        g0 = rails_to_words(g_zeros, words)

        net = np.fromiter((f.net for f in fault_list), dtype=np.int64, count=count)
        sa = np.fromiter(
            (f.stuck_at for f in fault_list), dtype=np.int64, count=count
        )
        gate_index = np.fromiter(
            (-1 if f.gate_index is None else f.gate_index for f in fault_list),
            dtype=np.int64,
            count=count,
        )
        pin = np.fromiter(
            (0 if f.pin is None else f.pin for f in fault_list),
            dtype=np.int64,
            count=count,
        )

        # Excitation: patterns whose good value differs from the stuck
        # value (X-free batches make the complement rail exact).
        candidate = np.where((sa == 0)[:, None], g1[net], g0[net])
        start = net.copy()
        branch = gate_index >= 0
        if branch.any():
            rows = plan.gate_in_start[gate_index[branch]] + pin[branch]
            candidate[branch] &= plan.pin_side_mask(rows, g1, g0, words)
            start[branch] = plan.gate_out[gate_index[branch]]
        candidate &= plan.sens_all(g1, g0, words)[start]
        candidate[~plan.reaches[net]] = 0

        live = candidate.any(axis=1)
        roots = plan.root[start]
        if live.any():
            # One scalar flip chase per live region root: seeding the
            # stem sweep with the complemented root rails computes
            # obs0 | obs1 in a single pass (per-bit independence makes
            # the union exact; stem-at-root faults recover their
            # single-polarity chase through the excitation factor).
            observability = np.zeros((plan.net_count, words), dtype=_U64)
            chase_flip = simulator._chase_flip
            for root in np.unique(roots[live]):
                root_id = int(root)
                flip = chase_flip(g_ones, g_zeros, full, root_id)
                if flip:
                    observability[root_id] = _int_to_words(flip, words)
            candidate &= observability[roots]

        SIM_STATS["detect_calls"] += count
        SIM_STATS["fault_pattern_evals"] += count * pattern_count
        word_bytes = words * 8
        buf = candidate.tobytes()
        nonzero = candidate.any(axis=1)
        from_bytes = int.from_bytes
        return [
            from_bytes(buf[i * word_bytes:(i + 1) * word_bytes], "little")
            if nonzero[i]
            else 0
            for i in range(count)
        ]

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
