"""Event-driven, bit-parallel stuck-at fault simulation.

Parallel-pattern single-fault propagation: the good machine is
simulated once per pattern batch (arbitrarily wide, thanks to Python
integers), then each fault is injected and its effect is chased with a
*levelized event worklist* — only gates whose faulty inputs actually
changed are re-evaluated, instead of rescanning the fault's whole
static fanout cone.  The kernel stops early when

- the event frontier dies (every downstream gate absorbed the fault
  effect),
- the remaining events sit on nets that cannot reach any
  (pseudo-)primary output (such gates are never even scheduled, via
  the circuit's ``reaches_output`` flags), or
- every pattern in the batch already detects the fault
  (``detected == full``).

Fault dropping removes detected faults from consideration as soon as
any pattern in the batch catches them.  All detect masks are
bit-identical to the full-cone reference rescan
(``tests/test_faultsim_kernel.py`` enforces this differentially).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..observability import register_counter
from ..runtime.abort import get_abort
from .compiled import OP_AND, OP_NAND, OP_NOR, OP_NOT, OP_XNOR, CompiledCircuit
from .faults import Fault
from .logicsim import (
    Rail,
    RailBatch,
    eval_rail_op,
    pack_patterns_flat,
    simulate_flat,
)

# Running totals over every FaultSimulator in the process — the
# benchmarks read these to attribute speedups to the kernel
# (faults-simulated-per-second) rather than to pattern-count drift.
SIM_STATS = {
    "detect_calls": 0,
    "fault_pattern_evals": 0,
    "gate_evals": 0,
    "blocks_evaluated": 0,
}


def reset_sim_stats() -> None:
    """Zero the kernel counters (benchmark bookkeeping)."""
    for key in SIM_STATS:
        SIM_STATS[key] = 0


def sim_stats() -> Dict[str, int]:
    """A snapshot of the kernel counters."""
    return dict(SIM_STATS)


# Tracer metric names for the kernel counters above.  The inner kernel
# never calls the tracer (per-event overhead would be measurable);
# instead callers snapshot SIM_STATS around a span and publish the
# delta once via :func:`publish_kernel_stats`.
KERNEL_METRICS = {
    "detect_calls": register_counter(
        "faultsim.detect_calls", "fault-simulation kernel invocations"
    ),
    "fault_pattern_evals": register_counter(
        "faultsim.fault_pattern_evals", "fault x pattern pairs simulated"
    ),
    "gate_evals": register_counter(
        "faultsim.gate_evals", "gate re-evaluations in the event kernel"
    ),
    "blocks_evaluated": register_counter(
        "kernel.blocks_evaluated",
        "packed pattern blocks simulated through the good machine",
    ),
}

def publish_kernel_stats(tracer, baseline: Dict[str, int]) -> None:
    """Count the SIM_STATS growth since ``baseline`` into ``tracer``."""
    for key, metric in KERNEL_METRICS.items():
        delta = SIM_STATS[key] - baseline.get(key, 0)
        if delta:
            tracer.count(metric, delta)


GoodValues = Union[RailBatch, List[Rail]]


class FaultSimulator:
    """Reusable fault-simulation context for one compiled circuit.

    Cone and reachability precomputation lives on the
    :class:`CompiledCircuit` (computed once per circuit), so every
    simulator instance over one circuit shares it.  The per-instance
    state is only the epoch-stamped scratch arrays of the event kernel.
    """

    def __init__(self, circuit: CompiledCircuit):
        self.circuit = circuit
        net_count = circuit.net_count
        # Epoch-stamped scratch: a net/gate is "touched this call" iff
        # its stamp equals the current epoch, so no per-call clearing.
        self._f_ones = [0] * net_count
        self._f_zeros = [0] * net_count
        self._net_stamp = [0] * net_count
        self._gate_stamp = [0] * len(circuit.gates)
        self._buckets: List[List[int]] = [[] for _ in range(circuit.max_level + 1)]
        self._epoch = 0
        # Fanout-free-region scratch for fully specified batches:
        # per-net path-sensitization memo and per-root flip-observability
        # memo, each stamped per batch.
        self._sens_val = [0] * net_count
        self._sens_stamp = [0] * net_count
        self._flip_val = [0] * net_count
        self._flip_stamp = [0] * net_count
        self._ffr_epoch = 0

    def good_values(
        self, patterns: Sequence[Dict[int, Optional[int]]]
    ) -> Tuple[RailBatch, int]:
        """Simulate the fault-free machine over a pattern batch.

        Once per batch (the granularity is coarse enough to be free),
        the ambient abort token gets a cooperative deadline check — this
        is the kernel's only concession to the runtime layer above it.
        """
        ones, zeros = pack_patterns_flat(self.circuit, patterns)
        return self.good_values_rails(ones, zeros, len(patterns))

    def good_values_rails(
        self, ones: List[int], zeros: List[int], count: int
    ) -> Tuple[RailBatch, int]:
        """Good-machine simulation from already-packed input rails.

        This is the fast path for callers that draw their batches
        directly in packed form (the random phase) or pack rows (verify)
        — no per-pattern dicts, no repack.  The gate sweep runs in place
        on ``ones`` and ``zeros``, which become the returned batch.
        """
        get_abort().check()
        simulate_flat(self.circuit, ones, zeros, count)
        SIM_STATS["blocks_evaluated"] += 1
        return RailBatch(ones, zeros, count), count

    def detect_mask(
        self,
        good: GoodValues,
        pattern_count: int,
        fault: Fault,
    ) -> int:
        """Bitmask of batch patterns that detect ``fault``.

        A pattern detects the fault when some (pseudo-)primary output
        has a defined good value and the opposite defined faulty value.
        """
        return self._propagate(good, pattern_count, fault, None)

    def faulty_output_rails(
        self,
        good: GoodValues,
        pattern_count: int,
        fault: Fault,
    ) -> Dict[int, Rail]:
        """Faulty rails of every output net the fault effect reaches.

        Only outputs whose faulty rail differs from the good rail are
        returned.  Shares the event kernel with :meth:`detect_mask`
        (minus the ``detected == full`` early exit, since callers like
        diagnosis need every output).
        """
        touched: List[int] = []
        self._propagate(good, pattern_count, fault, touched)
        f_ones, f_zeros = self._f_ones, self._f_zeros
        return {net_id: (f_ones[net_id], f_zeros[net_id]) for net_id in touched}

    # -- the event-driven kernel ----------------------------------------

    def _propagate(
        self,
        good: GoodValues,
        pattern_count: int,
        fault: Fault,
        collect: Optional[List[int]],
    ) -> int:
        """Inject ``fault`` and chase its effect; returns the detect mask.

        With ``collect`` given, every faulty output net id is appended
        to it and the full-detection early exit is disabled.
        """
        circuit = self.circuit
        if type(good) is RailBatch:
            g_ones, g_zeros = good.ones, good.zeros
        else:  # legacy list-of-rails form
            g_ones = [rail[0] for rail in good]
            g_zeros = [rail[1] for rail in good]
        full = (1 << pattern_count) - 1
        SIM_STATS["detect_calls"] += 1
        SIM_STATS["fault_pattern_evals"] += pattern_count

        reaches = circuit.reaches_output
        self._epoch += 1
        stuck_ones, stuck_zeros = (full, 0) if fault.stuck_at else (0, full)

        # -- the faulty rails of the fault site -------------------------
        if fault.gate_index is not None:
            seed_gate = fault.gate_index
            op, seed_net, ins = circuit.gate_table[seed_gate]
            if not reaches[seed_net]:
                return 0
            inputs = [(g_ones[i], g_zeros[i]) for i in ins]
            inputs[fault.pin] = (stuck_ones, stuck_zeros)
            o, z = eval_rail_op(op, inputs, full)
            if o == g_ones[seed_net] and z == g_zeros[seed_net]:
                return 0
            # Never re-evaluate the faulty gate.
            self._gate_stamp[seed_gate] = self._epoch
        else:
            seed_net = fault.net
            if not reaches[seed_net]:
                return 0
            if g_ones[seed_net] == stuck_ones and g_zeros[seed_net] == stuck_zeros:
                return 0
            o, z = stuck_ones, stuck_zeros
        return self._sweep(g_ones, g_zeros, full, seed_net, o, z, collect)

    def _sweep(
        self,
        g_ones: List[int],
        g_zeros: List[int],
        full: int,
        seed_net: int,
        o: int,
        z: int,
        collect: Optional[List[int]],
    ) -> int:
        """Chase faulty rails ``(o, z)`` on ``seed_net``; the detect mask.

        The levelized event sweep behind every single-site chase: a
        fault (:meth:`_propagate`) or a region-root flip
        (:meth:`_chase_flip`).  It runs under the caller's current
        epoch, so gates the caller stamped (a branch fault's faulty
        gate) are never re-evaluated.  With ``collect`` given, every
        faulty output net id is appended to it and the full-detection
        early exit is disabled.  Gate evaluations land in
        ``SIM_STATS``; detect and pattern totals are the caller's.
        """
        circuit = self.circuit
        reaches = circuit.reaches_output
        is_out = circuit.is_output_flag
        gate_table = circuit.gate_table
        gate_out = circuit.gate_out
        gate_levels = circuit.gate_levels
        fan_start = circuit.fanout_start
        fan_gates = circuit.fanout_gates
        f_ones, f_zeros = self._f_ones, self._f_zeros
        net_stamp, gate_stamp = self._net_stamp, self._gate_stamp
        buckets = self._buckets
        epoch = self._epoch

        f_ones[seed_net] = o
        f_zeros[seed_net] = z
        net_stamp[seed_net] = epoch
        detected = 0
        if is_out[seed_net]:
            detected = (g_ones[seed_net] & z) | (g_zeros[seed_net] & o)
            if collect is not None:
                collect.append(seed_net)
            elif detected == full:
                return detected

        pending = 0
        level = circuit.max_level + 1
        top_level = 0
        for k in range(fan_start[seed_net], fan_start[seed_net + 1]):
            g = fan_gates[k]
            if gate_stamp[g] != epoch and reaches[gate_out[g]]:
                gate_stamp[g] = epoch
                lvl = gate_levels[g]
                buckets[lvl].append(g)
                pending += 1
                if lvl < level:
                    level = lvl
                if lvl > top_level:
                    top_level = lvl

        # -- levelized event sweep --------------------------------------
        # Events only travel to strictly higher levels, so each touched
        # gate is evaluated exactly once, with all its inputs final.
        gate_evals = 0
        while pending and level <= top_level:
            bucket = buckets[level]
            level += 1
            if not bucket:
                continue
            for gi in bucket:
                pending -= 1
                gate_evals += 1
                op, out_net, ins = gate_table[gi]
                if op >= OP_AND and op <= OP_NOR:
                    if op <= OP_NAND:  # AND / NAND
                        o, z = full, 0
                        for i in ins:
                            if net_stamp[i] == epoch:
                                o &= f_ones[i]
                                z |= f_zeros[i]
                            else:
                                o &= g_ones[i]
                                z |= g_zeros[i]
                        if op == OP_NAND:
                            o, z = z, o
                    else:  # OR / NOR
                        o, z = 0, full
                        for i in ins:
                            if net_stamp[i] == epoch:
                                o |= f_ones[i]
                                z &= f_zeros[i]
                            else:
                                o |= g_ones[i]
                                z &= g_zeros[i]
                        if op == OP_NOR:
                            o, z = z, o
                elif op <= OP_NOT:  # BUF / NOT
                    i = ins[0]
                    if net_stamp[i] == epoch:
                        o, z = f_ones[i], f_zeros[i]
                    else:
                        o, z = g_ones[i], g_zeros[i]
                    if op == OP_NOT:
                        o, z = z, o
                else:  # XOR / XNOR
                    it = iter(ins)
                    i = next(it)
                    if net_stamp[i] == epoch:
                        o, z = f_ones[i], f_zeros[i]
                    else:
                        o, z = g_ones[i], g_zeros[i]
                    for i in it:
                        if net_stamp[i] == epoch:
                            io, iz = f_ones[i], f_zeros[i]
                        else:
                            io, iz = g_ones[i], g_zeros[i]
                        o, z = (o & iz) | (z & io), (o & io) | (z & iz)
                    if op == OP_XNOR:
                        o, z = z, o
                if o == g_ones[out_net] and z == g_zeros[out_net]:
                    continue  # event absorbed — fanout stays good
                f_ones[out_net] = o
                f_zeros[out_net] = z
                net_stamp[out_net] = epoch
                if is_out[out_net]:
                    detected |= (g_ones[out_net] & z) | (g_zeros[out_net] & o)
                    if collect is not None:
                        collect.append(out_net)
                    elif detected == full:
                        # Drain the worklist so the scratch buckets are
                        # clean for the next call.
                        del bucket[:]
                        for l in range(level, top_level + 1):
                            if buckets[l]:
                                del buckets[l][:]
                        SIM_STATS["gate_evals"] += gate_evals
                        return detected
                for k in range(fan_start[out_net], fan_start[out_net + 1]):
                    g = fan_gates[k]
                    if gate_stamp[g] != epoch and reaches[gate_out[g]]:
                        gate_stamp[g] = epoch
                        lvl = gate_levels[g]
                        buckets[lvl].append(g)
                        pending += 1
                        if lvl > top_level:
                            top_level = lvl
            del bucket[:]
        SIM_STATS["gate_evals"] += gate_evals
        return detected

    def detect_masks(
        self,
        good: GoodValues,
        pattern_count: int,
        faults: Iterable[Fault],
    ) -> List[int]:
        """Detect masks for many faults over one batch, in fault order.

        Semantically ``[self.detect_mask(good, pattern_count, f) for f
        in faults]``, but with the kernel's per-call setup (rail/array
        bindings, full-mask computation, stats bookkeeping) hoisted out
        of the fault loop.  The event chase itself averages only a
        handful of gate evaluations per fault on realistic circuits, so
        that fixed setup dominates single-fault calls — the random and
        verification phases, which sweep thousands of faults per batch,
        go through here instead.
        """
        circuit = self.circuit
        if type(good) is RailBatch:
            g_ones, g_zeros = good.ones, good.zeros
        else:  # legacy list-of-rails form
            g_ones = [rail[0] for rail in good]
            g_zeros = [rail[1] for rail in good]
        full = (1 << pattern_count) - 1

        # Fully specified batches (every input defined in every pattern
        # implies — all gate functions preserve definedness — no X
        # anywhere) take the fanout-free-region fast path: per-fault
        # event chases collapse to local path-sensitization algebra
        # plus one memoized flip observability per region root.
        for i in circuit.input_ids:
            if (g_ones[i] | g_zeros[i]) != full:
                break
        else:
            return self._ffr_detect_masks(
                g_ones, g_zeros, full, pattern_count, faults
            )

        reaches = circuit.reaches_output
        is_out = circuit.is_output_flag
        gate_table = circuit.gate_table
        gate_out = circuit.gate_out
        gate_levels = circuit.gate_levels
        fan_start = circuit.fanout_start
        fan_gates = circuit.fanout_gates
        f_ones, f_zeros = self._f_ones, self._f_zeros
        net_stamp, gate_stamp = self._net_stamp, self._gate_stamp
        buckets = self._buckets
        epoch = self._epoch
        level_cap = circuit.max_level + 1

        masks: List[int] = []
        append_mask = masks.append
        fault_count = 0
        gate_evals = 0
        for fault in faults:
            fault_count += 1
            epoch += 1
            stuck_ones, stuck_zeros = (full, 0) if fault.stuck_at else (0, full)

            # -- seed the worklist with the fault site ------------------
            seed_gate = fault.gate_index
            if seed_gate is not None:
                op, seed_net, ins = gate_table[seed_gate]
                if not reaches[seed_net]:
                    append_mask(0)
                    continue
                # Inline eval_rail_op with the faulty pin overridden —
                # no per-call input-rail list materialization.
                pin = fault.pin
                if OP_AND <= op <= OP_NOR:
                    if op <= OP_NAND:  # AND / NAND
                        o, z = full, 0
                        for p, i in enumerate(ins):
                            if p == pin:
                                o &= stuck_ones
                                z |= stuck_zeros
                            else:
                                o &= g_ones[i]
                                z |= g_zeros[i]
                        if op == OP_NAND:
                            o, z = z, o
                    else:  # OR / NOR
                        o, z = 0, full
                        for p, i in enumerate(ins):
                            if p == pin:
                                o |= stuck_ones
                                z &= stuck_zeros
                            else:
                                o |= g_ones[i]
                                z &= g_zeros[i]
                        if op == OP_NOR:
                            o, z = z, o
                elif op <= OP_NOT:  # BUF / NOT (pin is always 0)
                    o, z = stuck_ones, stuck_zeros
                    if op == OP_NOT:
                        o, z = z, o
                else:  # XOR / XNOR
                    o = z = None
                    for p, i in enumerate(ins):
                        if p == pin:
                            io, iz = stuck_ones, stuck_zeros
                        else:
                            io, iz = g_ones[i], g_zeros[i]
                        if o is None:
                            o, z = io, iz
                        else:
                            o, z = (o & iz) | (z & io), (o & io) | (z & iz)
                    if op == OP_XNOR:
                        o, z = z, o
                if o == g_ones[seed_net] and z == g_zeros[seed_net]:
                    append_mask(0)
                    continue
                gate_stamp[seed_gate] = epoch
            else:
                seed_net = fault.net
                if not reaches[seed_net]:
                    append_mask(0)
                    continue
                if g_ones[seed_net] == stuck_ones and g_zeros[seed_net] == stuck_zeros:
                    append_mask(0)
                    continue
                o, z = stuck_ones, stuck_zeros
            f_ones[seed_net] = o
            f_zeros[seed_net] = z
            net_stamp[seed_net] = epoch
            detected = 0
            if is_out[seed_net]:
                detected = (g_ones[seed_net] & z) | (g_zeros[seed_net] & o)
                if detected == full:
                    append_mask(detected)
                    continue

            pending = 0
            level = level_cap
            top_level = 0
            for k in range(fan_start[seed_net], fan_start[seed_net + 1]):
                g = fan_gates[k]
                if gate_stamp[g] != epoch and reaches[gate_out[g]]:
                    gate_stamp[g] = epoch
                    lvl = gate_levels[g]
                    buckets[lvl].append(g)
                    pending += 1
                    if lvl < level:
                        level = lvl
                    if lvl > top_level:
                        top_level = lvl

            # -- levelized event sweep (see _propagate) -----------------
            while pending and level <= top_level:
                bucket = buckets[level]
                level += 1
                if not bucket:
                    continue
                for gi in bucket:
                    pending -= 1
                    gate_evals += 1
                    op, out_net, ins = gate_table[gi]
                    if op >= OP_AND and op <= OP_NOR:
                        if op <= OP_NAND:  # AND / NAND
                            o, z = full, 0
                            for i in ins:
                                if net_stamp[i] == epoch:
                                    o &= f_ones[i]
                                    z |= f_zeros[i]
                                else:
                                    o &= g_ones[i]
                                    z |= g_zeros[i]
                            if op == OP_NAND:
                                o, z = z, o
                        else:  # OR / NOR
                            o, z = 0, full
                            for i in ins:
                                if net_stamp[i] == epoch:
                                    o |= f_ones[i]
                                    z &= f_zeros[i]
                                else:
                                    o |= g_ones[i]
                                    z &= g_zeros[i]
                            if op == OP_NOR:
                                o, z = z, o
                    elif op <= OP_NOT:  # BUF / NOT
                        i = ins[0]
                        if net_stamp[i] == epoch:
                            o, z = f_ones[i], f_zeros[i]
                        else:
                            o, z = g_ones[i], g_zeros[i]
                        if op == OP_NOT:
                            o, z = z, o
                    else:  # XOR / XNOR
                        it = iter(ins)
                        i = next(it)
                        if net_stamp[i] == epoch:
                            o, z = f_ones[i], f_zeros[i]
                        else:
                            o, z = g_ones[i], g_zeros[i]
                        for i in it:
                            if net_stamp[i] == epoch:
                                io, iz = f_ones[i], f_zeros[i]
                            else:
                                io, iz = g_ones[i], g_zeros[i]
                            o, z = (o & iz) | (z & io), (o & io) | (z & iz)
                        if op == OP_XNOR:
                            o, z = z, o
                    if o == g_ones[out_net] and z == g_zeros[out_net]:
                        continue  # event absorbed — fanout stays good
                    f_ones[out_net] = o
                    f_zeros[out_net] = z
                    net_stamp[out_net] = epoch
                    if is_out[out_net]:
                        detected |= (g_ones[out_net] & z) | (g_zeros[out_net] & o)
                        if detected == full:
                            del bucket[:]
                            for l in range(level, top_level + 1):
                                if buckets[l]:
                                    del buckets[l][:]
                            pending = 0
                            break
                    for k in range(fan_start[out_net], fan_start[out_net + 1]):
                        g = fan_gates[k]
                        if gate_stamp[g] != epoch and reaches[gate_out[g]]:
                            gate_stamp[g] = epoch
                            lvl = gate_levels[g]
                            buckets[lvl].append(g)
                            pending += 1
                            if lvl > top_level:
                                top_level = lvl
                else:
                    del bucket[:]
            append_mask(detected)

        self._epoch = epoch
        SIM_STATS["detect_calls"] += fault_count
        SIM_STATS["fault_pattern_evals"] += fault_count * pattern_count
        SIM_STATS["gate_evals"] += gate_evals
        return masks

    # -- fanout-free-region fast path (fully specified batches) ----------

    def _ffr_detect_masks(
        self,
        g_ones: List[int],
        g_zeros: List[int],
        full: int,
        pattern_count: int,
        faults: Iterable[Fault],
    ) -> List[int]:
        """Detect masks over an X-free batch via region decomposition.

        With no X values, fault detection factors exactly:

        * inside a fanout-free region every net feeds one gate pin, so
          the effect travels a unique, reconvergence-free path — per
          pattern it reaches the region root iff the fault is excited
          (good value differs from the stuck value) and every gate on
          the path is side-sensitized (AND/NAND siblings all 1, OR/NOR
          siblings all 0; BUF/NOT/XOR/XNOR always pass a flip);
        * beyond the root, a pattern's response depends only on whether
          the root flipped: the root's *flip observability*
          (:meth:`_root_flip`), shared by every fault in the region and
          memoized per batch.  A stem fault at a root is the root
          flipped wherever it is excited.

        Detect masks are bit-identical to the event kernel (the
        differential kernel tests enforce it); only the work changes,
        from one chase per fault to one per live reconvergent root.
        """
        circuit = self.circuit
        ffr_root = circuit.ffr_view()[0]
        reaches = circuit.reaches_output
        gate_table = circuit.gate_table
        self._ffr_epoch += 1
        ep = self._ffr_epoch
        sens_val, sens_stamp = self._sens_val, self._sens_stamp
        flip_val, flip_stamp = self._flip_val, self._flip_stamp
        sens_chain = self._sens_chain
        root_flip = self._root_flip

        masks: List[int] = []
        append_mask = masks.append
        fault_count = 0
        for fault in faults:
            fault_count += 1
            net = fault.net
            if not reaches[net]:
                append_mask(0)
                continue
            # Excitation: patterns whose good value differs from the
            # stuck value (X-free, so the complement rail is exact).
            mask = g_ones[net] if fault.stuck_at == 0 else g_zeros[net]
            gate_index = fault.gate_index
            if gate_index is None:
                start = net
            else:
                # Branch fault: the flip is visible at the gate output
                # iff excited and this pin is side-sensitized (AND/NAND
                # siblings all 1, OR/NOR siblings all 0).
                op, start, ins = gate_table[gate_index]
                if OP_AND <= op <= OP_NOR:
                    side = g_ones if op <= OP_NAND else g_zeros
                    pin = fault.pin
                    for p, i in enumerate(ins):
                        if p != pin:
                            mask &= side[i]
            if not mask:
                append_mask(0)
                continue
            if sens_stamp[start] != ep:
                sens_chain(g_ones, g_zeros, full, start)
            mask &= sens_val[start]
            if not mask:
                append_mask(0)
                continue
            root = ffr_root[start]
            if flip_stamp[root] != ep:
                root_flip(g_ones, g_zeros, full, root)
            append_mask(mask & flip_val[root])

        SIM_STATS["detect_calls"] += fault_count
        SIM_STATS["fault_pattern_evals"] += fault_count * pattern_count
        return masks

    def _sens_chain(
        self, g_ones: List[int], g_zeros: List[int], full: int, start: int
    ) -> None:
        """Memoize side-sensitization from ``start`` to its region root.

        Walks the unmemoized chain suffix up to the first memoized net
        (or the root, trivially sensitized), then folds values back
        down in chain order: each net ANDs its load gate's output value
        with its pin's side-sensitization.
        """
        circuit = self.circuit
        ffr_load = circuit.ffr_view()[1]
        gate_table = circuit.gate_table
        gate_out = circuit.gate_out
        ep = self._ffr_epoch
        sens_val, sens_stamp = self._sens_val, self._sens_stamp
        chain: List[int] = []
        n = start
        while sens_stamp[n] != ep:
            gate_index = ffr_load[n]
            if gate_index < 0:
                sens_val[n] = full
                sens_stamp[n] = ep
                break
            chain.append(n)
            n = gate_out[gate_index]
        for n in reversed(chain):
            op, out_net, ins = gate_table[ffr_load[n]]
            acc = sens_val[out_net]
            if acc and OP_AND <= op <= OP_NOR:
                # Single-load nets appear on exactly one pin, so
                # exclusion by net id is exact.
                side = g_ones if op <= OP_NAND else g_zeros
                for i in ins:
                    if i != n:
                        acc &= side[i]
            sens_val[n] = acc
            sens_stamp[n] = ep

    def _root_flip(
        self, g_ones: List[int], g_zeros: List[int], full: int, root: int
    ) -> None:
        """Memoize ``flip(root)``: patterns where flipping it is observed.

        Stem-region analysis (critical path tracing, after Abramovici,
        Menon and Miller, DAC 1983) over an observable region root:

        * an output is observed in every pattern (``full``);
        * a reconvergent root (:meth:`CompiledCircuit.reconvergent_roots`)
          takes one event chase of its complemented rails
          (:meth:`_chase_flip`);
        * any other root ORs, over its load pins ``p`` on gates ``g``
          whose output reaches an output, ``side(p) & sens(out(g)) &
          flip(ffr_root[out(g)])``.  Its branches' cones are disjoint,
          so no gate sees two flipped inputs: each branch's flip
          reaches the outputs alone, through the unique chain to its
          own root, beyond which only that root differs.

        Children are evaluated on demand with an explicit stack (the
        root DAG's depth is unbounded), and only where the pin's
        ``side & sens`` term is nonzero.
        """
        circuit = self.circuit
        ffr_root = circuit.ffr_view()[0]
        reconvergent = circuit.reconvergent_roots()
        reaches = circuit.reaches_output
        is_out = circuit.is_output_flag
        gate_table = circuit.gate_table
        fan_start = circuit.fanout_start
        fan_gates = circuit.fanout_gates
        ep = self._ffr_epoch
        sens_val, sens_stamp = self._sens_val, self._sens_stamp
        flip_val, flip_stamp = self._flip_val, self._flip_stamp
        # Frames: (root, None) to expand, (root, (acc, deferred)) to
        # finish once the deferred (term, child) flips are memoized.
        stack: List[Tuple[int, Optional[Tuple[int, list]]]] = [(root, None)]
        while stack:
            r, state = stack.pop()
            if state is not None:
                acc, deferred = state
                for term, child in deferred:
                    acc |= term & flip_val[child]
            elif is_out[r]:
                acc = full
            elif reconvergent[r]:
                acc = self._chase_flip(g_ones, g_zeros, full, r)
            else:
                acc = 0
                deferred = []
                for k in range(fan_start[r], fan_start[r + 1]):
                    op, out, ins = gate_table[fan_gates[k]]
                    if not reaches[out]:
                        continue
                    term = full
                    if OP_AND <= op <= OP_NOR:
                        # A non-reconvergent root loads each observable
                        # gate on one pin, so exclusion by id is exact.
                        side = g_ones if op <= OP_NAND else g_zeros
                        for i in ins:
                            if i != r:
                                term &= side[i]
                        if not term:
                            continue
                    if sens_stamp[out] != ep:
                        self._sens_chain(g_ones, g_zeros, full, out)
                    term &= sens_val[out]
                    if not term:
                        continue
                    child = ffr_root[out]
                    if flip_stamp[child] == ep:
                        acc |= term & flip_val[child]
                        if acc == full:
                            break
                    else:
                        deferred.append((term, child))
                if deferred and acc != full:
                    stack.append((r, (acc, deferred)))
                    stack.extend((child, None) for _, child in deferred)
                    continue
            flip_val[r] = acc
            flip_stamp[r] = ep

    def _chase_flip(
        self, g_ones: List[int], g_zeros: List[int], full: int, net: int
    ) -> int:
        """One chase of the *complemented* root rails (X-free batches).

        Seeding the sweep with ``(g_zeros[net], g_ones[net])`` flips the
        root in every pattern at once.  Because every dual-rail gate op
        is bitwise, pattern bits evolve independently, so the detected
        mask is exactly the per-pattern flip observability — the union
        of the two constant-stuck chases — and ANDed with a stem
        fault's excitation it is exactly that fault's own chase.  Only
        reconvergent region roots need it (:meth:`_root_flip`).
        """
        self._epoch += 1
        return self._sweep(
            g_ones, g_zeros, full, net, g_zeros[net], g_ones[net], None
        )

    # -- batch conveniences ---------------------------------------------

    def drop_detected(
        self,
        patterns: Sequence[Dict[int, Optional[int]]],
        faults: List[Fault],
    ) -> Tuple[List[Fault], int]:
        """Partition faults into (remaining, detected-count) for a batch."""
        good, count = self.good_values(patterns)
        remaining = []
        dropped = 0
        masks = self.detect_masks(good, count, faults)
        for fault, mask in zip(faults, masks):
            if mask:
                dropped += 1
            else:
                remaining.append(fault)
        return remaining, dropped

    def useful_pattern_mask(
        self,
        patterns: Sequence[Dict[int, Optional[int]]],
        faults: List[Fault],
        batch_size: int = 64,
    ) -> int:
        """Bitmask of patterns that detect at least one listed fault.

        Long pattern lists are processed in words of ``batch_size``
        patterns; within a word, fault iteration stops as soon as every
        pattern is already known useful.
        """
        useful = 0
        for start in range(0, len(patterns), batch_size):
            block = patterns[start:start + batch_size]
            good, count = self.good_values(block)
            full = (1 << count) - 1
            word = 0
            for fault in faults:
                word |= self._propagate(good, count, fault, None)
                if word == full:
                    break
            useful |= word << start
        return useful


def fault_coverage(
    circuit: CompiledCircuit,
    patterns: Sequence[Dict[int, Optional[int]]],
    faults: List[Fault],
    batch_size: Optional[int] = None,
) -> float:
    """Fraction of ``faults`` detected by ``patterns``.

    ``batch_size`` defaults to the circuit's block width (64 patterns
    per lane); detection is a monotone OR over patterns, so the coverage
    is chunking-invariant.
    """
    if not faults:
        raise ValueError("empty fault list")
    if batch_size is None:
        batch_size = 64 * circuit.block_lanes
    simulator = FaultSimulator(circuit)
    remaining = list(faults)
    for start in range(0, len(patterns), batch_size):
        batch = patterns[start:start + batch_size]
        good, count = simulator.good_values(list(batch))
        masks = simulator.detect_masks(good, count, remaining)
        remaining = [f for f, m in zip(remaining, masks) if not m]
        if not remaining:
            break
    return 1.0 - len(remaining) / len(faults)
