"""Random-pattern test generation phase.

Deterministic ATPG is expensive, so every practical flow (ATALANTA
included) first throws cheap random patterns at the fault list,
keeping the ones that detect something new and dropping the detected
faults.  The phase stops when a batch's yield falls below a threshold —
the remaining, random-pattern-resistant faults go to PODEM.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from ..observability import get_tracer, register_counter
from ..runtime.abort import get_abort
from .compiled import CompiledCircuit
from .faults import Fault
from .faultsim import FaultSimulator
from .patterns import TestPattern, random_pattern_rails, rows_from_rails

RANDOM_BATCHES = register_counter(
    "random_phase.batches", "random-pattern batches simulated"
)
RANDOM_PATTERNS_KEPT = register_counter(
    "random_phase.patterns_kept", "random patterns kept as first detectors"
)
RANDOM_FAULTS_DROPPED = register_counter(
    "random_phase.faults_dropped", "faults detected (dropped) by random patterns"
)


@dataclass
class RandomPhaseResult:
    patterns: List[TestPattern] = field(default_factory=list)
    remaining_faults: List[Fault] = field(default_factory=list)
    detected: int = 0
    batches: int = 0


def run_random_phase(
    circuit: CompiledCircuit,
    faults: List[Fault],
    seed: int = 0,
    batch_size: int = 64,
    max_batches: int = 32,
    min_yield: int = 1,
) -> RandomPhaseResult:
    """Generate random patterns until they stop paying for themselves.

    Within each batch, only patterns that are the *first* detector of at
    least one remaining fault are kept, so the kept set carries no
    obviously redundant members.
    """
    tracer = get_tracer()
    with tracer.span("random_phase"):
        result = _run_batches(
            circuit, faults, seed, batch_size, max_batches, min_yield
        )
        if tracer.enabled:
            tracer.count(RANDOM_BATCHES, result.batches)
            tracer.count(RANDOM_PATTERNS_KEPT, len(result.patterns))
            tracer.count(RANDOM_FAULTS_DROPPED, result.detected)
    return result


def _run_batches(
    circuit: CompiledCircuit,
    faults: List[Fault],
    seed: int,
    batch_size: int,
    max_batches: int,
    min_yield: int,
) -> RandomPhaseResult:
    simulator = FaultSimulator(circuit)
    rng = random.Random(seed)
    result = RandomPhaseResult(remaining_faults=list(faults))
    abort = get_abort()
    input_ids = circuit.input_ids
    # The backend's lane count widens each draw/simulate round-trip to
    # several 64-pattern batches at once; the per-batch bookkeeping below
    # then replays the wide detect masks chunk by chunk.  Dual-rail ops
    # are per-bit independent, so each 64-bit slice of a wide mask equals
    # the mask a narrow round would have computed — batches, kept
    # patterns, dropped faults, and the early-exit point are identical
    # for every lane count.
    lanes = circuit.block_lanes
    batch_full = (1 << batch_size) - 1
    while result.remaining_faults and result.batches < max_batches:
        abort.check()
        # The block is drawn directly in packed dual-rail form — same
        # RNG stream as chunk_count * batch_size random_pattern() calls
        # (the contract random_pattern_rails documents), with no
        # per-pattern dicts and no pack_patterns_flat repack.  Only the
        # kept first detectors are cut back out of the rails, as rows,
        # by one transposition per block.  When a chunk's yield stops
        # the phase early, the already-drawn later chunks are simply
        # discarded; the rng is local, so the over-draw leaks nowhere.
        chunk_count = min(lanes, max_batches - result.batches)
        count = batch_size * chunk_count
        ones, zeros = random_pattern_rails(input_ids, rng, count, circuit.net_count)
        good, count = simulator.good_values_rails(ones, zeros, count)
        masks = simulator.detect_masks(good, count, result.remaining_faults)
        pairs = list(zip(result.remaining_faults, masks))
        kept: List[int] = []
        stop = False
        for chunk in range(chunk_count):
            base = chunk * batch_size
            first_detector = [False] * batch_size
            survivors = []
            detected_here = 0
            for fault, mask in pairs:
                sub = (mask >> base) & batch_full
                if sub:
                    detected_here += 1
                    first_detector[(sub & -sub).bit_length() - 1] = True
                else:
                    survivors.append((fault, mask))
            result.batches += 1
            result.detected += detected_here
            pairs = survivors
            kept.extend(
                base + bit for bit, keep in enumerate(first_detector) if keep
            )
            if detected_here < min_yield:
                stop = True
                break
            if not pairs:
                break
        result.patterns.extend(rows_from_rails(input_ids, good.ones, count, kept))
        result.remaining_faults = [fault for fault, _ in pairs]
        if stop:
            break
    return result
