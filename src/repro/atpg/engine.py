"""The complete ATPG flow: random phase, PODEM, compaction, verification.

This is the reproduction's stand-in for ATALANTA: given a (full-scan)
netlist it produces a compacted, fully specified stuck-at test set and
reports the pattern count — the ``T`` that every TDV formula of the
paper consumes.  The flow is deterministic for a given seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from ..circuit.cones import Cone, extract_cones
from ..circuit.netlist import Netlist
from ..observability import get_tracer, register_counter
from ..runtime.abort import get_abort
from ..runtime.config import AtpgConfig
from .compaction import static_compact
from .compiled import CompiledCircuit
from .faults import Fault, collapse_faults
from .faultsim import FaultSimulator, publish_kernel_stats, sim_stats
from .logicsim import RailBatch, append_pattern_sparse
from .patterns import TestPattern, TestSet, pack_rows
from .podem import Podem, PodemOutcome
from .random_phase import run_random_phase

ATPG_RUNS = register_counter("atpg.runs", "generate_tests invocations")
ATPG_FAULTS_TOTAL = register_counter("atpg.faults.total", "collapsed faults targeted")
ATPG_FAULTS_DETECTED = register_counter("atpg.faults.detected", "faults detected")
ATPG_FAULTS_UNTESTABLE = register_counter(
    "atpg.faults.untestable", "faults proven untestable"
)
ATPG_FAULTS_ABORTED = register_counter(
    "atpg.faults.aborted", "faults aborted at the backtrack limit"
)
ATPG_PATTERNS_RANDOM = register_counter(
    "atpg.patterns.random", "patterns kept by the random phase"
)
ATPG_PATTERNS_DETERMINISTIC = register_counter(
    "atpg.patterns.deterministic", "deterministic patterns after compaction"
)
ATPG_PATTERNS_PRE_COMPACTION = register_counter(
    "atpg.patterns.pre_compaction", "deterministic patterns before compaction"
)
ATPG_PATTERNS_FINAL = register_counter(
    "atpg.patterns.final", "patterns kept after verify/prune (the T of the paper)"
)


@dataclass
class AtpgResult:
    """Everything the experiments need from one ATPG run."""

    circuit_name: str
    test_set: TestSet
    fault_count: int
    detected_count: int
    untestable: List[Fault] = field(default_factory=list)
    aborted: List[Fault] = field(default_factory=list)
    random_pattern_count: int = 0
    deterministic_pattern_count: int = 0
    pre_compaction_count: int = 0

    @property
    def pattern_count(self) -> int:
        """The ``T`` of the TDV formulas."""
        return len(self.test_set)

    @property
    def fault_coverage(self) -> float:
        return self.detected_count / self.fault_count if self.fault_count else 1.0

    @property
    def testable_coverage(self) -> float:
        """Coverage over faults not proven untestable."""
        testable = self.fault_count - len(self.untestable)
        return self.detected_count / testable if testable else 1.0


class _PatternBlock:
    """Recent patterns packed into one fault-dropping block.

    The deterministic phase used to fault-simulate every queued fault
    against each fresh PODEM pattern individually.  This block instead
    accumulates the good-machine rails of successive patterns in one
    packed batch: each pattern is simulated straight into its own bit
    column, in place, by a sparse sweep at block width from its care
    bits (:func:`~repro.atpg.logicsim.append_pattern_sparse`; bit
    slices are independent, so this equals simulating the patterns
    together).  Queued faults are then checked lazily: once when
    popped, and against the whole block when it fills and
    :meth:`flush` filters the queue in a single block-wide pass.  The
    surviving faults, their order, and every PODEM call are
    bit-identical to the one-pattern-at-a-time flow.
    """

    CAPACITY = 64

    __slots__ = ("_simulator", "_circuit", "capacity", "ones", "zeros", "count")

    def __init__(self, simulator: FaultSimulator):
        self._simulator = simulator
        self._circuit = simulator.circuit
        # Larger circuits widen the block to several 64-bit words.
        # The skip invariant — a fault is dropped iff some previously
        # generated pattern detects it — is capacity-independent
        # (``detects`` always checks everything since the last flush, and
        # flushed patterns already filtered the queue), so every PODEM
        # decision stays bit-identical at any width.
        self.capacity = self.CAPACITY * self._circuit.block_lanes
        self.ones: List[int] = []
        self.zeros: List[int] = []
        self.count = 0

    @property
    def full(self) -> bool:
        return self.count >= self.capacity

    def add(self, pattern: TestPattern) -> None:
        """Simulate one (partial) pattern into the block's next bit."""
        if self.count == 0:
            net_count = self._circuit.net_count
            self.ones = [0] * net_count
            self.zeros = [0] * net_count
        append_pattern_sparse(
            self._circuit, self.ones, self.zeros, pattern.assignments, self.count
        )
        self.count += 1

    def detects(self, fault: Fault) -> bool:
        """Whether any accumulated pattern provably detects the fault."""
        if self.count == 0:
            return False
        good = RailBatch(self.ones, self.zeros, self.count)
        return bool(self._simulator.detect_mask(good, self.count, fault))

    def flush(self, queue: Deque[Fault]) -> None:
        """Filter the whole queue against the block, then reset it."""
        if self.count == 0:
            return
        good = RailBatch(self.ones, self.zeros, self.count)
        masks = self._simulator.detect_masks(good, self.count, queue)
        survivors = [
            fault for fault, mask in zip(queue, masks) if not mask
        ]
        queue.clear()
        queue.extend(survivors)
        self.ones = []
        self.zeros = []
        self.count = 0


def generate_tests(
    netlist: Netlist,
    seed: int = 0,
    backtrack_limit: int = 100,
    random_batches: int = 32,
    compact: bool = True,
    dynamic_compaction: int = 0,
    config: Optional[AtpgConfig] = None,
    circuit: Optional[CompiledCircuit] = None,
) -> AtpgResult:
    """Run the full ATPG flow on a netlist's full-scan view.

    Phases: fault collapsing, random-pattern bootstrap with fault
    dropping, PODEM for the resistant faults (with lazy fault dropping
    against a packed block of recent patterns), greedy static compaction
    of the partial patterns, deterministic X-fill, and a final
    verification fault simulation that also prunes patterns detecting
    nothing new.

    ``dynamic_compaction`` > 0 enables secondary targeting: after each
    PODEM success, up to that many queued faults are attempted with the
    fresh pattern's assignments frozen, extending the pattern instead
    of starting new ones — fewer, denser patterns at some CPU cost.

    ``config`` is the bundled form of the engine knobs
    (:class:`repro.runtime.config.AtpgConfig`); when given it overrides
    the individual keyword arguments, so a run's identity — what the
    runtime cache keys results on — lives in one value.

    ``circuit`` optionally supplies an already-compiled view of
    ``netlist``, e.g. one whose pattern-block width a caller has set.
    It is pure shared state, never part of a run's identity, and does
    not enter the :meth:`~repro.runtime.config.AtpgConfig.fingerprint`.
    """
    if config is not None:
        seed = config.seed
        backtrack_limit = config.backtrack_limit
        random_batches = config.random_batches
        compact = config.compact
        dynamic_compaction = config.dynamic_compaction

    tracer = get_tracer()
    kernel_baseline = sim_stats() if tracer.enabled else None
    with tracer.span("atpg", circuit=netlist.name, seed=seed):
        with tracer.span("compile"):
            if circuit is None:
                circuit = CompiledCircuit(netlist)
            all_faults = collapse_faults(circuit)

        simulator = FaultSimulator(circuit)
        random_result = run_random_phase(
            circuit, all_faults, seed=seed, max_batches=random_batches
        )
        remaining = random_result.remaining_faults

        deterministic: List[TestPattern] = []
        untestable: List[Fault] = []
        aborted: List[Fault] = []
        abort = get_abort()
        with tracer.span("podem"):
            podem = Podem(circuit, backtrack_limit=backtrack_limit)
            queue: Deque[Fault] = deque(remaining)
            block = _PatternBlock(simulator)
            while queue:
                abort.check()
                fault = queue.popleft()
                # Lazy fault dropping: a fault detected by any pattern
                # since the last flush is discarded here, exactly where
                # the eager per-pattern filter would already have
                # removed it.
                if block.detects(fault):
                    continue
                result = podem.generate(fault)
                if result.outcome is PodemOutcome.UNTESTABLE:
                    untestable.append(fault)
                    continue
                if result.outcome is PodemOutcome.ABORTED:
                    aborted.append(fault)
                    continue
                pattern = result.pattern
                if dynamic_compaction > 0:
                    pattern = _extend_with_secondary_targets(
                        podem,
                        pattern,
                        _pop_secondary_candidates(queue, block, dynamic_compaction),
                    )
                deterministic.append(pattern)
                block.add(pattern)
                if block.full:
                    block.flush(queue)

        pre_compaction = len(deterministic)
        with tracer.span("compact"):
            if compact and deterministic:
                deterministic = static_compact(deterministic)

        combined = TestSet(
            circuit_name=netlist.name,
            patterns=random_result.patterns + deterministic,
        )
        with tracer.span("fill"):
            filled = combined.filled(circuit, seed=seed)

        with tracer.span("verify"):
            kept, detected = _verify_and_prune(circuit, filled, all_faults, simulator)

        if tracer.enabled:
            tracer.count(ATPG_RUNS)
            tracer.count(ATPG_FAULTS_TOTAL, len(all_faults))
            tracer.count(ATPG_FAULTS_DETECTED, detected)
            tracer.count(ATPG_FAULTS_UNTESTABLE, len(untestable))
            tracer.count(ATPG_FAULTS_ABORTED, len(aborted))
            tracer.count(ATPG_PATTERNS_RANDOM, len(random_result.patterns))
            tracer.count(ATPG_PATTERNS_DETERMINISTIC, len(deterministic))
            tracer.count(ATPG_PATTERNS_PRE_COMPACTION, pre_compaction)
            tracer.count(ATPG_PATTERNS_FINAL, len(kept))
            publish_kernel_stats(tracer, kernel_baseline)

    return AtpgResult(
        circuit_name=netlist.name,
        test_set=kept,
        fault_count=len(all_faults),
        detected_count=detected,
        untestable=untestable,
        aborted=aborted,
        random_pattern_count=len(random_result.patterns),
        deterministic_pattern_count=len(deterministic),
        pre_compaction_count=pre_compaction,
    )


def _pop_secondary_candidates(
    queue: Deque[Fault],
    block: _PatternBlock,
    limit: int,
) -> List[Fault]:
    """The first ``limit`` still-undetected queued faults, in order.

    Skipped (already-detected) faults are discarded for good; the
    selected candidates are pushed back so they keep their place in the
    queue — matching the eager flow, where dynamic compaction sliced
    the head of an always-filtered queue without consuming it.
    """
    candidates: List[Fault] = []
    while queue and len(candidates) < limit:
        fault = queue.popleft()
        if block.detects(fault):
            continue
        candidates.append(fault)
    queue.extendleft(reversed(candidates))
    return candidates


def _extend_with_secondary_targets(
    podem: Podem,
    pattern: TestPattern,
    candidates: List[Fault],
) -> TestPattern:
    """Dynamic compaction: fold extra fault detections into one pattern.

    Each candidate is attempted with the accumulated assignments frozen;
    successes replace the pattern with the extended one.  Failures cost
    one bounded PODEM run and change nothing — the candidate stays in
    the queue for its own primary attempt later.
    """
    current = pattern
    for extra in candidates:
        result = podem.generate(extra, frozen=current.assignments)
        if result.outcome is PodemOutcome.DETECTED:
            current = result.pattern
    return current


def _verify_and_prune(
    circuit: CompiledCircuit,
    test_set: TestSet,
    faults: List[Fault],
    simulator: FaultSimulator,
) -> tuple:
    """Final fault simulation; drops patterns that add no coverage.

    The pass runs in *reverse* pattern order: later patterns are the
    compacted deterministic ones, which detect many faults each, so
    crediting them first sheds most of the sparse random-phase keepers —
    the classic reverse-order fault-simulation pruning, typically worth
    a multi-x pattern-count reduction over a forward pass.  The kept
    patterns come back in their original relative order.
    """
    remaining = list(faults)
    detected = 0
    # Wide blocks sweep several 64-pattern words per detect call.
    # Detection is monotone and the credited pattern is the *first*
    # detector in reverse order, which is the same pattern whatever the
    # chunking — kept sets and detect counts are width-invariant.
    batch_size = 64 * circuit.block_lanes
    patterns = test_set.patterns
    keep_flags = [False] * len(patterns)
    reversed_index = list(range(len(patterns) - 1, -1, -1))
    abort = get_abort()
    for start in range(0, len(patterns), batch_size):
        abort.check()
        chunk = reversed_index[start:start + batch_size]
        # Filled patterns are rows over the circuit's inputs.
        ones, zeros = pack_rows(circuit, [patterns[i].row for i in chunk])
        good, count = simulator.good_values_rails(ones, zeros, len(chunk))
        survivors = []
        masks = simulator.detect_masks(good, count, remaining)
        for fault, mask in zip(remaining, masks):
            if mask:
                detected += 1
                keep_flags[chunk[(mask & -mask).bit_length() - 1]] = True
            else:
                survivors.append(fault)
        remaining = survivors
    kept = TestSet(
        circuit_name=test_set.circuit_name,
        patterns=[p for p, keep in zip(patterns, keep_flags) if keep],
    )
    return kept, detected


def extract_cone_netlist(netlist: Netlist, cone: Cone) -> Netlist:
    """The standalone netlist of one logic cone.

    Inputs are the cone's (pseudo-)primary inputs, the single output is
    the cone's output net; only the cone's gates are copied.  This is
    the unit the paper's Section 3 reasons about.
    """
    sub = Netlist(f"{netlist.name}_cone_{cone.output}")
    for net in sorted(cone.inputs):
        sub.add_input(net)
    cone_gates = set(cone.gates)
    for gate in netlist.topological_order():
        if gate.output in cone_gates:
            sub.add_gate(gate.gate_type, gate.output, gate.inputs)
    if cone.output not in cone_gates and cone.output not in cone.inputs:
        raise ValueError(f"cone output {cone.output!r} has no driver in the cone")
    sub.mark_output(cone.output)
    sub.validate()
    return sub


def per_cone_pattern_counts(
    netlist: Netlist,
    runtime=None,
) -> Dict[str, int]:
    """Stand-alone ATPG pattern count for every logic cone.

    This measures the quantity the paper's whole argument rests on: the
    variation of per-cone pattern counts that monolithic testing tops
    off to the maximum.  Intended for small circuits (it runs one ATPG
    per cone).

    ``runtime`` (a :class:`repro.runtime.Runtime`) supplies the config,
    cache, and worker fan-out for the per-cone runs; without one, the
    historical defaults apply (seed 0, backtrack limit 50 — cones are
    small, so the tighter limit loses nothing).  The loose ``seed`` /
    ``backtrack_limit`` keywords of earlier releases are gone — passing
    them is a :class:`TypeError` now.
    """
    # Imported lazily: the engine sits below the runtime facade.
    from ..runtime.executor import AtpgJob
    from ..runtime.session import ensure_runtime

    config = runtime.config if runtime is not None else AtpgConfig(backtrack_limit=50)
    runtime = ensure_runtime(runtime)

    cones = extract_cones(netlist)
    # Feed-through cones (no gates) have nothing to test; pre-filling
    # every output keeps the historical cone-order dict layout while
    # the real jobs run (possibly out of order) through the runtime.
    counts: Dict[str, int] = {cone.output: 0 for cone in cones}
    jobs: List[AtpgJob] = []
    job_outputs: List[str] = []
    for cone in cones:
        if not cone.gates:
            continue
        sub = extract_cone_netlist(netlist, cone)
        jobs.append(AtpgJob(name=sub.name, netlist=sub, config=config))
        job_outputs.append(cone.output)
    if jobs:
        for output, result in zip(job_outputs, runtime.map(jobs)):
            counts[output] = result.pattern_count
    return counts
