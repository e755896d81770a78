"""Section 3 worked example (Figures 1 and 2).

The paper illustrates its argument with three logic cones A, B, C
driven by 20, 10 and 20 scan flip-flops and needing 200, 300 and 400
partial patterns: monolithic testing with perfect compaction costs
400 x 50 = 20,000 stimulus bits, while wrapping each cone as a core
costs 600 x 20 + 300 x 10 = 15,000 bits — a 25% reduction.

This module reproduces the arithmetic through the TDV model (the
analytic half) and then *demonstrates* the two cone phenomena on real
generated circuits with the ATPG stack (the mechanistic half):
disjoint cones compact towards the per-cone maximum, overlapping cones
compact worse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..atpg.compaction import static_compact
from ..atpg.compiled import CompiledCircuit
from ..atpg.engine import extract_cone_netlist
from ..atpg.patterns import TestPattern
from ..circuit.cones import extract_cones, overlap_fraction
from ..itc02.paper_tables import (
    CONE_EXAMPLE_FLIP_FLOPS,
    CONE_EXAMPLE_MODULAR_BITS,
    CONE_EXAMPLE_MONOLITHIC_BITS,
    CONE_EXAMPLE_PATTERNS,
)
from ..runtime.executor import AtpgJob
from ..runtime.session import Runtime, ensure_runtime
from ..synth.generator import GeneratorSpec, generate_circuit
from .registry import experiment


@dataclass(frozen=True)
class ConeExampleResult:
    """The analytic reproduction of the Section 3 numbers."""

    flip_flops: Tuple[int, ...]
    patterns: Tuple[int, ...]
    monolithic_bits: int
    modular_bits: int

    @property
    def reduction_percent(self) -> float:
        return 100.0 * (1.0 - self.modular_bits / self.monolithic_bits)


def cone_example(
    flip_flops: Sequence[int] = CONE_EXAMPLE_FLIP_FLOPS,
    patterns: Sequence[int] = CONE_EXAMPLE_PATTERNS,
) -> ConeExampleResult:
    """Stimulus-volume arithmetic for non-overlapping cones.

    Monolithic: perfect compaction stacks per-cone patterns, so the
    circuit needs ``max(patterns)`` patterns of ``sum(flip_flops)`` bits.
    Modular: each cone-as-core loads only its own flip-flops for its own
    pattern count.
    """
    if len(flip_flops) != len(patterns):
        raise ValueError("flip_flops and patterns must align")
    monolithic = max(patterns) * sum(flip_flops)
    modular = sum(t * s for t, s in zip(patterns, flip_flops))
    return ConeExampleResult(
        flip_flops=tuple(flip_flops),
        patterns=tuple(patterns),
        monolithic_bits=monolithic,
        modular_bits=modular,
    )


def verify_against_paper() -> bool:
    """The published 20,000 / 15,000 / 25% figures, bit-exact."""
    result = cone_example()
    return (
        result.monolithic_bits == CONE_EXAMPLE_MONOLITHIC_BITS
        and result.modular_bits == CONE_EXAMPLE_MODULAR_BITS
        and abs(result.reduction_percent - 25.0) < 1e-9
    )


@dataclass
class ConeCompactionDemo:
    """ATPG evidence for the Figure 1 phenomena on one circuit."""

    circuit_name: str
    cone_overlap_fraction: float
    per_cone_patterns: List[int]
    merged_pattern_count: int  # patterns after cross-cone static compaction

    @property
    def max_cone_patterns(self) -> int:
        return max(self.per_cone_patterns)

    @property
    def conflict_excess(self) -> int:
        """Patterns beyond the per-cone maximum — Figure 1(b)'s effect."""
        return self.merged_pattern_count - self.max_cone_patterns


def compaction_demo(
    overlap: float,
    seed: int = 11,
    cones: int = 6,
    runtime: Optional[Runtime] = None,
) -> ConeCompactionDemo:
    """Generate a circuit at the given cone overlap and measure compaction.

    Per-cone ATPG produces partial pattern sets; merging them with
    static compaction shows whether the circuit-level count stays at the
    per-cone maximum (disjoint cones, Figure 1(a)) or exceeds it due to
    conflicting stimulus bits (overlapping cones, Figure 1(b)).  The
    per-cone runs are independent, so they go through the runtime as
    one parallel batch.
    """
    runtime = ensure_runtime(runtime)
    spec = GeneratorSpec(
        name=f"cone_demo_{overlap:g}",
        inputs=cones * 6,
        outputs=cones,
        flip_flops=0,
        target_gates=cones * 14,
        min_cone_width=5,
        max_cone_width=8,
        overlap=overlap,
        xor_fraction=0.3,
        seed=seed,
    )
    netlist = generate_circuit(spec)
    circuit = CompiledCircuit(netlist)
    extracted = extract_cones(netlist)

    config = runtime.config.with_seed(seed)
    subs = [extract_cone_netlist(netlist, cone) for cone in extracted]
    results = runtime.map(
        [AtpgJob(name=sub.name, netlist=sub, config=config) for sub in subs]
    )

    per_cone_counts: List[int] = []
    all_partials: List[TestPattern] = []
    for sub, result in zip(subs, results):
        per_cone_counts.append(result.pattern_count)
        # Re-key the cone's patterns onto the parent circuit's net ids —
        # cone inputs are parent nets, so only the id space changes.
        sub_circuit = CompiledCircuit(sub)
        for pattern in result.test_set:
            remapped = {
                circuit.net_ids[sub_circuit.net_names[net_id]]: value
                for net_id, value in pattern.assignments.items()
            }
            all_partials.append(TestPattern(remapped))

    merged = static_compact(all_partials)
    return ConeCompactionDemo(
        circuit_name=netlist.name,
        cone_overlap_fraction=overlap_fraction(extracted),
        per_cone_patterns=per_cone_counts,
        merged_pattern_count=len(merged),
    )


@experiment("cone-example", order=10)
def run(
    verbose: bool = True,
    seed: Optional[int] = None,
    runtime: Optional[Runtime] = None,
) -> ConeExampleResult:
    """The experiment entry point used by the CLI runner."""
    if seed is None:
        seed = 11
    result = cone_example()
    if verbose:
        print("Section 3 worked example (Figures 1-2)")
        print(f"  cones: FFs={result.flip_flops} patterns={result.patterns}")
        print(f"  monolithic bits: {result.monolithic_bits:,} (paper: "
              f"{CONE_EXAMPLE_MONOLITHIC_BITS:,})")
        print(f"  modular bits:    {result.modular_bits:,} (paper: "
              f"{CONE_EXAMPLE_MODULAR_BITS:,})")
        print(f"  reduction:       {result.reduction_percent:.1f}% (paper: 25.0%)")
        for overlap in (0.0, 0.8):
            demo = compaction_demo(overlap, seed=seed, runtime=runtime)
            print(
                f"  ATPG demo overlap={overlap:.1f}: cone patterns "
                f"{demo.per_cone_patterns}, merged {demo.merged_pattern_count} "
                f"(excess over max: {demo.conflict_excess})"
            )
    return result
