"""Extension studies beyond the paper's evaluation.

Three follow-on questions the paper's framing raises but does not
measure, answered with the library's substrates:

1. **BIST** (the paper's "source and sink ... on-chip" alternative):
   how does on-chip generation change the *external* test data volume,
   and what coverage does it give up?
2. **Compression**: modular per-core pattern sets keep care bits dense
   in short streams, monolithic patterns dilute them over the whole
   scan load — how does that interact with stimulus compression?
3. **Abort-on-fail** (related-work refs [15][16]): modular tests can be
   reordered around fail probabilities; a monolithic test cannot.  How
   much expected tester time does the ordering freedom buy?
4. **Test points**: SCOAP-guided control/observe cells recover BIST
   coverage at the price of extra scan cells — i.e. extra TDV, landing
   the trade right back in the paper's accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..runtime.session import Runtime, ensure_runtime
from ..atpg import (
    CompiledCircuit,
    Podem,
    TestSet,
    collapse_faults,
    compare_bist_vs_ate,
    compress_streams,
    pattern_streams,
)
from ..atpg.bist import BistVsAteComparison
from ..atpg.compression import CompressionReport
from ..itc02 import load
from ..synth import GeneratorSpec, generate_circuit
from ..tam import AbortOnFailStudy, core_specs_from_soc
from ..tam import study as abort_study
from .registry import experiment


def bist_study(
    seed: int = 9,
    bist_patterns: int = 2048,
    runtime: Optional[Runtime] = None,
) -> BistVsAteComparison:
    """BIST vs ATE external data volume on a mid-size generated core."""
    runtime = ensure_runtime(runtime)
    netlist = generate_circuit(
        GeneratorSpec(name="bist_core", inputs=20, outputs=12, flip_flops=48,
                      target_gates=420, seed=seed)
    )
    config = runtime.config.with_seed(seed)
    # The ATE half is a plain stuck-at run — route it through the
    # runtime so it caches and parallelizes like every other T.
    ate_result = runtime.generate(netlist, config=config)
    return compare_bist_vs_ate(
        netlist, bist_patterns=bist_patterns, config=config, ate_result=ate_result
    )


def fill_study(
    seed: Optional[int] = None,
    runtime: Optional[Runtime] = None,
) -> Dict[str, Dict[str, float]]:
    """The X-fill triangle on a generated core's partial patterns.

    Adjacent fill minimizes shift transitions (power), constant fill
    maximizes run-length compressibility, random fill maximizes
    incidental detection — three deliveries of the *same* care bits
    with very different costs.
    """
    from ..atpg import Podem, TestSet, collapse_faults
    from ..atpg.fill import fill_strategy_report

    seed = 9 if seed is None else seed
    runtime = ensure_runtime(runtime)
    with runtime.activate():
        netlist = generate_circuit(
            GeneratorSpec(name="fill_core", inputs=18, outputs=8, flip_flops=40,
                          target_gates=360, seed=seed)
        )
        circuit = CompiledCircuit(netlist)
        podem = Podem(circuit)
        partial = TestSet(netlist.name)
        for fault in collapse_faults(circuit):
            outcome = podem.generate(fault)
            if outcome.pattern is not None:
                partial.add(outcome.pattern)
        return fill_strategy_report(partial, circuit, seed=seed)


def compression_study(
    seed: Optional[int] = None,
    runtime: Optional[Runtime] = None,
) -> Tuple[CompressionReport, CompressionReport]:
    """Care-bit density and compressibility: partial vs filled patterns.

    PODEM's partial patterns model the per-core (modular) situation —
    only the targeted core's bits are specified; the deterministically
    filled versions model delivery, where every bit is shifted.
    """
    seed = 9 if seed is None else seed
    runtime = ensure_runtime(runtime)
    with runtime.activate():
        netlist = generate_circuit(
            GeneratorSpec(name="compress_core", inputs=24, outputs=10,
                          flip_flops=60, target_gates=460, seed=seed)
        )
        circuit = CompiledCircuit(netlist)
        podem = Podem(circuit)
        partial = TestSet(netlist.name)
        for fault in collapse_faults(circuit):
            outcome = podem.generate(fault)
            if outcome.pattern is not None:
                partial.add(outcome.pattern)
        filled = partial.filled(circuit, seed=seed)
        return (
            compress_streams(
                "partial (modular-style)", pattern_streams(circuit, partial)
            ),
            compress_streams("filled (delivery)", pattern_streams(circuit, filled)),
        )


def abort_on_fail_study(
    soc_name: str = "d695",
    tam_width: int = 8,
    runtime: Optional[Runtime] = None,
) -> AbortOnFailStudy:
    """Expected tester time with and without fail-probability ordering.

    Fail probabilities follow an area-proportional defect model over
    each core's scan population.
    """
    runtime = ensure_runtime(runtime)
    with runtime.activate():
        soc = load(soc_name)
        specs = core_specs_from_soc(soc)
        biggest = max(sum(spec.scan_chains) for spec in specs) or 1
        probabilities: Dict[str, float] = {
            spec.name: 0.02 + 0.25 * sum(spec.scan_chains) / biggest
            for spec in specs
        }
        return abort_study(specs, probabilities, tam_width=tam_width)


@dataclass
class TestPointStudy:
    """BIST coverage and scan-cell cost before/after test points."""

    __test__ = False  # "Test" prefix is domain vocabulary

    coverage_before: float
    coverage_after: float
    added_cells: int
    scan_cells_before: int

    @property
    def coverage_gain(self) -> float:
        return self.coverage_after - self.coverage_before

    @property
    def cell_overhead(self) -> float:
        return self.added_cells / self.scan_cells_before


def test_point_study(
    seed: Optional[int] = None,
    budget: int = 16,
    patterns: int = 128,
    runtime: Optional[Runtime] = None,
) -> TestPointStudy:
    """SCOAP-guided test points on a random-pattern-resistant core.

    Both BIST sessions are scored against the *original* circuit's
    collapsed fault list (translated into the instrumented netlist by
    :func:`repro.atpg.testpoints.map_faults_to_instrumented`), so the
    coverage numbers are directly comparable.
    """
    from ..atpg import apply_test_points, run_bist
    from ..atpg.testpoints import map_faults_to_instrumented

    seed = 21 if seed is None else seed
    runtime = ensure_runtime(runtime)
    with runtime.activate():
        netlist = generate_circuit(
            GeneratorSpec(name="tp_core", inputs=40, outputs=8, flip_flops=24,
                          target_gates=420, min_cone_width=12, max_cone_width=18,
                          xor_fraction=0.0, overlap=0.3, seed=seed)
        )
        _plan, instrumented = apply_test_points(
            netlist, budget=budget, observe_threshold=10, control_threshold=10
        )
        original_faults, mapped_faults = map_faults_to_instrumented(
            netlist, instrumented
        )
        before = run_bist(netlist, patterns=patterns, seed=seed,
                          faults=original_faults)
        after = run_bist(instrumented, patterns=patterns, seed=seed,
                         faults=mapped_faults)
    return TestPointStudy(
        coverage_before=before.fault_coverage,
        coverage_after=after.fault_coverage,
        added_cells=len(instrumented.flip_flops) - len(netlist.flip_flops),
        scan_cells_before=len(netlist.flip_flops),
    )


# The name begins with "test" as domain vocabulary; keep pytest from
# collecting it when imported into test/bench modules.
test_point_study.__test__ = False  # type: ignore[attr-defined]


@dataclass
class AtSpeedStudy:
    """Stuck-at vs transition pattern counts on one full-scan core."""

    stuck_at_patterns: int
    transition_pairs: int
    transition_coverage: float

    @property
    def data_multiplier(self) -> float:
        """TDV ratio at equal per-pattern width: pairs over patterns."""
        if self.stuck_at_patterns == 0:
            return float("inf")
        return self.transition_pairs / self.stuck_at_patterns


def at_speed_study(seed: int = 7, runtime: Optional[Runtime] = None) -> AtSpeedStudy:
    """The at-speed data multiplier on a generated full-scan core.

    Transition tests reuse the same scan infrastructure (same bits per
    pattern), so the TDV impact is purely the pattern-count multiplier —
    which feeds straight into the paper's per-core ``T`` values.
    """
    from ..atpg import generate_transition_tests

    runtime = ensure_runtime(runtime)
    netlist = generate_circuit(
        GeneratorSpec(name="atspeed_core", inputs=10, outputs=4,
                      flip_flops=12, target_gates=110, seed=seed)
    )
    config = runtime.config.with_seed(seed)
    stuck_at = runtime.generate(netlist, config=config)
    transition = generate_transition_tests(netlist, fill_retries=16, config=config)
    return AtSpeedStudy(
        stuck_at_patterns=stuck_at.pattern_count,
        transition_pairs=transition.pattern_pair_count,
        transition_coverage=transition.fault_coverage,
    )


@experiment("extensions", order=60)
def run(
    verbose: bool = True,
    seed: Optional[int] = None,
    runtime: Optional[Runtime] = None,
) -> Dict[str, object]:
    """CLI entry point for the extension studies.

    ``seed=None`` keeps each study's historical default seed (9/21/7);
    an explicit seed overrides all of them uniformly — previously the
    runner's ``--seed`` was silently dropped here.
    """
    runtime = ensure_runtime(runtime)
    bist = bist_study(**({} if seed is None else {"seed": seed}), runtime=runtime)
    partial, filled = compression_study(seed=seed, runtime=runtime)
    abort = abort_on_fail_study(runtime=runtime)
    points = test_point_study(seed=seed, runtime=runtime)
    at_speed = at_speed_study(
        **({} if seed is None else {"seed": seed}), runtime=runtime
    )
    fill = fill_study(seed=seed, runtime=runtime)
    if verbose:
        print("Extension 1: BIST vs external test data")
        print(f"  ATE scan test: {bist.ate_patterns} patterns, "
              f"{bist.ate_bits:,} external bits")
        print(f"  BIST session:  {bist.bist.patterns_applied} patterns, "
              f"{bist.bist.external_data_bits():,} external bits, "
              f"coverage {100 * bist.bist.fault_coverage:.1f}%")
        print(f"  external-data reduction: {bist.external_reduction_ratio:,.0f}x")
        print()
        print("Extension 2: care-bit density and stimulus compression")
        for report in (partial, filled):
            print(f"  {report.name:24s} flat {report.flat_bits:>8,}  "
                  f"run-length {report.run_length:>8,} "
                  f"({report.run_length_ratio:4.1f}x)  care-coded "
                  f"{report.care_position:>8,} "
                  f"({report.care_position_ratio:4.1f}x)")
        print()
        print("Extension 3: abort-on-fail ordering (d695)")
        print(f"  all-pass session: {abort.pass_time:,.0f} cycles")
        print(f"  expected, size-ordered:   {abort.expected_naive:,.0f} cycles")
        print(f"  expected, p/t-ordered:    {abort.expected_optimized:,.0f} cycles "
              f"({100 * abort.improvement:.1f}% saved)")
        print()
        print("Extension 4: SCOAP-guided test points for BIST")
        print(f"  coverage {100 * points.coverage_before:.1f}% -> "
              f"{100 * points.coverage_after:.1f}% "
              f"(+{100 * points.coverage_gain:.1f} points) for "
              f"{points.added_cells} extra scan cells "
              f"({100 * points.cell_overhead:.0f}% of the original scan)")
        print()
        print("Extension 5: at-speed (transition) test data multiplier")
        print(f"  stuck-at: {at_speed.stuck_at_patterns} patterns; "
              f"LOS transition: {at_speed.transition_pairs} pairs at "
              f"{100 * at_speed.transition_coverage:.1f}% TDF coverage "
              f"-> {at_speed.data_multiplier:.1f}x data")
        print()
        print("Extension 6: X-fill strategies (power vs compression)")
        for strategy, costs in fill.items():
            print(f"  {strategy:9s} transitions {costs['transitions']:>8,.0f}  "
                  f"run-length {costs['run_length_ratio']:.2f}x")
    return {
        "bist": bist,
        "compression": (partial, filled),
        "abort": abort,
        "test_points": points,
        "at_speed": at_speed,
        "fill": fill,
    }
