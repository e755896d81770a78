"""Population-sweep throughput and aggregator overhead.

The population experiment (Section 5.2 at N=1000) is the first
consumer of the generic sweep engine that is big enough for engine
overhead to matter.  This bench measures two things and records both
into the ``BENCH_atpg.json`` flow:

* **SOCs per second** through ``SweepEngine`` (build + analyze per
  point, serial — the per-worker rate parallel runs multiply).
* **Aggregator overhead**: the fraction of sweep wall-clock spent in
  the streaming statistics (same sweep with and without the full
  aggregator stack).  The streaming design exists so population-scale
  sweeps need no point list in memory; it must also stay cheap.

The acceptance criteria repeat the experiment's statistical checks at
bench scale: the reduction-vs-variation correlation must be clearly
positive and the trend slope rising.
"""

import time

from repro.sweeps import (
    BinnedMean,
    FractionTrue,
    RunningStats,
    StreamingRegression,
    SweepEngine,
)
from repro.synth.population import evaluate_population_point, population_spec

try:
    from .common import record_bench, run_once
except ImportError:  # running as a plain script, not a package
    from common import record_bench, run_once

BENCH_N = 1000
BENCH_SEED = 11
SHARD_SIZE = 50


def _full_aggregators():
    return (
        RunningStats("nsd"),
        RunningStats("reduction_pct"),
        StreamingRegression("nsd", "reduction_pct"),
        FractionTrue("modular_wins"),
        BinnedMean("nsd", "reduction_pct", (0.25, 0.5, 0.75, 1.0, 1.5)),
    )


def _run_population(aggregators):
    spec = population_spec(BENCH_N, seed=BENCH_SEED)
    engine = SweepEngine(shard_size=SHARD_SIZE)
    start = time.perf_counter()
    result = engine.run(
        spec, evaluate_population_point, aggregators=aggregators
    )
    return result, time.perf_counter() - start


def test_bench_population_sweep(benchmark):
    aggregators = _full_aggregators()
    (result, with_aggs_seconds) = run_once(
        benchmark, lambda: _run_population(aggregators)
    )
    _, bare_seconds = _run_population(())
    trend = aggregators[2]
    wins = aggregators[3]

    socs_per_second = BENCH_N / with_aggs_seconds
    # Fraction of sweep time the streaming statistics cost; can dip
    # below zero on timer noise when the true overhead is tiny.
    aggregator_overhead = (with_aggs_seconds - bare_seconds) / with_aggs_seconds

    print(f"\nPopulation sweep: N={BENCH_N} in {with_aggs_seconds:.2f}s "
          f"({socs_per_second:,.0f} SOCs/s, shard size {SHARD_SIZE})")
    print(f"  aggregator overhead: {100 * aggregator_overhead:+.1f}% "
          f"(bare sweep {bare_seconds:.2f}s)")
    print(f"  pearson r(nsd, reduction) = {trend.pearson:+.3f}, "
          f"slope {trend.slope:+.1f}%/nsd, "
          f"modular wins {100 * wins.fraction:.1f}%")

    assert result.point_count == BENCH_N
    # The experiment's statistical acceptance, at bench scale.
    assert trend.pearson > 0.3
    assert trend.slope > 0
    # Streaming statistics must stay a small fraction of the sweep.
    assert aggregator_overhead < 0.5

    record_bench("population_sweep", {
        "n": BENCH_N,
        "seconds": round(with_aggs_seconds, 3),
        "socs_per_second": round(socs_per_second),
        "aggregator_overhead": round(aggregator_overhead, 4),
        "pearson": round(trend.pearson, 4),
        "slope_pct_per_nsd": round(trend.slope, 2),
        "modular_win_fraction": round(wins.fraction, 4),
    })
