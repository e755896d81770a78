"""The population study: Section 5.2's correlation at large N.

The paper ties TDV reduction to the normalized standard deviation of
core pattern counts using ten benchmark SOCs.  Ten points make a
suggestive scatter, not a statistical claim — so this experiment
re-tests the relation on a latin-hypercube population of 1000+
profile-matched synthetic SOCs (:mod:`repro.synth.population`), with
every *other* design knob (core count, mean test size, scan depth,
wrapper width) varying at the same time.  If the correlation survives
that noise, it is a property of the TDV model, not of the benchmark
selection.

The sweep runs on :class:`~repro.sweeps.engine.SweepEngine`: it fans
across ``--workers``, journals shards under ``--run-dir`` and resumes
with ``--resume``, and streams every record through the aggregators —
so stdout is byte-identical no matter how the run was executed,
killed, or resumed.  ``REPRO_POPULATION_N`` scales the population
(CI smokes run small); the report prints the same checks either way.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from ..runtime.session import Runtime

from ..core.report import format_table
from ..errors import ConfigError
from ..sweeps import (
    BinnedMean,
    FractionTrue,
    RunningStats,
    StreamingRegression,
    SweepEngine,
    SweepRunResult,
)
from ..synth.population import (
    CORE_COUNT_RANGE,
    evaluate_population_point,
    population_spec,
    profile_io_bounds,
    profile_scan_bounds,
)
from .registry import experiment

DEFAULT_SAMPLES = 1000
DEFAULT_SHARD_SIZE = 50
DEFAULT_SEED = 11

#: The large-N acceptance thresholds: the relation must be clearly
#: positive, not just nonzero-by-luck.
MIN_PEARSON = 0.30

NSD_BIN_EDGES = (0.25, 0.5, 0.75, 1.0, 1.5)


def _env_count(name: str, default: int) -> int:
    """``$name`` as an integer of at least 1, or ``default`` when unset."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        value: Optional[int] = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {text!r}")
    return value


def run(
    verbose: bool = True,
    seed: Optional[int] = None,
    runtime: Optional["Runtime"] = None,
    samples: Optional[int] = None,
    shard_size: Optional[int] = None,
) -> SweepRunResult:
    """CLI entry point: sample, analyze, correlate, and judge.

    ``samples`` defaults to ``$REPRO_POPULATION_N`` or 1000;
    ``shard_size`` to ``$REPRO_POPULATION_SHARD`` or 50 (a killed run
    re-does at most one shard per worker).  Either variable must be an
    integer of at least 1, else :class:`~repro.errors.ConfigError`.
    Execution details go to stderr; stdout carries only the
    population-invariant report.
    """
    if samples is None:
        samples = _env_count("REPRO_POPULATION_N", DEFAULT_SAMPLES)
    if shard_size is None:
        shard_size = _env_count("REPRO_POPULATION_SHARD", DEFAULT_SHARD_SIZE)
    if seed is None:
        seed = DEFAULT_SEED

    spec = population_spec(samples, seed=seed)
    nsd = RunningStats("nsd")
    reduction = RunningStats("reduction_pct")
    trend = StreamingRegression("nsd", "reduction_pct")
    wins = FractionTrue("modular_wins")
    bins = BinnedMean("nsd", "reduction_pct", NSD_BIN_EDGES)

    engine = SweepEngine(runtime, shard_size=shard_size)
    result = engine.run(
        spec,
        evaluate_population_point,
        aggregators=(nsd, reduction, trend, wins, bins),
    )
    print(f"[sweep] {result.summary()}", file=sys.stderr)

    if verbose:
        scan_lo, scan_hi = profile_scan_bounds()
        io_lo, io_hi = profile_io_bounds()
        print(f"Population study: reduction vs pattern variation "
              f"(N={samples} synthetic SOCs)")
        print(f"  profile-matched axes: cores {CORE_COUNT_RANGE[0]}-"
              f"{CORE_COUNT_RANGE[1]}, scan/core {scan_lo}-{scan_hi} "
              f"(ISCAS'89 envelope), wrapper I/O {io_lo}-{io_hi}")
        print(f"  nsd: mean {nsd.mean:.2f}, stdev {nsd.stdev:.2f}, "
              f"range [{nsd.minimum:.2f}, {nsd.maximum:.2f}]")
        print(f"  reduction: mean {reduction.mean:+.1f}%, stdev "
              f"{reduction.stdev:.1f}, range [{reduction.minimum:+.1f}%, "
              f"{reduction.maximum:+.1f}%]")
        print(f"  modular wins on {100.0 * wins.fraction:.1f}% of SOCs "
              f"({wins.true_count}/{wins.count})")
        rows = [
            [row["bin"], row["count"],
             "-" if row["mean"] is None else f"{row['mean']:+.1f}%"]
            for row in bins.rows()
        ]
        print(format_table(["nsd bin", "SOCs", "mean reduction"], rows))
        print(f"  Pearson r(nsd, reduction) = {trend.pearson:+.3f}   "
              f"(benchmark suite: +0.832 over ten SOCs)")
        print(f"  trend: reduction ~= {trend.slope:+.1f}%/nsd "
              f"{trend.intercept:+.1f}%")
        print(f"  check: correlation positive at scale "
              f"(r > {MIN_PEARSON:.2f}): "
              f"{'PASS' if trend.pearson > MIN_PEARSON else 'FAIL'}")
        print(f"  check: reduction rises with variation (slope > 0): "
              f"{'PASS' if trend.slope > 0 else 'FAIL'}")
    return result


experiment("population", order=70)(run)
