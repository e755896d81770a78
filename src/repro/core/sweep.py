"""Design-space sweeps over the TDV model.

The paper's conclusions generalize beyond its ten benchmark SOCs: the
modular-testing benefit grows with pattern-count variation and shrinks
with wrapper overhead.  These sweeps chart that design space with
synthetic SOC families, which backs the correlation figure and the
ablation benches.

Since PR 6 the sweeps themselves are *declarative*: each ``sweep_*``
helper builds a :class:`~repro.sweeps.spec.SweepSpec` (one grid axis
plus the family's fixed knobs) and evaluates it through the generic
:class:`~repro.sweeps.engine.SweepEngine`, which is where worker
fan-out, chaos/retry policy, and per-shard checkpoint/resume live.
The helpers keep their historical signatures and return the exact same
:class:`SweepPoint` lists as before; pass ``runtime=`` to inherit a
:class:`~repro.runtime.session.Runtime`'s execution policy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..soc.model import Core, Soc
from ..sweeps import Axis, SweepEngine, SweepPointSpec, SweepSpec, derive_seed
from .analysis import SocAnalysis, analyze
from .tdv import TdvSummary


@dataclass(frozen=True)
class SweepPoint:
    """One synthetic SOC evaluated at one sweep setting."""

    parameter: float
    analysis: SocAnalysis


def _pattern_factor(rng: random.Random, pattern_spread: float) -> float:
    return rng.lognormvariate(0.0, pattern_spread) if pattern_spread else 1.0


def synthetic_soc(
    name: str,
    core_count: int,
    mean_patterns: int,
    pattern_spread: float,
    scan_cells_per_core: int = 500,
    io_per_core: int = 64,
    chip_io: int = 128,
    seed: int = 0,
    core_seed_streams: bool = False,
) -> Soc:
    """Build a flat synthetic SOC with controlled pattern-count spread.

    Pattern counts are drawn (deterministically, from ``seed``) from a
    log-uniform-ish family whose normalized stdev grows monotonically
    with ``pattern_spread`` in [0, ~3].  Spread 0 gives identical counts
    (the g12710 regime); large spreads give a586710-like skew where one
    core dominates.

    ``core_seed_streams=False`` (the default) draws every core's factor
    from one sequential RNG — the historical behavior, kept so existing
    fingerprints and tables stay byte-identical.  ``True`` derives an
    independent stream per core index (:func:`~repro.sweeps.derive_seed`),
    so core ``i``'s pattern count no longer depends on how many cores
    precede it or on evaluation order — the contract population-scale
    sweeps rely on.
    """
    if core_count < 1:
        raise ValueError("core_count must be >= 1")
    if mean_patterns < 1:
        raise ValueError("mean_patterns must be >= 1")
    if pattern_spread < 0:
        raise ValueError("pattern_spread must be >= 0")
    # Only the sequential path shares one generator; the per-core path
    # seeds its own, so it builds none here.
    shared_rng = None if core_seed_streams else random.Random(seed)
    cores = [
        Core(
            name=f"{name}_top",
            inputs=chip_io // 2,
            outputs=chip_io - chip_io // 2,
            scan_cells=0,
            patterns=1,
            children=[f"{name}_core{i}" for i in range(core_count)],
        )
    ]
    for i in range(core_count):
        rng = (
            random.Random(derive_seed(seed, "core", i))
            if core_seed_streams
            else shared_rng
        )
        patterns = max(1, round(mean_patterns * _pattern_factor(rng, pattern_spread)))
        cores.append(
            Core(
                name=f"{name}_core{i}",
                inputs=io_per_core // 2,
                outputs=io_per_core - io_per_core // 2,
                scan_cells=scan_cells_per_core,
                patterns=patterns,
            )
        )
    return Soc(name, cores, top=cores[0].name)


# -- record plumbing ---------------------------------------------------------
#
# The engine journals and aggregates plain JSON records; a SweepPoint's
# analysis round-trips through one losslessly (every field is an int or
# a repr-exact float), so resumed sweeps are bit-identical to fresh ones.

_SUMMARY_FIELDS = (
    "soc_name", "core_count", "monolithic_patterns", "tdv_monolithic",
    "tdv_modular", "tdv_penalty", "tdv_benefit", "chip_io_residual",
)


def analysis_record(parameter: Any, soc: Soc) -> Dict[str, Any]:
    """Analyze one synthetic SOC into the engine's record form."""
    analysis = analyze(soc)
    record: Dict[str, Any] = {
        "parameter": parameter,
        "pattern_variation": analysis.pattern_variation,
    }
    for field in _SUMMARY_FIELDS:
        record[field] = getattr(analysis.summary, field)
    return record


def point_from_record(record: Mapping[str, Any]) -> SweepPoint:
    """Rehydrate an :func:`analysis_record` into a :class:`SweepPoint`."""
    summary = TdvSummary(**{field: record[field] for field in _SUMMARY_FIELDS})
    return SweepPoint(
        parameter=record["parameter"],
        analysis=SocAnalysis(
            summary=summary, pattern_variation=record["pattern_variation"]
        ),
    )


def _run_family(
    spec: SweepSpec,
    evaluate: Callable[[SweepPointSpec], Dict[str, Any]],
    runtime: Optional[Any],
) -> List[SweepPoint]:
    records = SweepEngine(runtime).run(spec, evaluate, collect=True).records
    return [point_from_record(record) for record in records]


# -- pattern-count variation -------------------------------------------------

def pattern_variation_spec(
    spreads: Sequence[float],
    core_count: int = 10,
    mean_patterns: int = 200,
    scan_cells_per_core: int = 500,
    io_per_core: int = 64,
    seed: int = 0,
) -> SweepSpec:
    """The controlled family behind the Table-4 correlation claim."""
    return SweepSpec(
        name="pattern_variation",
        axes=(Axis.grid("spread", spreads),),
        seed=seed,
        constants={
            "core_count": core_count,
            "mean_patterns": mean_patterns,
            "scan_cells_per_core": scan_cells_per_core,
            "io_per_core": io_per_core,
            "seed": seed,
        },
    )


def _evaluate_pattern_variation(point: SweepPointSpec) -> Dict[str, Any]:
    params = point.params
    spread = params["spread"]
    soc = synthetic_soc(
        name=f"sweep_spread_{spread:g}",
        core_count=params["core_count"],
        mean_patterns=params["mean_patterns"],
        pattern_spread=spread,
        scan_cells_per_core=params["scan_cells_per_core"],
        io_per_core=params["io_per_core"],
        seed=params["seed"],
    )
    return analysis_record(spread, soc)


def sweep_pattern_variation(
    spreads: Sequence[float],
    core_count: int = 10,
    mean_patterns: int = 200,
    scan_cells_per_core: int = 500,
    io_per_core: int = 64,
    seed: int = 0,
    runtime: Optional[Any] = None,
) -> List[SweepPoint]:
    """TDV reduction as a function of pattern-count spread.

    Reproduces, on a controlled family, the Table-4 observation that
    reduction tracks the normalized stdev of pattern counts.
    """
    spec = pattern_variation_spec(
        spreads,
        core_count=core_count,
        mean_patterns=mean_patterns,
        scan_cells_per_core=scan_cells_per_core,
        io_per_core=io_per_core,
        seed=seed,
    )
    return _run_family(spec, _evaluate_pattern_variation, runtime)


# -- wrapper overhead --------------------------------------------------------

def wrapper_overhead_spec(
    io_per_core_values: Sequence[int],
    core_count: int = 10,
    mean_patterns: int = 200,
    pattern_spread: float = 1.0,
    scan_cells_per_core: int = 500,
    seed: int = 0,
) -> SweepSpec:
    """Per-core terminal count as the swept axis (g12710's regime)."""
    return SweepSpec(
        name="wrapper_overhead",
        axes=(Axis.grid("io_per_core", io_per_core_values),),
        seed=seed,
        constants={
            "core_count": core_count,
            "mean_patterns": mean_patterns,
            "pattern_spread": pattern_spread,
            "scan_cells_per_core": scan_cells_per_core,
            "seed": seed,
        },
    )


def _evaluate_wrapper_overhead(point: SweepPointSpec) -> Dict[str, Any]:
    params = point.params
    io_per_core = params["io_per_core"]
    soc = synthetic_soc(
        name=f"sweep_io_{io_per_core}",
        core_count=params["core_count"],
        mean_patterns=params["mean_patterns"],
        pattern_spread=params["pattern_spread"],
        scan_cells_per_core=params["scan_cells_per_core"],
        io_per_core=io_per_core,
        seed=params["seed"],
    )
    return analysis_record(float(io_per_core), soc)


def sweep_wrapper_overhead(
    io_per_core_values: Sequence[int],
    core_count: int = 10,
    mean_patterns: int = 200,
    pattern_spread: float = 1.0,
    scan_cells_per_core: int = 500,
    seed: int = 0,
    runtime: Optional[Any] = None,
) -> List[SweepPoint]:
    """TDV reduction as a function of per-core wrapper-cell count.

    Charts the g12710 failure mode: when core I/O terminals rival scan
    cells, the isolation penalty can overwhelm the benefit.
    """
    spec = wrapper_overhead_spec(
        io_per_core_values,
        core_count=core_count,
        mean_patterns=mean_patterns,
        pattern_spread=pattern_spread,
        scan_cells_per_core=scan_cells_per_core,
        seed=seed,
    )
    return _run_family(spec, _evaluate_wrapper_overhead, runtime)


# -- partitioning granularity ------------------------------------------------

def core_count_spec(
    core_counts: Sequence[int],
    mean_patterns: int = 200,
    pattern_spread: float = 1.0,
    scan_cells_per_core: int = 500,
    io_per_core: int = 64,
    seed: int = 0,
) -> SweepSpec:
    """Granularity at fixed total scan: Section 3's partitioning axis."""
    for count in core_counts:
        if count < 1:
            raise ValueError("core counts must be >= 1")
    return SweepSpec(
        name="core_count",
        axes=(Axis.grid("core_count", core_counts),),
        seed=seed,
        constants={
            "mean_patterns": mean_patterns,
            "pattern_spread": pattern_spread,
            "scan_cells_per_core": scan_cells_per_core,
            "io_per_core": io_per_core,
            "seed": seed,
        },
    )


def _evaluate_core_count(point: SweepPointSpec) -> Dict[str, Any]:
    params = point.params
    count = params["core_count"]
    soc = synthetic_soc(
        name=f"sweep_cores_{count}",
        core_count=count,
        mean_patterns=params["mean_patterns"],
        pattern_spread=params["pattern_spread"],
        scan_cells_per_core=max(1, params["scan_cells_per_core"] * 10 // count),
        io_per_core=params["io_per_core"],
        seed=params["seed"],
    )
    return analysis_record(float(count), soc)


def sweep_core_count(
    core_counts: Sequence[int],
    mean_patterns: int = 200,
    pattern_spread: float = 1.0,
    scan_cells_per_core: int = 500,
    io_per_core: int = 64,
    seed: int = 0,
    runtime: Optional[Any] = None,
) -> List[SweepPoint]:
    """TDV reduction as a function of partitioning granularity.

    Section 3 notes that treating every cone as a core would minimize
    waste but is unrealistic due to wrapper overhead; this sweep shows
    the trade-off as granularity increases with total scan count fixed.
    """
    spec = core_count_spec(
        core_counts,
        mean_patterns=mean_patterns,
        pattern_spread=pattern_spread,
        scan_cells_per_core=scan_cells_per_core,
        io_per_core=io_per_core,
        seed=seed,
    )
    return _run_family(spec, _evaluate_core_count, runtime)


# -- crossover search --------------------------------------------------------

def crossover_spread(
    low: float = 0.0,
    high: float = 3.0,
    tolerance: float = 1e-3,
    soc_factory: Optional[Callable[[float], Soc]] = None,
) -> float:
    """Pattern spread at which modular testing breaks even.

    Bisects the spread axis for the point where the modular change
    fraction crosses zero (penalty == benefit).  Below the returned
    spread the synthetic family behaves like g12710 (modular loses);
    above it modular wins.  Raises if the family does not bracket a
    crossover in [low, high].  (Bisection is inherently sequential, so
    this stays a direct computation rather than a sweep spec.)
    """
    if soc_factory is None:
        def soc_factory(spread: float) -> Soc:
            return synthetic_soc(
                name="crossover",
                core_count=10,
                mean_patterns=200,
                pattern_spread=spread,
                scan_cells_per_core=40,
                io_per_core=96,
                seed=7,
            )

    def change(spread: float) -> float:
        return analyze(soc_factory(spread)).summary.modular_change_fraction

    lo, hi = low, high
    f_lo, f_hi = change(lo), change(hi)
    if f_lo * f_hi > 0:
        raise ValueError(
            f"no crossover in [{low}, {high}]: change({low})={f_lo:.4f}, "
            f"change({high})={f_hi:.4f}"
        )
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if change(mid) * f_lo > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
