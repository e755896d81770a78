"""repro — reproduction of Sinanoglu & Marinissen, DATE 2008.

*Analysis of The Test Data Volume Reduction Benefit of Modular SOC
Testing* quantifies how much test data volume (TDV) modular, wrapped,
core-based SOC testing saves over monolithic testing of the flattened
design.  This package implements the paper's TDV model (Equations 1-8)
and every substrate its evaluation depends on:

``repro.core``
    The TDV formulas, the penalty/benefit decomposition, variation
    statistics, design-space sweeps, and table rendering.
``repro.soc``
    The SOC data model: cores, hierarchy, IEEE 1500-style wrappers,
    flattening.
``repro.circuit`` / ``repro.atpg``
    A gate-level netlist model with full-scan insertion, logic cones,
    and a from-scratch stuck-at ATPG (PODEM + fault simulation +
    compaction), replacing the paper's ATALANTA runs.
``repro.synth``
    Deterministic cone-structured circuit generation with ISCAS'89
    profiles; assembles the paper's SOC1 and SOC2.
``repro.itc02``
    The ITC'02 benchmark SOCs (``.soc`` format, shipped data, calibrated
    reconstruction solver, published table values).
``repro.tam``
    Wrapper/TAM design and scheduling substrate for the ablations the
    paper scopes out (idle bits, imbalanced chains).
``repro.experiments``
    One module per paper table/figure, plus a CLI runner.
``repro.runtime``
    The execution layer: run identity (``AtpgConfig``), the
    content-addressed ATPG result cache, and the parallel executor
    behind every experiment (``Runtime``).
``repro.observability``
    Zero-dependency tracing/metrics: nested spans, typed counters,
    JSONL traces, per-run summaries — off (and free) by default.
``repro.io``
    The public design-file loaders (``load_soc``, ``load_netlist``)
    with their format sniffing.
``repro.errors``
    The typed exception hierarchy (everything derives from
    ``ReproError``; parser errors stay ``ValueError``-compatible).

:class:`Runtime` is the single public execution entry point: build one
(or use ``Runtime.from_flags``) and pass it as the uniform ``runtime=``
parameter every ATPG-running entry point accepts.
"""

from .core import (
    TdvSummary,
    analyze,
    decompose,
    summarize,
    tdv_benefit,
    tdv_modular,
    tdv_monolithic,
    tdv_monolithic_optimistic,
    tdv_penalty,
)
from .errors import (
    AbortedError,
    CacheCorruptionError,
    ConfigError,
    JobFailure,
    JobRetriesExhaustedError,
    JobTimeoutError,
    NetlistParseError,
    ReproError,
    SocFormatError,
    UnknownBenchmarkError,
)
from .soc import Core, Soc, SocBuilder, flatten, isocost

__version__ = "1.0.0"


def __getattr__(name):
    # The runtime facade re-exported lazily: it drags in the ATPG stack,
    # which plain TDV-model users never need to import.
    if name in (
        "AtpgConfig",
        "Runtime",
        "AtpgResultCache",
        "RunManifest",
        "ExecutionPolicy",
        "ChaosConfig",
        "RunJournal",
        "JobOutcome",
    ):
        from . import runtime

        return getattr(runtime, name)
    if name in ("load_soc", "load_netlist"):
        from . import io

        return getattr(io, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AbortedError",
    "AtpgConfig",
    "AtpgResultCache",
    "CacheCorruptionError",
    "ChaosConfig",
    "ConfigError",
    "ExecutionPolicy",
    "JobFailure",
    "JobOutcome",
    "JobRetriesExhaustedError",
    "JobTimeoutError",
    "NetlistParseError",
    "ReproError",
    "RunJournal",
    "RunManifest",
    "Runtime",
    "SocFormatError",
    "UnknownBenchmarkError",
    "Core",
    "Soc",
    "SocBuilder",
    "TdvSummary",
    "analyze",
    "decompose",
    "flatten",
    "isocost",
    "load_netlist",
    "load_soc",
    "summarize",
    "tdv_benefit",
    "tdv_modular",
    "tdv_monolithic",
    "tdv_monolithic_optimistic",
    "tdv_penalty",
    "__version__",
]
