"""The traced run's layer split: timing wrappers and per-layer metrics.

The program's own spans (the engine's ``compile``/``random_phase``/
``podem``/``compact``/``fill``/``verify``, ``tam.cooptimize``,
``sweep``) and counters are read as they are.  Layers the program does
not span are timed by wrapping their public calls from here, for the
duration of a traced run only: each wrapper opens a span on the ambient
tracer, so it nests with the program's spans in one tree.  A name is
patched where its caller looks it up (``result_key`` is bound both in
``repro.runtime.cache`` and in ``repro.runtime.executor``).

A span's *self time* is its duration minus the durations of its direct
children; ATPG jobs run under their own tracer and are grafted below
the executor's span, so the tree is walked by depth, not by clock.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.observability import get_tracer

#: (module, attribute, span name) of every call the benchmark times.
#: Dotted attributes are methods patched on their class.
WRAPPED_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.runtime.session", "run_jobs", "runtime.run_jobs"),
    ("repro.runtime.cache", "result_key", "runtime.cache_key"),
    ("repro.runtime.executor", "result_key", "runtime.cache_key"),
    ("repro.runtime.cache", "AtpgResultCache.get", "runtime.cache_get"),
    ("repro.runtime.cache", "AtpgResultCache.put", "runtime.cache_put"),
    ("repro.atpg.engine", "extract_cones", "circuit.cones"),
    ("repro.atpg.engine", "extract_cone_netlist", "circuit.cones"),
    ("repro.experiments.iscas_socs", "elaborate", "synth.elaborate"),
    ("repro.synth.population", "synthetic_soc", "synth.soc"),
    ("repro.synth.population", "analyze", "core.analyze"),
    ("repro.experiments.population", "evaluate_population_point", "synth.point"),
    ("repro.experiments.tam", "evaluate_tam_point", "experiments.point"),
    ("repro.tam.problem", "TamProblem.lower_bound", "tam.lower_bound"),
    ("repro.tam.types", "Schedule.verify", "tam.verify"),
    ("repro.itc02", "load", "itc02.load"),
    ("repro.itc02.benchmarks", "load", "itc02.load"),
)

#: Span name -> per-layer metric holding the sum of its durations.
#: Engine phases and ``tam.cooptimize`` are the program's own spans.
DURATION_METRICS: Dict[str, str] = {
    "compile": "atpg.compile_s",
    "random_phase": "atpg.random_s",
    "podem": "atpg.podem_s",
    "compact": "atpg.compact_s",
    "fill": "atpg.fill_s",
    "verify": "atpg.verify_s",
    "runtime.cache_key": "runtime.cache_key_s",
    "circuit.cones": "circuit.cones_s",
    "synth.elaborate": "synth.elaborate_s",
    "synth.soc": "synth.soc_s",
    "core.analyze": "core.analyze_s",
    "tam.cooptimize": "tam.cooptimize_s",
    "tam.lower_bound": "tam.lower_bound_s",
    "tam.verify": "tam.verify_s",
    "itc02.load": "itc02.load_s",
}

#: Span name -> per-layer metric holding the sum of its self times.
SELF_METRICS: Dict[str, str] = {
    "runtime.cache_put": "runtime.cache_put_s",
    "runtime.cache_get": "runtime.cache_get_s",
    "runtime.run_jobs": "runtime.executor_self_s",
    "sweep": "sweeps.self_s",
    "synth.point": "synth.point_s",
}

#: Spans whose self time is the experiment runners' own work: the
#: round itself and the TAM grid-point evaluator.
EXPERIMENT_SPANS = ("round", "experiments.point")

#: Program counters reported under their registered names.
COUNTERS: Tuple[str, ...] = (
    "faultsim.fault_pattern_evals",
    "faultsim.detect_calls",
    "faultsim.gate_evals",
    "kernel.blocks_evaluated",
    "podem.calls",
    "podem.backtracks",
    "podem.decisions",
    "podem.events",
    "atpg.patterns.random",
    "atpg.patterns.deterministic",
    "atpg.patterns.pre_compaction",
    "atpg.patterns.final",
    "cache.hits",
    "cache.misses",
    "cache.stores",
    "cache.quarantined",
    "executor.retries",
    "tam.cooptimizations",
    "sweeps.points",
    "sweeps.shards",
)


def _timed(original: Any, span_name: str) -> Any:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with get_tracer().span(span_name):
            return original(*args, **kwargs)

    return wrapper


@contextmanager
def wrapped_calls() -> Iterator[None]:
    """Install the timing wrappers; restore the originals on exit."""
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for module_name, attribute, span_name in WRAPPED_CALLS:
            owner: Any = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            undo.append((owner, leaf, original))
            setattr(owner, leaf, _timed(original, span_name))
        yield
    finally:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)


def self_times(spans: Sequence[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus its direct children's (preorder input)."""
    own = [span["duration"] for span in spans]
    open_spans: List[int] = []
    for index, span in enumerate(spans):
        while open_spans and spans[open_spans[-1]]["depth"] >= span["depth"]:
            open_spans.pop()
        if open_spans and spans[open_spans[-1]]["depth"] == span["depth"] - 1:
            own[open_spans[-1]] -= span["duration"]
        open_spans.append(index)
    return own


def layer_metrics(export: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer figures of one traced export (times in seconds).

    ``experiments.self_s`` is what no named layer covers: the self time
    of the round span and of the TAM point evaluator.
    """
    spans = export["spans"]
    metrics: Dict[str, float] = dict.fromkeys(DURATION_METRICS.values(), 0.0)
    metrics.update(dict.fromkeys(SELF_METRICS.values(), 0.0))
    metrics["experiments.self_s"] = 0.0
    metrics["runtime.cache_key_calls"] = 0
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        if name in DURATION_METRICS:
            metrics[DURATION_METRICS[name]] += span["duration"]
        if name in SELF_METRICS:
            metrics[SELF_METRICS[name]] += own
        if name in EXPERIMENT_SPANS:
            metrics["experiments.self_s"] += own
        if name == "runtime.cache_key":
            metrics["runtime.cache_key_calls"] += 1
    counters = export["counters"]
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    return metrics


def derived_metrics(metrics: Dict[str, float]) -> Dict[str, float]:
    """Ratios computed from one cycle's per-layer figures."""

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    sim_s = metrics["atpg.random_s"] + metrics["atpg.verify_s"]
    generated = metrics["atpg.patterns.random"] + metrics["atpg.patterns.deterministic"]
    return {
        "faultsim.evals_per_s": ratio(metrics["faultsim.fault_pattern_evals"], sim_s),
        "podem.patterns_per_call": ratio(
            metrics["atpg.patterns.pre_compaction"], metrics["podem.calls"]
        ),
        "atpg.compaction_ratio": ratio(
            metrics["atpg.patterns.deterministic"],
            metrics["atpg.patterns.pre_compaction"],
        ),
        "atpg.verify_keep_ratio": ratio(metrics["atpg.patterns.final"], generated),
    }
