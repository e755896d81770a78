"""Shared helpers for the paper-reproduction benchmarks.

Each ``bench_*`` module regenerates one table or figure of the paper
and asserts its acceptance criteria (shape, not absolute numbers, for
the ATPG-backed experiments; tight tolerances for the analytic ones).
Run with::

    pytest benchmarks/ --benchmark-only

Heavy ATPG experiments are benchmarked with a single round: the run
*is* the experiment, and determinism makes repeat timing uninformative.
"""

import json
import os
import time

import pytest

from repro.atpg.faultsim import reset_sim_stats, sim_stats
from repro.observability import JsonlSink, Tracer, use_tracer
from repro.observability.tracer import phase_breakdown


def run_once(benchmark, function, *args, **kwargs):
    """Benchmark a deterministic experiment with one round."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def _trace_env():
    """The (trace_path, metrics_path) the environment asks for.

    ``REPRO_TRACE`` names a JSONL file that accumulates one trace per
    benchmarked call (append mode — benchmarks stack); if
    ``REPRO_METRICS_OUT`` is also set, the human-readable summary of
    each trace is appended there.  Unset (the default), benchmarks run
    exactly as before, under the null tracer.
    """
    return os.environ.get("REPRO_TRACE"), os.environ.get("REPRO_METRICS_OUT")


def run_timed(benchmark, function, *args, **kwargs):
    """Like :func:`run_once`, plus wall time, kernel stats and phases.

    Returns ``(result, seconds, stats, phases)``.  ``stats`` is the
    fault-simulation counter snapshot for the run (detect calls,
    fault×pattern evaluations, gate evaluations) — the numbers the
    throughput reports divide by the wall time.  ``phases`` maps each
    engine phase span (``random_phase``, ``podem``, ``verify``, ...) to
    its wall seconds, from the same tracer the ``--trace`` CLI flag
    uses; the tracer always runs here so every bench record carries a
    phase breakdown.  When ``REPRO_TRACE`` is set the trace (and, with
    ``REPRO_METRICS_OUT``, summary) is also written out.
    """
    measured = {}
    trace_path, metrics_path = _trace_env()

    def wrapped():
        reset_sim_stats()
        tracer = Tracer()
        start = time.perf_counter()
        with use_tracer(tracer):
            result = function(*args, **kwargs)
        measured["seconds"] = time.perf_counter() - start
        measured["stats"] = sim_stats()
        measured["phases"] = phase_breakdown(tracer.export(), depth=1)
        if trace_path:
            tracer.sinks.append(JsonlSink(trace_path, append=True))
            tracer.flush()
        if metrics_path:
            with open(metrics_path, "a") as handle:
                handle.write(tracer.summary() + "\n\n")
        return result

    result = benchmark.pedantic(wrapped, rounds=1, iterations=1)
    return result, measured["seconds"], measured["stats"], measured["phases"]


def record_bench(label, entry, path=None):
    """Merge one labelled entry into the benchmark JSON report.

    The file (default ``BENCH_atpg.json`` in the working directory,
    overridable via ``BENCH_ATPG_JSON``) accumulates entries across the
    tests of one run, so CI publishes a single machine-readable record.
    """
    if path is None:
        path = os.environ.get("BENCH_ATPG_JSON", "BENCH_atpg.json")
    data = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data[label] = entry
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
