"""The shared CLI flag registry behind every ``repro`` subcommand.

One unified ``repro`` command fronts the whole reproduction — ``repro
run`` (single-netlist ATPG), ``repro vectors``, ``repro experiments``
— and they agree on flags because the flags are defined exactly once,
here, as ``add_*_arguments(parser)`` groups plus the matching
``*_from_args`` constructors:

=============================  ========================================
:func:`add_runtime_arguments`  ``--workers --cache-dir --no-cache
                               --trace --metrics --deadline
                               --retries --on-error --run-dir
                               --resume --profile``
                               (execution, shared by every
                               ATPG-running subcommand)
:func:`add_experiment_arguments`  experiment-specific knobs
                               (``--tam-widths``, ...)
=============================  ========================================
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from .runtime.session import Runtime

# -- shared validators --------------------------------------------------


def _parsed(kind: type, text: str, expected: str):
    # argparse would report a ValueError as "invalid <function> value",
    # naming the validator instead of what the flag expects.
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")


def positive_int(text: str) -> int:
    """An ``int`` of at least 1 (``--workers``, ``repro vectors --chains``)."""
    value = _parsed(int, text, "an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _retry_count(text: str) -> int:
    value = _parsed(int, text, "an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _deadline_seconds(text: str) -> float:
    value = _parsed(float, text, "a number")
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds > 0, got {text}"
        )
    return value


def _int_list(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _str_list(text: str) -> List[str]:
    values = [part.strip() for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one name")
    return values


# -- runtime execution flags --------------------------------------------


def add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """The execution flags shared by every ATPG-running subcommand."""
    parser.add_argument(
        "--workers", type=positive_int, default=1, metavar="N",
        help="worker processes for per-core/per-circuit ATPG fan-out "
             "(default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="ATPG result cache directory (default: $REPRO_CACHE_DIR "
             "or ~/.cache/repro/atpg)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the ATPG result cache entirely",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a JSONL span/counter trace of the whole run to FILE",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the telemetry summary table to stderr after the run",
    )
    parser.add_argument(
        "--deadline", type=_deadline_seconds, default=None, metavar="SECONDS",
        help="per-job wall-clock deadline; a job past it aborts "
             "cooperatively with a timeout (default: none)",
    )
    parser.add_argument(
        "--retries", type=_retry_count, default=None, metavar="N",
        help="re-attempt failed jobs up to N extra times (implies "
             "--on-error retry; timeouts retry under a perturbed seed)",
    )
    parser.add_argument(
        "--on-error", choices=("raise", "skip", "retry"), default="raise",
        help="what a failed job does to the run: raise (default), skip "
             "(record and continue), or retry",
    )
    parser.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="journal every completed job to DIR (jobs/ + manifest.json) "
             "so a killed run can be resumed",
    )
    parser.add_argument(
        "--profile", default=None, metavar="FILE",
        help="run under cProfile and dump pstats data to FILE "
             "(parent process only; inspect with python -m pstats FILE)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume the run journaled in --run-dir: journaled jobs are "
             "skipped, output is bit-identical to an uninterrupted run",
    )


def runtime_from_args(args: argparse.Namespace, seed: Optional[int] = None) -> Runtime:
    """Build the Runtime the shared flags describe."""
    return Runtime.from_flags(
        workers=args.workers,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        seed=seed,
        trace=args.trace,
        metrics=args.metrics,
        deadline=args.deadline,
        retries=args.retries,
        on_error=args.on_error,
        run_dir=args.run_dir,
        resume=args.resume,
    )


def report_runtime(runtime: Runtime) -> None:
    """Print the run manifest and telemetry to stderr (stdout carries
    only tables)."""
    if runtime.manifest.job_count:
        print(f"[runtime] {runtime.summary()}", file=sys.stderr)
    tracer = runtime.tracer
    if tracer is None:
        return
    if runtime.metrics_requested:
        print(f"[metrics]\n{tracer.summary()}", file=sys.stderr)
    tracer.flush()
    if runtime.trace_path:
        print(f"[trace] wrote {runtime.trace_path}", file=sys.stderr)


@contextmanager
def maybe_profile(args: argparse.Namespace):
    """cProfile the enclosed block when ``--profile FILE`` was given.

    The pstats dump lands on FILE even if the block raises, so a
    profile of a run that died at its deadline is still inspectable.
    Worker processes are not profiled — run with ``--workers 1`` to
    see the whole flow in one profile.
    """
    path = getattr(args, "profile", None)
    if not path:
        yield
        return
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        print(f"[profile] wrote {path}", file=sys.stderr)


# -- experiment flags ---------------------------------------------------


def add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    """Experiment-specific flags (each maps to one experiment's kwarg)."""
    from .tam import SCHEDULERS

    group = parser.add_argument_group("tam experiment")
    group.add_argument(
        "--tam-widths", type=_int_list, default=None, metavar="W,W,...",
        help="TAM widths to sweep, comma-separated "
             "(default: 8,16,24,32,48,64)",
    )
    group.add_argument(
        "--tam-socs", type=_str_list, default=None, metavar="SOC,SOC,...",
        help="ITC'02 SOCs to sweep, comma-separated "
             "(default: the full ten-SOC suite)",
    )
    group.add_argument(
        "--scheduler", choices=SCHEDULERS, default=None,
        help="restrict the sweep to one test scheduler "
             "(default: greedy and binpack, so their makespans compare)",
    )
    group.add_argument(
        "--tam-front", default=None, metavar="FILE",
        help="write the surviving (width, makespan, TDV) Pareto front "
             "as a JSON artifact to FILE",
    )


def experiment_options(args: argparse.Namespace) -> Dict[str, Any]:
    """The experiment keyword options the parsed flags describe."""
    mapping = {
        "tam_widths": getattr(args, "tam_widths", None),
        "socs": getattr(args, "tam_socs", None),
        "scheduler": getattr(args, "scheduler", None),
        "front_path": getattr(args, "tam_front", None),
    }
    return {key: value for key, value in mapping.items() if value is not None}
