"""The unified ``repro`` command-line tool.

Every entry point of the reproduction is a subcommand here::

    repro tdv <design.soc>            TDV analysis of an SOC description
    repro run <design.bench>          run the ATPG flow on a netlist
    repro vectors <design.bench>      ATPG + scan-vector export
    repro itc02 [name]                list / inspect the benchmark SOCs
    repro experiments <name>          regenerate a paper table/figure
    repro figures <dir>               write the SVG figures

(``repro atpg`` remains as an alias of ``repro run``.)

The ATPG-running subcommands (``run``, ``vectors``, ``experiments``)
share the :mod:`repro.runtime` execution flags — ``--workers`` for
process-parallel fan-out, ``--cache-dir`` / ``--no-cache`` for the
content-addressed result cache — and report the run manifest on
stderr.  All flag groups come from the shared registry
:mod:`repro.flags`, so every subcommand spells every knob the same
way.  Everything prints plain text; exit status is non-zero on bad
input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .atpg import dump_vectors, export_program
from .circuit import netlist_stats
from .core import decompose, soc_table, summarize
from .errors import ReproError
from .experiments.runner import EXPERIMENTS, run_experiments
from .flags import (
    add_experiment_arguments,
    add_runtime_arguments,
    experiment_options,
    maybe_profile,
    positive_int,
    report_runtime,
    runtime_from_args,
)
from .io import load_netlist, load_soc
from .itc02 import benchmark_names, load
from .itc02.stats import explain_outcome, suite_report
from .soc.diagram import hierarchy_summary, hierarchy_tree


def _cmd_tdv(args: argparse.Namespace) -> int:
    soc = load_soc(args.design)
    if args.json:
        from .core.serialization import analysis_report, dumps

        print(dumps(analysis_report(soc, monolithic_patterns=args.mono_patterns)))
        return 0
    # Summarized first: a --mono-patterns below the Eq. 2 bound is then
    # refused before anything reaches stdout.
    summary = summarize(soc, monolithic_patterns=args.mono_patterns)
    print(hierarchy_summary(soc))
    print()
    print(soc_table(soc, actual_monolithic_patterns=args.mono_patterns))
    print(f"\nTDV monolithic: {summary.tdv_monolithic:,} bits "
          f"(T_mono = {summary.monolithic_patterns})")
    print(f"TDV modular:    {summary.tdv_modular:,} bits "
          f"({100 * summary.modular_change_fraction:+.1f}%)")
    decomposition = decompose(soc, monolithic_patterns=args.mono_patterns)
    print(f"penalty {decomposition.penalty:,} / benefit "
          f"{decomposition.benefit_identity:,} "
          f"(chip-I/O residual {decomposition.residual:,})")
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    netlist = load_netlist(args.design)
    print(f"{netlist.name}: {netlist_stats(netlist)}")
    runtime = runtime_from_args(args, seed=args.seed)
    result = runtime.generate(netlist)
    report_runtime(runtime)
    print(f"patterns: {result.pattern_count} "
          f"(random {result.random_pattern_count}, deterministic "
          f"{result.deterministic_pattern_count} from "
          f"{result.pre_compaction_count} pre-compaction)")
    print(f"fault coverage: {100 * result.fault_coverage:.2f}% "
          f"({result.detected_count}/{result.fault_count} collapsed faults, "
          f"{len(result.untestable)} untestable, {len(result.aborted)} aborted)")
    return 0


def _cmd_vectors(args: argparse.Namespace) -> int:
    netlist = load_netlist(args.design)
    runtime = runtime_from_args(args, seed=args.seed)
    result = runtime.generate(netlist)
    program = export_program(netlist, result, chain_count=args.chains)
    report_runtime(runtime)
    text = dump_vectors(program)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {program.pattern_count} patterns "
              f"({program.total_bits():,} bits) to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_itc02(args: argparse.Namespace) -> int:
    if args.name is None:
        print(suite_report())
        return 0
    if args.name not in benchmark_names():
        print(f"unknown benchmark {args.name!r}; known: "
              f"{', '.join(benchmark_names())}", file=sys.stderr)
        return 2
    soc = load(args.name)
    print(hierarchy_tree(soc))
    print()
    print(explain_outcome(soc))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    runtime = runtime_from_args(args)
    names = EXPERIMENTS if args.name == "all" else (args.name,)
    run_experiments(names, seed=args.seed, runtime=runtime,
                    options=experiment_options(args))
    report_runtime(runtime)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .experiments.figures import generate_figures

    written = generate_figures(args.out_dir)
    for name, path in written.items():
        print(f"wrote {name}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Modular SOC testing TDV analysis (DATE 2008 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    tdv = subparsers.add_parser("tdv", help="TDV analysis of a .soc file")
    tdv.add_argument("design", help="path to a .soc SOC description")
    tdv.add_argument("--mono-patterns", type=int, default=None,
                     help="measured monolithic pattern count (default: Eq. 2 bound)")
    tdv.add_argument("--json", action="store_true",
                     help="emit the full analysis as JSON instead of tables")
    tdv.set_defaults(func=_cmd_tdv)

    run = subparsers.add_parser(
        "run", aliases=["atpg"], help="run ATPG on a .bench netlist"
    )
    run.add_argument("design", help="path to a .bench netlist")
    run.add_argument("--seed", type=int, default=0)
    add_runtime_arguments(run)
    run.set_defaults(func=_cmd_atpg)

    vectors = subparsers.add_parser(
        "vectors", help="ATPG plus scan-vector export for a .bench netlist"
    )
    vectors.add_argument("design")
    vectors.add_argument("--seed", type=int, default=0)
    vectors.add_argument("--chains", type=positive_int, default=1, metavar="N",
                         help="scan chains to export (default: 1)")
    vectors.add_argument("-o", "--output", default=None)
    add_runtime_arguments(vectors)
    vectors.set_defaults(func=_cmd_vectors)

    itc02 = subparsers.add_parser("itc02", help="inspect the ITC'02 benchmarks")
    itc02.add_argument("name", nargs="?", default=None,
                       help="SOC name; omit for the suite overview")
    itc02.set_defaults(func=_cmd_itc02)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate a paper table/figure"
    )
    experiments.add_argument("name", choices=EXPERIMENTS + ("all",))
    experiments.add_argument("--seed", type=int, default=None,
                             help="threaded into every experiment (default: "
                                  "each experiment's historical seed)")
    add_runtime_arguments(experiments)
    add_experiment_arguments(experiments)
    experiments.set_defaults(func=_cmd_experiments)

    figures = subparsers.add_parser(
        "figures", help="write the reproduction's SVG figures"
    )
    figures.add_argument("out_dir", nargs="?", default="figures")
    figures.set_defaults(func=_cmd_figures)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # maybe_profile is a no-op for subcommands without the shared
        # runtime flags (no --profile attribute).
        with maybe_profile(args):
            return args.func(args)
    except BrokenPipeError:
        # Output piped into head/less and closed early — not an error.
        sys.stderr.close()
        return 0
    except ReproError as error:
        # Bad input or a refused run: one line, not a traceback.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
