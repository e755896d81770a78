"""The TAM design-space experiment: width x scheduler x wrapper strategy.

The paper's TDV analysis deliberately abstracts the test access
mechanism away; ROADMAP item 3 grows it back.  This experiment sweeps
the wrapper/TAM co-optimizer (:mod:`repro.tam.problem`) across the full
ITC'02 suite — TAM width x scheduler (greedy baseline vs the best-fit
rectangle bin-packer) x wrapper chain strategy (deep/balanced/wide
internal chain assumptions) — and charts the three-way trade-off the
unified API exposes: test time (makespan) vs TAM width vs delivered
test data volume (idle padding included).

The sweep runs on :class:`~repro.sweeps.engine.SweepEngine`: it fans
across ``--workers``, journals shards under ``--run-dir``, resumes with
``--resume``, and streams every record through a
:class:`~repro.sweeps.aggregate.ParetoFront` — so stdout is
byte-identical no matter how the run was executed, killed, or resumed.
``--tam-widths``, ``--tam-socs`` and ``--scheduler`` scope the grid
(CI smokes run a small subset); ``--tam-front FILE`` writes the
surviving Pareto points as a JSON artifact.

Acceptance checks (EXPERIMENTS.md):

* every schedule respects its TAM width budget (verified sweep-line);
* the bin-packing scheduler's makespan is never worse than greedy's at
  every (SOC, strategy, width) — the portfolio guarantee;
* no makespan beats its problem's lower bound;
* useful bits are invariant across width and scheduler for a fixed
  (SOC, strategy) — the paper's metric must not depend on the TAM
  dimension it excludes.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from ..runtime.session import Runtime

from ..core.report import format_table
from ..sweeps import Axis, ParetoFront, SweepEngine, SweepPointSpec, SweepRunResult, SweepSpec
from .registry import experiment

DEFAULT_TAM_WIDTHS: Tuple[int, ...] = (8, 16, 24, 32, 48, 64)
DEFAULT_SCHEDULERS: Tuple[str, ...] = ("greedy", "binpack")
DEFAULT_SHARD_SIZE = len(DEFAULT_TAM_WIDTHS)

#: Wrapper strategies: how many balanced internal scan chains each core
#: is assumed to expose (the ITC'02 data fixes cells, not chains).
#: ``deep`` = one long chain per core, ``balanced`` = the default four,
#: ``wide`` = sixteen short chains.
WRAPPER_STRATEGIES: Dict[str, int] = {"deep": 1, "balanced": 4, "wide": 16}

#: The reference slice of the per-SOC table: a mid-range width under
#: the default chain assumption.
REFERENCE_WIDTH = 32
REFERENCE_STRATEGY = "balanced"


@lru_cache(maxsize=64)
def _problem_cores(soc_name: str, chain_count: int):
    """One SOC's core specs under one chain-count assumption (cached
    per worker process — every width/scheduler point reuses them).

    The cache also keeps each spec's wrapper memo alive for the life of
    the process, so a later run over the same SOC computes no wrapper
    bottleneck or staircase again."""
    from ..itc02 import load
    from ..tam import core_specs_from_soc

    return tuple(
        core_specs_from_soc(load(soc_name), default_chain_count=chain_count)
    )


def evaluate_tam_point(point: SweepPointSpec) -> Dict[str, Any]:
    """Evaluate one (soc, strategy, scheduler, width) grid point.

    Module-level and picklable; runs inside sweep worker processes.
    Deterministic arithmetic — the point seed is unused.
    """
    from ..tam import TamProblem, cooptimize

    params = point.params
    strategy = params["strategy"]
    problem = TamProblem(
        cores=_problem_cores(params["soc"], WRAPPER_STRATEGIES[strategy]),
        tam_width=params["tam_width"],
    )
    result = cooptimize(problem, scheduler=params["scheduler"])
    result.schedule.verify()
    record = result.as_record()
    record["soc"] = params["soc"]
    record["strategy"] = strategy
    record["verified"] = True
    return record


def tam_spec(
    socs: Sequence[str],
    tam_widths: Sequence[int],
    schedulers: Sequence[str],
    strategies: Sequence[str],
    seed: int,
) -> SweepSpec:
    """The declarative grid; width is the fastest axis, so one shard of
    ``len(tam_widths)`` points is one (soc, strategy, scheduler) row."""
    return SweepSpec(
        name="tam",
        axes=(
            Axis.grid("soc", list(socs)),
            Axis.grid("strategy", list(strategies)),
            Axis.grid("scheduler", list(schedulers)),
            Axis.grid("tam_width", list(tam_widths)),
        ),
        seed=seed,
    )


def _check(label: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"  check: {label}: {verdict}{suffix}")


def _by_key(
    records: List[Dict[str, Any]]
) -> Dict[Tuple[str, str, int], Dict[str, Dict[str, Any]]]:
    """(soc, strategy, width) -> scheduler -> record."""
    table: Dict[Tuple[str, str, int], Dict[str, Dict[str, Any]]] = {}
    for record in records:
        key = (record["soc"], record["strategy"], record["tam_width"])
        table.setdefault(key, {})[record["scheduler"]] = record
    return table


def run(
    verbose: bool = True,
    seed: Optional[int] = None,
    runtime: Optional["Runtime"] = None,
    tam_widths: Optional[Sequence[int]] = None,
    socs: Optional[Sequence[str]] = None,
    scheduler: Optional[str] = None,
    front_path: Optional[str] = None,
    shard_size: Optional[int] = None,
) -> SweepRunResult:
    """CLI entry point: sweep the grid, chart the front, judge the checks.

    ``scheduler`` restricts the sweep to one scheduler (the CLI's
    ``--scheduler``); by default both greedy and binpack run so the
    differential check has both sides.  ``front_path`` additionally
    writes the Pareto front as a JSON artifact.
    """
    from ..itc02 import BENCHMARK_NAMES, load_many

    widths = tuple(tam_widths) if tam_widths else DEFAULT_TAM_WIDTHS
    soc_names = tuple(socs) if socs else tuple(BENCHMARK_NAMES)
    load_many(soc_names)  # fail fast on typos, before any shard runs
    schedulers = (scheduler,) if scheduler else DEFAULT_SCHEDULERS
    strategies = tuple(WRAPPER_STRATEGIES)
    if shard_size is None:
        shard_size = len(widths)
    spec = tam_spec(soc_names, widths, schedulers, strategies,
                    seed=0 if seed is None else seed)

    front = ParetoFront(
        fields=("tam_width", "makespan", "delivered_bits"),
        keep=("soc", "strategy", "scheduler"),
    )
    engine = SweepEngine(runtime, shard_size=shard_size)
    result = engine.run(
        spec, evaluate_tam_point, aggregators=(front,), collect=True
    )
    print(f"[sweep] {result.summary()}", file=sys.stderr)
    records = result.records or []

    if front_path:
        artifact = {
            "socs": list(soc_names),
            "tam_widths": list(widths),
            "schedulers": list(schedulers),
            "strategies": {name: WRAPPER_STRATEGIES[name] for name in strategies},
            "fields": list(front.fields),
            "points": front.points(),
        }
        path = Path(front_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
        print(f"[tam] wrote Pareto front to {path}", file=sys.stderr)

    if verbose:
        _report(records, front, soc_names, widths, schedulers, strategies)
    return result


def _report(
    records: List[Dict[str, Any]],
    front: ParetoFront,
    soc_names: Sequence[str],
    widths: Sequence[int],
    schedulers: Sequence[str],
    strategies: Sequence[str],
) -> None:
    print(f"TAM co-optimization design space ({len(soc_names)} ITC'02 SOCs)")
    strategy_label = ", ".join(
        f"{name}={WRAPPER_STRATEGIES[name]}" for name in strategies
    )
    print(f"  grid: widths {list(widths)} x schedulers {list(schedulers)} "
          f"x chain strategies [{strategy_label}] = {len(records)} points")

    # Per-scheduler aggregate view.
    rows = []
    for name in schedulers:
        mine = [r for r in records if r["scheduler"] == name]
        util = sum(r["utilization"] for r in mine) / len(mine)
        gap = sum(r["makespan"] / r["lower_bound"] for r in mine) / len(mine)
        rows.append([name, f"{100 * util:.1f}%", f"{gap:.3f}"])
    print(format_table(
        ["scheduler", "mean TAM utilization", "mean makespan / lower bound"],
        rows,
    ))

    paired = _by_key(records)
    both = "greedy" in schedulers and "binpack" in schedulers

    # The reference slice: one row per SOC at a mid-range width.
    ref_width = REFERENCE_WIDTH if REFERENCE_WIDTH in widths else widths[-1]
    if both and REFERENCE_STRATEGY in strategies:
        rows = []
        for soc in soc_names:
            pair = paired.get((soc, REFERENCE_STRATEGY, ref_width), {})
            if "greedy" not in pair or "binpack" not in pair:
                continue
            greedy, packed = pair["greedy"], pair["binpack"]
            saving = 1.0 - packed["makespan"] / greedy["makespan"]
            rows.append([
                soc,
                f"{greedy['makespan']:,}",
                f"{packed['makespan']:,}",
                f"{100 * saving:.1f}%",
                f"{100 * packed['idle_fraction']:.1f}%",
            ])
        print(f"  reference slice: width {ref_width}, "
              f"{REFERENCE_STRATEGY} chains")
        print(format_table(
            ["soc", "greedy makespan", "binpack makespan",
             "time saved", "binpack idle bits"],
            rows,
        ))

    print(f"  Pareto front (width, makespan, TDV): "
          f"{len(front.points())} non-dominated of {front.count} points")

    # -- acceptance checks ----------------------------------------------
    verified = sum(1 for r in records if r.get("verified"))
    _check(
        "every schedule respects its TAM width budget",
        verified == len(records),
        f"{verified}/{len(records)} verified",
    )
    if both:
        comparisons = [
            (key, pair) for key, pair in sorted(paired.items())
            if "greedy" in pair and "binpack" in pair
        ]
        not_worse = [
            key for key, pair in comparisons
            if pair["binpack"]["makespan"] <= pair["greedy"]["makespan"]
        ]
        strictly = [
            key for key, pair in comparisons
            if pair["binpack"]["makespan"] < pair["greedy"]["makespan"]
        ]
        _check(
            "binpack makespan <= greedy at every (soc, strategy, width)",
            len(not_worse) == len(comparisons),
            f"{len(not_worse)}/{len(comparisons)}, "
            f"strictly better on {len(strictly)}",
        )
    else:
        print("  check: binpack makespan <= greedy: skipped "
              "(single-scheduler run)")
    bounded = sum(1 for r in records if r["makespan"] >= r["lower_bound"])
    _check(
        "no makespan beats its lower bound",
        bounded == len(records),
        f"{bounded}/{len(records)}",
    )
    useful_variants = {
        (r["soc"], r["strategy"]): set() for r in records
    }
    for r in records:
        useful_variants[(r["soc"], r["strategy"])].add(r["useful_bits"])
    invariant = all(len(seen) == 1 for seen in useful_variants.values())
    _check(
        "useful bits invariant across width and scheduler "
        "(the paper's metric ignores the TAM)",
        invariant,
    )


experiment("tam", order=65)(run)
