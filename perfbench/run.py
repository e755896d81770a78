"""Benchmark of the paper pipelines: one workload per run.

    python3 perfbench/run.py --workload soc2-atpg --seed 3 --seconds 24 --trace 0

Run from the repository root.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines above it are a human-readable summary and a
``provenance`` record.  ``--steadiness N`` runs two alternating sets of
N runs each and compares them against the bounds in BENCHMARK.json.
See perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench"

#: The workload names, known before the program is imported so that a
#: checkout without it fails with a clear message.
WORKLOAD_NAMES = ("soc2-atpg", "soc1-cones", "tam-sweep", "tdv-model")

#: Fresh interpreters that each measure one set-up, per run.
SETUP_PROBES = 5
#: Cycles a run always measures, however long they take.
MIN_CYCLES = 2
#: A run may overshoot ``--seconds`` by this share to finish a cycle.
OVERSHOOT = 0.25
#: Seconds one subprocess may take before the run gives up on it.
PROBE_TIMEOUT = 60
RUN_TIMEOUT = 170


def _prepare_environment() -> None:
    """Make the run independent of the caller's shell and caches."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"perfbench: no program source under {ROOT / 'src'}\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))


def _setup(workload_name: str, seed: Optional[int]) -> Any:
    """Imports, backend resolution and input generation: the set-up."""
    from repro.atpg.backends import resolve_backend

    import workloads

    resolve_backend()
    return workloads.WORKLOADS[workload_name](seed)


# -- statistics -----------------------------------------------------------


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles`` cuts them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def host_probe() -> float:
    """Time of a fixed pure-Python loop: a host-speed diagnostic."""
    start = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value
    return time.perf_counter() - start


# -- provenance -----------------------------------------------------------


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: Any) -> Dict[str, Any]:
    from repro.atpg.backends import resolve_backend

    backend = resolve_backend()
    version = "n/a"
    if backend.name == "numpy":
        import numpy

        version = numpy.__version__
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "backend": backend.name,
        "backend_version": version,
        "stream": workload.config().stream,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


# -- measurement ----------------------------------------------------------


def setup_probe(workload_name: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT,
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


class Rounds:
    """Cold/warm round timings and per-round check records of one run."""

    def __init__(self, workload: Any, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        self.cold: List[float] = []
        self.warm: List[float] = []
        self.first: Any = None
        self.records: List[Tuple[int, bool, List[bool]]] = []
        self.quality: List[Dict[str, float]] = []
        self.probes: List[float] = []

    def fresh_cache(self) -> Path:
        """An empty cache directory for a cold round; samples the host."""
        self.probes.append(host_probe())
        return self.work_dir / f"cache-{len(self.probes)}"

    def timed(self, cache_dir: Path) -> float:
        """Run one round and check it; return its wall time.

        Only the first cold round's output outlives this call, so rounds
        do not hold each other's results in memory.
        """
        gc.collect()
        start = time.perf_counter()
        out = self.attempt(cache_dir)
        seconds = time.perf_counter() - start
        self.note(out)
        return seconds

    def attempt(self, cache_dir: Path) -> Any:
        """One round's output, or None if it raised (the run goes on)."""
        try:
            return self.workload.run_round(cache_dir)
        except Exception:
            traceback.print_exc()
            return None

    def note(self, out: Any) -> None:
        """Record one round's checks (outside its timing).

        ``None`` stands for a round that raised.  A round whose output
        or checks raise fails all its operations (as many as the run's
        first round had, else one).
        """
        workload = self.workload
        if out is not None:
            if self.first is None:
                self.first = out
            try:
                record = (
                    workload.operations(out),
                    workload.round_ok(out),
                    workload.same_as(out, self.first),
                )
                self.quality.append(workload.quality(out))
                self.records.append(record)
                return
            except Exception:
                traceback.print_exc()
        self.records.append((self.records[0][0] if self.records else 1, False, []))

    def cycle(self) -> None:
        """One cold round, then the workload's warm rounds on its cache."""
        cache_dir = self.fresh_cache()
        self.cold.append(self.timed(cache_dir))
        for _ in range(self.workload.warm_rounds):
            self.warm.append(self.timed(cache_dir))
        shutil.rmtree(cache_dir, ignore_errors=True)

    def outcome(self) -> Tuple[bool, int, int]:
        """(correct, attempted, failed) over every round of the run."""
        verdicts = [] if self.first is None else self.workload.verify_first(self.first)
        attempted = failed = 0
        for count, round_ok, same in self.records:
            attempted += count
            if not round_ok or count != len(verdicts):
                failed += count
                continue
            failed += sum(1 for ok, equal in zip(verdicts, same) if not (ok and equal))
        repeats = all(q == self.quality[0] for q in self.quality)
        return failed == 0 and repeats, attempted, failed


def _keep_going(elapsed: float, cycles: int, seconds: float) -> bool:
    if cycles < MIN_CYCLES:
        return True
    return elapsed + elapsed / cycles <= seconds * (1 + OVERSHOOT)


def measure(workload: Any, seconds: float, work_dir: Path) -> Tuple[Dict[str, Any], Rounds]:
    """The untraced run: end-to-end metrics.

    The ``SETUP_PROBES`` set-up samples are spread over the run, one
    whenever another share of ``seconds`` has passed, so that they see
    the host as the rounds do; their own time is not counted as
    measuring time.
    """
    rounds = Rounds(workload, work_dir)
    setups: List[float] = []
    measured = 0.0
    cycles = 0
    while _keep_going(measured, cycles, seconds):
        if len(setups) < SETUP_PROBES and measured >= len(setups) * seconds / SETUP_PROBES:
            setups.append(setup_probe(workload.name, workload.seed))
        start = time.perf_counter()
        rounds.cycle()
        measured += time.perf_counter() - start
        cycles += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload.name, workload.seed))
    metrics = {
        "setup_s": statistics.median(setups),
        "cold_s": statistics.median(rounds.cold),
        "warm_s": statistics.median(rounds.warm or rounds.cold),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, rounds


def measure_traced(
    workload: Any, seconds: float, work_dir: Path, trace_path: Path
) -> Tuple[Dict[str, Any], Rounds]:
    """The traced run: per-layer metrics, one cycle at a time.

    A cycle is one untraced cold round (the overhead baseline), then one
    traced cold round and, if the workload has a result cache, one traced
    warm round on its cache.  Per-layer values are per traced cycle,
    median over cycles.  The trace file gets the first cycle's spans.
    """
    import layers
    from repro.observability import JsonlSink, Tracer, use_tracer

    rounds = Rounds(workload, work_dir)
    untraced: List[float] = []
    traced: List[float] = []
    per_cycle: List[Dict[str, float]] = []
    exports: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while _keep_going(time.perf_counter() - started, len(per_cycle), seconds):
        cache_dir = rounds.fresh_cache()
        untraced.append(rounds.timed(cache_dir))
        shutil.rmtree(cache_dir, ignore_errors=True)

        cache_dir = rounds.fresh_cache()
        cycle: Dict[str, float] = {}
        gc_state = {"start": 0.0, "total": 0.0}

        def on_gc(phase: str, _info: Dict[str, Any]) -> None:
            if phase == "start":
                gc_state["start"] = time.perf_counter()
            else:
                gc_state["total"] += time.perf_counter() - gc_state["start"]

        wall = cpu = 0.0
        kinds = ("cold", "warm") if workload.warm_rounds else ("cold",)
        for kind in kinds:
            tracer = Tracer()
            gc.collect()
            gc.callbacks.append(on_gc)
            cpu_start = time.process_time()
            with layers.wrapped_calls(), use_tracer(tracer):
                start = time.perf_counter()
                with tracer.span("round", kind=kind, workload=workload.name):
                    out = rounds.attempt(cache_dir)
                elapsed = time.perf_counter() - start
            cpu += time.process_time() - cpu_start
            gc.callbacks.remove(on_gc)
            wall += elapsed
            if kind == "cold":
                traced.append(elapsed)
                cycle["runtime.cache_bytes"] = sum(
                    path.stat().st_size for path in cache_dir.glob("*.json")
                )
            rounds.note(out)
            del out
            export = tracer.export()
            if not per_cycle:
                exports.append(export)
            for name, value in layers.layer_metrics(export).items():
                cycle[name] = cycle.get(name, 0) + value
        shutil.rmtree(cache_dir, ignore_errors=True)
        cycle.update(layers.derived_metrics(cycle))
        cycle["experiments.self_frac"] = cycle["experiments.self_s"] / wall
        cycle["proc.cpu_s"] = cpu
        cycle["proc.gc_s"] = gc_state["total"]
        per_cycle.append(cycle)

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    sink = JsonlSink(str(trace_path))
    try:
        sink.write({"type": "provenance", **provenance(workload)})
        for export in exports:
            sink.write_trace(export)
    finally:
        sink.close()

    metrics = {
        name: statistics.median(cycle[name] for cycle in per_cycle)
        for name in per_cycle[0]
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    quality = rounds.quality[0] if rounds.quality else {}
    metrics["makespan_ratio"] = quality.get("makespan_ratio", 0.0)
    return metrics, rounds


def _load_units() -> Dict[str, Tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {}
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            units[metric["name"]] = (group, metric["unit"])
    return units


def run_once(args: argparse.Namespace) -> int:
    workload = _setup(args.workload, args.seed)
    units = _load_units()
    work_dir = WORK_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            trace_path = WORK_DIR / f"trace-{workload.name}-seed{workload.seed}.jsonl"
            metrics, rounds = measure_traced(workload, args.seconds, work_dir, trace_path)
            group = "per_layer"
        else:
            metrics, rounds = measure(workload, args.seconds, work_dir)
            group = "end_to_end"
        correct, attempted, failed = rounds.outcome()
        metrics["host.probe_s"] = statistics.median(rounds.probes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wanted = [name for name, (kind, _) in units.items() if kind == group]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    record = provenance(workload)
    record["host.probe_s"] = metrics["host.probe_s"]
    kind = "traced" if args.trace else "untraced"
    print(f"{workload.name}: {len(rounds.records)} {kind} rounds, seed {workload.seed}")
    for name, value in (rounds.quality[0] if rounds.quality else {}).items():
        print(f"  {name} = {value}")
    print(f"  failed_frac = {failed / attempted} ({failed}/{attempted} operations)")
    for name in wanted:
        print(f"  {name} = {metrics[name]:.6g} {units[name][1]}")
    if args.trace:
        print(f"  trace written to {trace_path.relative_to(ROOT)}")
    print("provenance " + json.dumps(record, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name][1]} for name in wanted
        },
    }
    print(json.dumps(result))
    return 0


# -- steadiness -----------------------------------------------------------


def _one_run(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2][len("provenance "):])
    result["host.probe_s"] = record["host.probe_s"]
    return result


def steadiness(args: argparse.Namespace) -> int:
    """Two alternating sets of runs of the same code, compared per metric.

    Run ``i`` of the ``2N`` uses seed ``default + i``; even runs form set
    A, odd runs set B.  A metric agrees when each set's spread (IQR over
    median) and the B-over-A median change stay within its bound; every
    run must also be correct.
    ``host.probe_s`` is printed per run so a shift between the sets can
    be traced to the host; it never rescales a metric.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    import workloads

    base = workloads.WORKLOADS[args.workload].default_seed
    sets: Dict[str, List[Dict[str, Any]]] = {"A": [], "B": []}
    for index in range(2 * args.steadiness):
        label = "AB"[index % 2]
        run = _one_run(args.workload, base + index, seconds)
        sets[label].append(run)
        values = " ".join(
            f"{name}={entry['value']:.4g}" for name, entry in run["metrics"].items()
        )
        print(f"run {index + 1:2d} set {label} seed {base + index}: "
              f"failed {run['failed']}/{run['attempted']} "
              f"host.probe_s={run['host.probe_s']:.4f} {values}", flush=True)

    agree_all = all(run["correct"] for runs in sets.values() for run in runs)
    print(f"{'metric':<14} {'set':<3} {'q1':>10} {'median':>10} {'q3':>10} "
          f"{'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = {}
        for label in ("A", "B", "A+B"):
            runs = sets["A"] + sets["B"] if label == "A+B" else sets[label]
            q1, median, q3 = quartiles([run["metrics"][name]["value"] for run in runs])
            medians[label] = median
            spread = (q3 - q1) / median
            if label != "A+B" and name != "setup_s" and spread > bound:
                agree_all = False
            print(f"{name:<14} {label:<3} {q1:10.5g} {median:10.5g} {q3:10.5g} "
                  f"{100 * spread:7.2f}% {100 * bound:5.1f}%")
        change = medians["B"] / medians["A"] - 1.0
        agree = abs(change) <= bound
        agree_all = agree_all and agree
        print(f"{name:<14} B vs A median change {100 * change:+.2f}% "
              f"({'agree' if agree else 'DISAGREE'})")
    probes = {label: statistics.median(run["host.probe_s"] for run in sets[label])
              for label in ("A", "B")}
    print(f"host.probe_s median: A {probes['A']:.4f}  B {probes['B']:.4f}")
    print("steady" if agree_all else "NOT steady")
    return 0 if agree_all else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N", default=0,
                        help="run two alternating sets of N runs and compare them")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare_environment()
    if args.setup_probe:
        _setup(args.workload, args.seed)
        print(time.perf_counter() - SETUP_START)
        return 0
    if args.steadiness:
        return steadiness(args)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
