"""The four workloads: their inputs, the timed call, and the output checks.

Every workload drives a paper pipeline through its public entry point,
serially (``workers=1``), one call per round.  A *cold* round runs on a
fresh :class:`~repro.runtime.Runtime` over an empty cache directory; a
*warm* round repeats the same call on a fresh ``Runtime`` over the
directory the cold round filled, so the disk tier is read and the
memory tier starts empty.  tam-sweep and tdv-model use no result
cache: a warm round would repeat the cold one exactly, so they run
cold rounds only and every round counts as both.

An *operation* is the unit ``failed``/``attempted`` count: one ATPG job,
one TAM grid point, or one population SOC.  A check that covers a whole
round fails every operation of that round.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.atpg import CompiledCircuit, collapse_faults, fault_coverage
from repro.atpg.engine import AtpgResult, per_cone_pattern_counts
from repro.core.tdv import tdv_monolithic
from repro.experiments import runner as _runner  # noqa: F401 (registers every experiment)
from repro.experiments.registry import get as get_experiment
from repro.runtime import AtpgConfig, Runtime
from repro.runtime.cache import AtpgResultCache
from repro.runtime.executor import AtpgJob
from repro.synth.socgen import elaborate, soc1_design

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: tdv-model's population size (the ``population`` CLI default is 1000).
POPULATION_N = 5000


class RecordingRuntime(Runtime):
    """A :class:`Runtime` that keeps every (job, result) pair it ran.

    The runners hand back only what their report needs; the checks need
    each ATPG job's full result.
    """

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.outputs: List[Tuple[AtpgJob, AtpgResult]] = []

    def map(self, jobs: Sequence[AtpgJob]) -> List[AtpgResult]:
        results = super().map(jobs)
        self.outputs.extend(zip(jobs, results))
        return results


class RoundOutput(NamedTuple):
    """What one round produced: the runner's value, its stdout and jobs."""

    value: Any
    stdout: str
    jobs: List[Tuple[AtpgJob, AtpgResult]]


def load_references() -> Dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text())


class Workload:
    """One workload at one seed; subclasses fill in the call and checks."""

    name = ""
    default_seed = 0
    #: Warm rounds run after each cold round; 0 for a workload without
    #: a result cache, whose rounds then count as cold and warm alike.
    warm_rounds = 0

    def __init__(self, seed: Optional[int] = None, **sizes: Any) -> None:
        self.seed = self.default_seed if seed is None else seed
        self.sizes = sizes
        self.setup()

    # -- inputs and the timed call -------------------------------------

    def setup(self) -> None:
        """Input generation done once per process, outside the rounds."""

    def runtime(self, cache_dir: Path) -> RecordingRuntime:
        return RecordingRuntime(cache=AtpgResultCache(cache_dir), config=self.config())

    def config(self) -> AtpgConfig:
        return AtpgConfig(seed=self.seed)

    def call(self, runtime: RecordingRuntime) -> Any:
        raise NotImplementedError

    def run_round(self, cache_dir: Path) -> RoundOutput:
        """One round with stdout and stderr captured in memory."""
        runtime = self.runtime(cache_dir)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            value = self.call(runtime)
        return RoundOutput(value, sink.getvalue(), runtime.outputs)

    # -- checks ----------------------------------------------------------

    def operations(self, out: RoundOutput) -> int:
        raise NotImplementedError

    def verify_first(self, first: RoundOutput) -> List[bool]:
        """Expensive per-operation checks, run once on the first cold round.

        Later rounds pass only if they equal the first one, so these
        verdicts carry over to them.
        """
        return [True] * self.operations(first)

    def round_ok(self, out: RoundOutput) -> bool:
        """Checks over the whole round (any failure fails every operation)."""
        return True

    def same_as(self, out: RoundOutput, first: RoundOutput) -> List[bool]:
        """Per-operation equality with the first cold round of the run."""
        return [out.stdout == first.stdout] * self.operations(out)

    def quality(self, out: RoundOutput) -> Dict[str, float]:
        """Deterministic outcome figures (pattern counts, makespan ratio)."""
        return {}


class _AtpgWorkload(Workload):
    """Shared checks of the two ATPG workloads (one operation per job)."""

    def operations(self, out: RoundOutput) -> int:
        return len(out.jobs)

    def verify_first(self, first: RoundOutput) -> List[bool]:
        reference = None
        if self.seed == self.default_seed:
            reference = load_references()[self.name]["jobs"]
        return [
            check_job(job, result, reference.get(job.name) if reference else None)
            for job, result in first.jobs
        ]

    def same_as(self, out: RoundOutput, first: RoundOutput) -> List[bool]:
        if len(out.jobs) != len(first.jobs):
            return [False] * len(out.jobs)
        return [
            job.name == ref_job.name and result == ref_result
            for (job, result), (ref_job, ref_result) in zip(out.jobs, first.jobs)
        ]

    def quality(self, out: RoundOutput) -> Dict[str, float]:
        return {"patterns": sum(result.pattern_count for _, result in out.jobs)}


def check_job(
    job: AtpgJob, result: AtpgResult, reference: Optional[Dict[str, float]]
) -> bool:
    """Re-simulate one job's pattern set and hold it to its claims.

    The independent fault simulation over the collapsed fault list must
    detect exactly as many faults as the result claims; against a
    recorded reference, coverage may not fall and aborts may not rise.
    """
    circuit = CompiledCircuit(job.netlist)
    faults = collapse_faults(circuit)
    if not faults or len(faults) != result.fault_count or not result.test_set.patterns:
        return False
    coverage = fault_coverage(circuit, result.test_set.as_trit_dicts(circuit), faults)
    if round(coverage * len(faults)) != result.detected_count:
        return False
    if reference is not None:
        if result.fault_coverage < reference["coverage"]:
            return False
        if len(result.aborted) > reference["aborted"]:
            return False
    return True


class Soc2Atpg(_AtpgWorkload):
    """The ``table2`` runner: ATPG on SOC2's cores, glue and flat SOC."""

    name = "soc2-atpg"
    default_seed = 3
    warm_rounds = 2

    def call(self, runtime: RecordingRuntime) -> Any:
        return get_experiment("table2").run(seed=self.seed, runtime=runtime)

    def round_ok(self, out: RoundOutput) -> bool:
        experiment = out.value
        decomposition = experiment.decomposition
        mono_tdv = tdv_monolithic(experiment.soc, experiment.monolithic_patterns)
        return (
            experiment.monolithic_patterns > experiment.max_core_patterns  # Eq. 2
            and decomposition.tdv_modular < mono_tdv
            and decomposition.identity_holds()  # Eq. 6
        )


class Soc1Cones(_AtpgWorkload):
    """``per_cone_pattern_counts`` over SOC1's flattened netlist.

    The netlist is SOC1 elaborated at the default seed; ``--seed`` is
    the ATPG seed.  Elaborating at each seed would change the circuit,
    and with it the round time by up to 15 %, which a spread taken
    across seeds would count as noise.
    """

    name = "soc1-cones"
    default_seed = 3
    warm_rounds = 3

    def setup(self) -> None:
        design = soc1_design()
        elaborate(design, seed=self.default_seed)
        self.netlist = design.monolithic

    def config(self) -> AtpgConfig:
        return AtpgConfig(seed=self.seed, backtrack_limit=50)

    def call(self, runtime: RecordingRuntime) -> Any:
        return per_cone_pattern_counts(self.netlist, runtime=runtime)

    def round_ok(self, out: RoundOutput) -> bool:
        counts = out.value
        produced = {job.netlist.outputs[0]: result.pattern_count for job, result in out.jobs}
        return all(counts[output] == count for output, count in produced.items())


def _all_pass(stdout: str, expected: int) -> bool:
    """Whether the report prints exactly ``expected`` checks, all PASS."""
    lines = [line for line in stdout.splitlines() if line.strip().startswith("check:")]
    return len(lines) == expected and all(": PASS" in line for line in lines)


class TamSweep(Workload):
    """The ``tam`` runner's default grid (deterministic; the seed is unused)."""

    name = "tam-sweep"
    default_seed = 0

    def call(self, runtime: RecordingRuntime) -> Any:
        return get_experiment("tam").run(
            seed=self.seed, runtime=runtime, **self.sizes
        )

    def operations(self, out: RoundOutput) -> int:
        return len(out.value.records)

    def round_ok(self, out: RoundOutput) -> bool:
        return _all_pass(out.stdout, 4)

    def verify_first(self, first: RoundOutput) -> List[bool]:
        return [
            bool(record.get("verified"))
            and record["makespan"] >= record["lower_bound"] > 0
            for record in first.value.records
        ]

    def same_as(self, out: RoundOutput, first: RoundOutput) -> List[bool]:
        records, ref = out.value.records, first.value.records
        if len(records) != len(ref):
            return [False] * len(records)
        return [a == b for a, b in zip(records, ref)]

    def quality(self, out: RoundOutput) -> Dict[str, float]:
        records = out.value.records
        return {
            "makespan_ratio": sum(r["makespan"] / r["lower_bound"] for r in records)
            / len(records)
        }


class TdvModel(Workload):
    """The ``population`` runner: the TDV model over N synthetic SOCs."""

    name = "tdv-model"
    default_seed = 11

    def call(self, runtime: RecordingRuntime) -> Any:
        return get_experiment("population").run(
            seed=self.seed,
            runtime=runtime,
            samples=self.sizes.get("samples", POPULATION_N),
        )

    def operations(self, out: RoundOutput) -> int:
        return out.value.point_count

    def round_ok(self, out: RoundOutput) -> bool:
        if not _all_pass(out.stdout, 2):
            return False
        if self.seed == self.default_seed and not self.sizes:
            return out.stdout == load_references()[self.name]["report"]
        return True


WORKLOADS = {
    cls.name: cls for cls in (Soc2Atpg, Soc1Cones, TamSweep, TdvModel)
}


def record_references() -> Dict[str, Any]:
    """Rebuild reference.json's content from one cold round per workload.

    References hold only the default seeds.  Re-record them only with a
    change that is meant to alter the program's output.
    """
    import tempfile

    references: Dict[str, Any] = {}
    with tempfile.TemporaryDirectory(dir=REFERENCE_PATH.parent) as scratch:
        for cls in (Soc2Atpg, Soc1Cones):
            out = cls().run_round(Path(scratch) / cls.name)
            references[cls.name] = {
                "jobs": {
                    job.name: {
                        "coverage": result.fault_coverage,
                        "aborted": len(result.aborted),
                    }
                    for job, result in out.jobs
                }
            }
        out = TdvModel().run_round(Path(scratch) / TdvModel.name)
        references[TdvModel.name] = {"report": out.stdout}
    return references
