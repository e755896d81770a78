"""Parallel, cache-aware, failure-hardened execution of ATPG jobs.

Per-core ATPG is embarrassingly parallel — the modularity argument of
the paper, applied to its own reproduction.  :func:`run_jobs` fans a
list of :class:`AtpgJob` values across worker processes with
``concurrent.futures``, consults the result cache (and, on resume, the
run journal) first, and returns results **in job order regardless of
worker count or completion order**, so serial and parallel runs are
bit-identical.

``workers=1`` (the default) never touches multiprocessing: jobs run
inline in submission order, which keeps library callers free of any
process-spawning side effects.  If a process pool cannot be created at
all (restricted environments), execution degrades to the same serial
path.

Failure handling is policy, not fate (:class:`ExecutionPolicy`):

* Workers run under a cooperative :class:`~repro.runtime.abort.AbortToken`
  — a per-job wall-clock deadline and/or total backtrack budget checked
  inside the engine loops.  Tripping one raises the typed
  :class:`~repro.errors.JobTimeoutError` / :class:`~repro.errors.AbortedError`.
* A crashed pool worker (a real OOM kill, or an injected
  ``chaos.crash``) poisons only the jobs in flight: the broken pool is
  rebuilt and every other job proceeds.
* ``on_error`` picks the degradation: ``"raise"`` (default — the first
  failure propagates, the historical behavior), ``"skip"`` (failed jobs
  yield ``None`` results and a ``timeout``/``failed``
  :class:`JobOutcome` in the manifest), or ``"retry"`` (failed jobs are
  re-attempted up to ``policy.max_attempts`` times with exponential
  backoff; deterministic failures retry under a perturbed seed; jobs
  still failing raise :class:`~repro.errors.JobRetriesExhaustedError`).

Every run produces a :class:`RunManifest` — one :class:`JobRecord` per
job with wall-clock time, attempt count, and a :class:`JobOutcome` —
so callers can report hit rates, failures, and where the time went.
"""

from __future__ import annotations

import enum
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..atpg.engine import AtpgResult, generate_tests
from ..circuit.netlist import Netlist
from ..errors import (
    ConfigError,
    JobFailure,
    JobRetriesExhaustedError,
    JobTimeoutError,
    WorkerCrashError,
)
from ..observability import (
    Tracer,
    get_tracer,
    phase_breakdown,
    register_counter,
    register_gauge,
    use_tracer,
)
from .abort import NULL_ABORT, AbortToken, use_abort
from .cache import AtpgResultCache, result_key
from .chaos import ChaosConfig, use_chaos
from .config import AtpgConfig
from .journal import RunJournal
from .policy import ExecutionPolicy, validate_on_error

EXECUTOR_JOBS = register_counter("executor.jobs", "ATPG jobs submitted")
EXECUTOR_EXECUTED = register_counter(
    "executor.executed", "ATPG jobs actually run (cache misses)"
)
EXECUTOR_TIMEOUTS = register_counter(
    "executor.timeouts", "job attempts that hit the deadline or budget"
)
EXECUTOR_CRASHES = register_counter(
    "executor.crashes", "job attempts lost to a dead worker process"
)
EXECUTOR_RETRIES = register_counter("executor.retries", "job retry attempts")
EXECUTOR_FAILURES = register_counter(
    "executor.failures", "jobs that exhausted every recovery path"
)
EXECUTOR_UTILIZATION = register_gauge(
    "executor.utilization",
    "busy worker-seconds / (workers x fan-out wall-clock) of the last parallel run",
)


@dataclass(frozen=True)
class AtpgJob:
    """One unit of ATPG work: a netlist under a specific configuration."""

    name: str
    netlist: Netlist
    config: AtpgConfig = AtpgConfig()


class JobOutcome(enum.Enum):
    """What ultimately happened to one job."""

    OK = "ok"
    CACHE_HIT = "cache_hit"  # cache or (on resume) journal hit
    RETRIED_OK = "retried_ok"  # succeeded after at least one failed attempt
    TIMEOUT = "timeout"  # deadline/budget tripped and no retry saved it
    FAILED = "failed"  # crashed/flaked/exhausted and no retry saved it

    @property
    def is_ok(self) -> bool:
        return self in (JobOutcome.OK, JobOutcome.CACHE_HIT, JobOutcome.RETRIED_OK)


@dataclass
class JobRecord:
    """What happened to one job: where it ran, what it cost, how it ended."""

    name: str
    circuit: str
    cache_hit: bool
    seconds: float
    pattern_count: int
    phases: Dict[str, float] = field(default_factory=dict)
    outcome: JobOutcome = JobOutcome.OK
    attempts: int = 0  # worker attempts consumed (0 for cache hits)
    error: Optional[str] = None  # final failure, as "Type: message"


@dataclass
class RunManifest:
    """Per-job accounting for one or more :func:`run_jobs` calls."""

    workers: int = 1
    records: List[JobRecord] = field(default_factory=list)

    @property
    def job_count(self) -> int:
        return len(self.records)

    @property
    def cache_hits(self) -> int:
        return sum(1 for record in self.records if record.cache_hit)

    @property
    def executed(self) -> int:
        return self.job_count - self.cache_hits

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.job_count if self.records else 0.0

    @property
    def atpg_seconds(self) -> float:
        """Wall-clock spent in actual ATPG (cache hits cost ~nothing)."""
        return sum(r.seconds for r in self.records if not r.cache_hit)

    @property
    def outcome_counts(self) -> Dict[str, int]:
        """How many jobs ended in each :class:`JobOutcome` (zero-free)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.outcome.value] = counts.get(record.outcome.value, 0) + 1
        return counts

    @property
    def failed_jobs(self) -> List[JobRecord]:
        return [r for r in self.records if not r.outcome.is_ok]

    @property
    def retry_attempts(self) -> int:
        """Extra worker attempts beyond the first, over all jobs."""
        return sum(max(0, r.attempts - 1) for r in self.records)

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Traced seconds per engine phase, summed over executed jobs.

        Empty when no job ran under an active tracer — phase timing is
        observability data, only collected when asked for.
        """
        totals: Dict[str, float] = {}
        for record in self.records:
            for name, seconds in record.phases.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def extend(self, other: "RunManifest") -> None:
        self.records.extend(other.records)

    def summary(self) -> str:
        text = (
            f"{self.job_count} ATPG jobs: {self.executed} executed "
            f"(workers={self.workers}), {self.cache_hits} cache hits "
            f"({100 * self.hit_rate:.0f}%), {self.atpg_seconds:.2f}s ATPG time"
        )
        failed = self.failed_jobs
        if failed:
            timeouts = sum(1 for r in failed if r.outcome is JobOutcome.TIMEOUT)
            text += f"; {len(failed)} NOT ok ({timeouts} timeout)"
        retries = self.retry_attempts
        if retries:
            text += f"; {retries} retries"
        phases = self.phase_seconds
        if phases:
            breakdown = ", ".join(
                f"{name} {seconds:.2f}s"
                for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1])
            )
            text += f"; phases: {breakdown}"
        return text


class _WorkerPayload(NamedTuple):
    """Everything one job attempt needs on the far side of a pickle."""

    netlist: Netlist
    config: AtpgConfig
    traced: bool
    deadline_seconds: Optional[float]
    backtrack_budget: Optional[int]
    chaos: Optional[ChaosConfig]
    name: str
    attempt: int


class _AttemptResult(NamedTuple):
    """What one job attempt produced — success or a typed failure.

    Failures travel as values, not raised exceptions, so a failed
    attempt still delivers its partial trace and timing to the parent,
    and only :class:`~repro.errors.JobFailure` is policy; any other
    exception is a bug and propagates loudly.
    """

    error: Optional[JobFailure]
    result: Optional[AtpgResult]
    seconds: float
    export: Optional[Dict[str, Any]]


def _execute(payload: _WorkerPayload, in_pool: bool = False) -> _AttemptResult:
    """Worker entry point (module-level so it pickles).

    When tracing is requested the job runs under its *own* fresh
    :class:`Tracer` — in a pool worker the fork-inherited global would
    otherwise alias the parent's (useless to mutate in a child), and in
    the serial path a private tracer keeps span depths and merge
    semantics identical to the pool path.  The exported trace rides
    back with the result for the parent to merge — on failures too, so
    a timed-out job's spans (with their ``status`` attribute) are not
    lost.

    The abort token is armed *before* the chaos hook runs: an injected
    hang burns deadline exactly like a real one, and the engine's first
    cooperative check converts it into a timeout.
    """
    token = (
        AbortToken(payload.deadline_seconds, payload.backtrack_budget)
        if payload.deadline_seconds is not None
        or payload.backtrack_budget is not None
        else NULL_ABORT
    )
    tracer = Tracer() if payload.traced else None
    error: Optional[JobFailure] = None
    result: Optional[AtpgResult] = None
    start = time.perf_counter()
    try:
        with use_abort(token):
            if payload.chaos is not None:
                payload.chaos.on_job_start(payload.name, payload.attempt, in_pool)
            if tracer is not None:
                with use_tracer(tracer):
                    result = generate_tests(payload.netlist, config=payload.config)
            else:
                result = generate_tests(payload.netlist, config=payload.config)
    except JobFailure as exc:
        error = exc
    seconds = time.perf_counter() - start
    return _AttemptResult(
        error, result, seconds, tracer.export() if tracer is not None else None
    )


def run_jobs(
    jobs: Sequence[AtpgJob],
    workers: int = 1,
    cache: Optional[AtpgResultCache] = None,
    policy: Optional[ExecutionPolicy] = None,
    on_error: str = "raise",
    journal: Optional[RunJournal] = None,
) -> Tuple[List[Optional[AtpgResult]], RunManifest]:
    """Run every job; results come back aligned with the input order.

    Journal hits (on resume) and cache hits are resolved up front and
    only the misses are fanned out; fresh results are journaled and
    stored back into the cache in job order.  Failed jobs leave a
    ``None`` in their result slot — which only a caller opting into
    ``on_error="skip"`` ever observes, since ``"raise"`` propagates the
    first failure and ``"retry"`` raises
    :class:`~repro.errors.JobRetriesExhaustedError` rather than return
    a partial batch.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    validate_on_error(on_error)
    policy = policy if policy is not None else ExecutionPolicy()
    tracer = get_tracer()
    manifest = RunManifest(workers=workers)
    results: List[Optional[AtpgResult]] = [None] * len(jobs)
    timings: List[float] = [0.0] * len(jobs)
    hits: List[bool] = [False] * len(jobs)
    phases: List[Dict[str, float]] = [{} for _ in jobs]
    attempts: List[int] = [0] * len(jobs)
    errors: List[Optional[JobFailure]] = [None] * len(jobs)
    configs: List[AtpgConfig] = [job.config for job in jobs]
    # Content keys name journal entries; the cache derives its own.
    keys: List[str] = (
        [result_key(job.netlist, job.config) for job in jobs]
        if journal is not None
        else []
    )

    pending: List[int] = []
    for index, job in enumerate(jobs):
        recalled = journal.get(keys[index]) if journal is not None else None
        if recalled is None and cache is not None:
            recalled = cache.get(job.netlist, job.config)
        if recalled is not None:
            results[index] = recalled
            hits[index] = True
        else:
            pending.append(index)

    if pending:
        with use_chaos(policy.chaos):
            _run_resilient(
                jobs, pending, workers, policy, on_error, tracer,
                results, timings, attempts, errors, configs, phases,
            )
            # Store-back happens inside the chaos scope so injected
            # cache-file corruption (corrupt_stores) lands on these
            # writes.
            for index in pending:
                result = results[index]
                if result is None:
                    continue
                if journal is not None:
                    journal.record(
                        keys[index], jobs[index].name, configs[index], result
                    )
                if cache is not None:
                    # Content-addressed: keyed by the config the result
                    # was actually produced with (perturbed on timeout
                    # retries).
                    cache.put(jobs[index].netlist, configs[index], result)

    if tracer.enabled and jobs:
        tracer.count(EXECUTOR_JOBS, len(jobs))

    first_error: Optional[Tuple[int, JobFailure]] = None
    for index, job in enumerate(jobs):
        result = results[index]
        error = errors[index]
        if result is not None:
            if hits[index]:
                outcome = JobOutcome.CACHE_HIT
            elif attempts[index] > 1:
                outcome = JobOutcome.RETRIED_OK
            else:
                outcome = JobOutcome.OK
        elif isinstance(error, JobTimeoutError):
            outcome = JobOutcome.TIMEOUT
        else:
            outcome = JobOutcome.FAILED
        if error is not None and first_error is None:
            first_error = (index, error)
        manifest.records.append(
            JobRecord(
                name=job.name,
                circuit=result.circuit_name if result is not None else job.netlist.name,
                cache_hit=hits[index],
                seconds=timings[index],
                pattern_count=result.pattern_count if result is not None else 0,
                phases=phases[index],
                outcome=outcome,
                attempts=attempts[index],
                error=f"{type(error).__name__}: {error}" if error is not None else None,
            )
        )
        if journal is not None:
            journal.note(
                name=job.name,
                circuit=manifest.records[-1].circuit,
                key=keys[index],
                pattern_count=manifest.records[-1].pattern_count
                if result is not None
                else None,
                status="ok" if result is not None else outcome.value,
            )

    if journal is not None:
        journal.write_manifest()

    if first_error is not None:
        index, error = first_error
        if tracer.enabled:
            tracer.count(EXECUTOR_FAILURES, sum(1 for e in errors if e is not None))
        if on_error == "raise":
            raise error
        if on_error == "retry":
            raise JobRetriesExhaustedError(
                f"job {jobs[index].name!r} still failing after "
                f"{attempts[index]} attempts: {type(error).__name__}: {error}"
            ) from error
        # on_error == "skip": the manifest carries the failures.

    return list(results), manifest


def _run_resilient(
    jobs: Sequence[AtpgJob],
    pending: List[int],
    workers: int,
    policy: ExecutionPolicy,
    on_error: str,
    tracer,
    results: List[Optional[AtpgResult]],
    timings: List[float],
    attempts: List[int],
    errors: List[Optional[JobFailure]],
    configs: List[AtpgConfig],
    phases: List[Dict[str, float]],
) -> None:
    """Retry-round engine: run pending jobs until done or out of policy.

    Each round fans the still-active jobs out (serially or across a
    fresh pool — fresh so a round that broke the pool cannot poison the
    next), classifies the failures, and decides per job whether another
    attempt is allowed.  Mutates the by-index accounting lists in
    place.
    """
    active = list(pending)
    retry_round = 0
    while active:
        if retry_round > 0:
            backoff = policy.backoff_for_round(retry_round)
            if backoff > 0:
                time.sleep(backoff)
        payloads = [
            _WorkerPayload(
                netlist=jobs[i].netlist,
                config=configs[i],
                traced=tracer.enabled,
                deadline_seconds=policy.deadline_seconds,
                backtrack_budget=policy.backtrack_budget,
                chaos=policy.chaos if policy.chaos.enabled else None,
                name=jobs[i].name,
                attempt=attempts[i],
            )
            for i in active
        ]
        fan_out_start = time.perf_counter()
        outcomes = _run_round(payloads, workers)
        fan_out_wall = time.perf_counter() - fan_out_start

        if tracer.enabled:
            executed = sum(1 for o in outcomes if o.error is None)
            if executed:
                tracer.count(EXECUTOR_EXECUTED, executed)
            if workers > 1 and fan_out_wall > 0 and len(payloads) > 1:
                busy = sum(o.seconds for o in outcomes)
                effective = min(workers, len(payloads))
                tracer.gauge(EXECUTOR_UTILIZATION, busy / (effective * fan_out_wall))

        next_active: List[int] = []
        for index, outcome in zip(active, outcomes):
            attempts[index] += 1
            timings[index] += outcome.seconds
            if outcome.export is not None:
                tracer.merge(outcome.export, job=jobs[index].name)
                phases[index] = phase_breakdown(outcome.export)
            if outcome.error is None:
                results[index] = outcome.result
                errors[index] = None
                continue
            error = outcome.error
            if tracer.enabled:
                if isinstance(error, JobTimeoutError):
                    tracer.count(EXECUTOR_TIMEOUTS)
                elif isinstance(error, WorkerCrashError):
                    tracer.count(EXECUTOR_CRASHES)
            errors[index] = error
            if on_error == "retry" and attempts[index] < policy.max_attempts:
                configs[index] = policy.retry_config(
                    jobs[index].config, attempts[index], error
                )
                if tracer.enabled:
                    tracer.count(EXECUTOR_RETRIES)
                next_active.append(index)
        active = next_active
        retry_round += 1


def _run_round(
    payloads: List[_WorkerPayload], workers: int
) -> List[_AttemptResult]:
    """Execute one round of payloads serially or across a process pool.

    A worker that dies mid-job breaks the whole
    ``concurrent.futures`` pool; every payload whose future the break
    swallowed — the crasher *and* any innocents queued behind it — is
    reported as a :class:`~repro.errors.WorkerCrashError` attempt so
    the retry policy can re-run it in the next round's fresh pool.
    """
    if workers == 1 or len(payloads) == 1:
        return [_execute(payload) for payload in payloads]
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
            futures = [pool.submit(_execute, payload, True) for payload in payloads]
            outcomes: List[_AttemptResult] = []
            for payload, future in zip(payloads, futures):
                try:
                    outcomes.append(future.result())
                except BrokenExecutor:
                    outcomes.append(
                        _AttemptResult(
                            WorkerCrashError(
                                f"worker process died while running "
                                f"{payload.name!r} (attempt {payload.attempt})"
                            ),
                            None,
                            0.0,
                            None,
                        )
                    )
            return outcomes
    except (OSError, PermissionError):
        # No process pool available (sandboxed/limited environments):
        # same results, just serial.
        return [_execute(payload) for payload in payloads]
