"""The runtime facade the experiments and CLI program against.

A :class:`Runtime` bundles the execution policies — default
:class:`~repro.runtime.config.AtpgConfig`, result cache, worker count,
and (optionally) a tracer — behind two calls: :meth:`Runtime.generate`
for one netlist and :meth:`Runtime.map` for a batch.  ``Runtime()``
with no arguments is the neutral element: serial, uncached, default
config, ambient tracer — exactly a direct
:func:`repro.atpg.engine.generate_tests` call, which is why library
entry points can take ``runtime=None`` and behave as before.

The runtime accumulates a :class:`~repro.runtime.executor.RunManifest`
across calls, so a whole experiment (many ``map``/``generate`` calls)
reports one hit rate and one ATPG wall-clock total; with tracing on,
the manifest additionally carries per-phase breakdowns and the tracer
collects the merged per-job spans.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, List, Optional, Sequence

from ..atpg.engine import AtpgResult
from ..circuit.netlist import Netlist
from ..errors import ConfigError
from ..observability import JsonlSink, Tracer, get_tracer, use_tracer
from .cache import AtpgResultCache, default_cache_dir
from .chaos import ChaosConfig
from .config import AtpgConfig
from .executor import AtpgJob, RunManifest, run_jobs
from .journal import RunJournal
from .policy import ExecutionPolicy, validate_on_error


class Runtime:
    """Execution policy for ATPG work: config defaults, cache, workers.

    ``tracer=None`` (the default) means "whatever tracer is ambient at
    call time" — usually the :class:`~repro.observability.NullTracer`,
    so tracing costs nothing unless somebody opted in.  Passing a
    :class:`~repro.observability.Tracer` pins telemetry for every call
    made through this runtime.

    ``policy`` (an :class:`~repro.runtime.policy.ExecutionPolicy`) and
    ``on_error`` set the failure handling for every batch run through
    this runtime; ``journal`` (a :class:`~repro.runtime.journal.RunJournal`)
    makes each completed job durable and enables ``--resume``.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[AtpgResultCache] = None,
        config: Optional[AtpgConfig] = None,
        tracer: Optional[Tracer] = None,
        policy: Optional[ExecutionPolicy] = None,
        on_error: str = "raise",
        journal: Optional[RunJournal] = None,
    ):
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        validate_on_error(on_error)
        self.workers = workers
        self.cache = cache
        self.config = config if config is not None else AtpgConfig()
        self.tracer = tracer
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.on_error = on_error
        self.journal = journal
        self.manifest = RunManifest(workers=workers)
        # Set by from_flags so report helpers know what the user asked for.
        self.metrics_requested = False
        self.trace_path: Optional[str] = None

    @classmethod
    def from_flags(
        cls,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        no_cache: bool = False,
        seed: Optional[int] = None,
        config: Optional[AtpgConfig] = None,
        trace: Optional[str] = None,
        metrics: bool = False,
        deadline: Optional[float] = None,
        retries: Optional[int] = None,
        on_error: str = "raise",
        run_dir: Optional[str] = None,
        resume: bool = False,
        backend: Optional[str] = None,
    ) -> "Runtime":
        """Build a runtime from the shared CLI flags.

        Caching is on by default (``--no-cache`` turns it off); the
        directory is ``--cache-dir``, else ``$REPRO_CACHE_DIR``, else
        ``~/.cache/repro/atpg``.  ``seed`` overrides only the seed of
        the base ``config`` (a fresh default one if not given), so
        non-default config fields survive the flag plumbing.  ``trace``
        (a JSONL path) and ``metrics`` both switch on a real tracer.

        Resilience flags: ``deadline`` (per-job seconds, ``--deadline``)
        and ``retries`` (extra attempts per job, ``--retries``; implies
        ``on_error="retry"`` unless a mode was set explicitly) populate
        the :class:`ExecutionPolicy`; fault injection comes from the
        ``$REPRO_CHAOS`` environment variable — execution policy, never
        run identity, so cache keys are untouched.  ``run_dir``
        (``--run-dir``) journals every completed job there; ``resume``
        (``--resume``) additionally treats journaled jobs as instant
        hits.
        """
        cache = None
        if not no_cache:
            cache = AtpgResultCache(cache_dir if cache_dir else default_cache_dir())
        base = config if config is not None else AtpgConfig()
        resolved = base if seed is None else base.with_seed(seed)
        if backend is not None:
            # Kernel backend (--backend): execution detail, validated by
            # AtpgConfig but excluded from its fingerprint — cache keys
            # and results are backend-invariant.
            resolved = replace(resolved, backend=backend)
        tracer = None
        if trace or metrics:
            tracer = Tracer()
            if trace:
                tracer.sinks.append(JsonlSink(trace))
        if retries is not None and on_error == "raise":
            on_error = "retry"
        policy = ExecutionPolicy(
            deadline_seconds=deadline,
            max_attempts=(retries + 1) if retries is not None else 3,
            chaos=ChaosConfig.from_env(),
        )
        journal = None
        if run_dir or resume:
            if not run_dir:
                raise ConfigError("--resume needs a run directory (--run-dir)")
            journal = RunJournal(run_dir, resume=resume)
        runtime = cls(
            workers=workers,
            cache=cache,
            config=resolved,
            tracer=tracer,
            policy=policy,
            on_error=on_error,
            journal=journal,
        )
        runtime.metrics_requested = metrics
        runtime.trace_path = trace
        return runtime

    def _active_tracer(self):
        return self.tracer if self.tracer is not None else get_tracer()

    @contextmanager
    def activate(self) -> Iterator:
        """Make this runtime's tracer ambient for a ``with`` block.

        Code inside the block — including direct ``generate_tests``
        calls that never see the runtime — reports to the same tracer.
        A no-op (ambient tracer unchanged) when the runtime has none.
        """
        with use_tracer(self._active_tracer()) as tracer:
            yield tracer

    def generate(
        self,
        netlist: Netlist,
        config: Optional[AtpgConfig] = None,
        name: Optional[str] = None,
    ) -> AtpgResult:
        """Run (or recall) ATPG on one netlist."""
        job = AtpgJob(
            name=name or netlist.name,
            netlist=netlist,
            config=config if config is not None else self.config,
        )
        return self.map([job])[0]

    def map(self, jobs: Sequence[AtpgJob]) -> List[AtpgResult]:
        """Run a batch of jobs; results align with the input order.

        Under ``on_error="skip"`` a failed job's slot holds ``None``;
        under the other modes every returned result is real (failures
        raise instead).
        """
        with self.activate():
            results, manifest = run_jobs(
                jobs,
                workers=self.workers,
                cache=self.cache,
                policy=self.policy,
                on_error=self.on_error,
                journal=self.journal,
            )
        self.manifest.extend(manifest)
        return results

    def summary(self) -> str:
        return self.manifest.summary()


def ensure_runtime(runtime: Optional[Runtime]) -> Runtime:
    """The given runtime, or the neutral serial/uncached one."""
    return runtime if runtime is not None else Runtime()
