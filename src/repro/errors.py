"""Typed exception hierarchy for the whole package.

Every error the package raises deliberately derives from
:class:`ReproError`, so callers can catch one base for "anything this
library objected to" while still discriminating precisely.  The
hierarchy is *additive*: classes that used to be (or subclass) bare
``ValueError`` / ``KeyError`` keep those parents, so existing
``except ValueError`` call sites continue to work unchanged.

Layering: this module imports nothing from the rest of ``repro`` — it
sits below :mod:`repro.observability` and :mod:`repro.runtime.config`
so any layer (parsers, ATPG kernels, runtime, CLIs) can raise typed
errors without cycles.

The job-failure branch (:class:`JobFailure` and subclasses) is the
vocabulary of the resilient executor
(:mod:`repro.runtime.executor`): workers raise them, the retry policy
classifies them (``transient`` / ``retry_with_new_seed``), and the
per-job :class:`~repro.runtime.executor.JobRecord` records them as
outcomes.  They must stay picklable — they cross process-pool
boundaries — which is why they carry only their message string.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class of every deliberate error raised by the package."""


class ConfigError(ReproError, ValueError):
    """An invalid configuration value (worker counts, engine knobs...)."""


# -- input parsing -----------------------------------------------------------


class NetlistParseError(ReproError, ValueError):
    """Base of the netlist loader errors (.bench, structural Verilog,
    structural validation).  ``repro.circuit`` raises subclasses
    (``BenchFormatError``, ``VerilogFormatError``, ``NetlistError``)."""


class SocFormatError(ReproError, ValueError):
    """Raised on malformed SOC-description input; carries the offending
    line number when one is known."""

    def __init__(self, message: str, line_number: Optional[int] = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class UnknownBenchmarkError(ReproError, KeyError):
    """An ITC'02 benchmark name outside the shipped suite."""

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument; keep the readable message.
        return self.args[0] if self.args else ""


# -- caching and checkpointing ----------------------------------------------


class CacheCorruptionError(ReproError, ValueError):
    """A cache or journal entry whose content cannot be trusted.

    The stores never let this escape a lookup: the offending file is
    quarantined and the lookup reports a miss so the result is
    recomputed.  The class exists so the quarantine path has a typed
    cause to log and count.
    """


# -- test scheduling ---------------------------------------------------------


class ScheduleError(ReproError, AssertionError):
    """A test schedule violated a resource budget or its own shape.

    Raised by :meth:`repro.tam.Schedule.verify` (TAM wires
    over-committed, zero-width or negative-duration slots) and
    :func:`repro.tam.verify_power` (power budget exceeded).  Keeps
    ``AssertionError`` as a parent because these checks used to be bare
    asserts; existing ``except AssertionError`` call sites still work.
    """


# -- job execution -----------------------------------------------------------


class JobFailure(ReproError):
    """Base of the executor's job-failure vocabulary.

    ``transient`` marks failures where an identical retry can succeed
    (crashed worker, injected flakiness); ``retry_with_new_seed`` marks
    failures that are deterministic under the same configuration, where
    a retry is only worth attempting under a perturbed seed (timeouts,
    exhausted search budgets).
    """

    transient = False
    retry_with_new_seed = False


class JobTimeoutError(JobFailure):
    """A job exceeded its wall-clock deadline (cooperative abort)."""

    retry_with_new_seed = True


class AbortedError(JobFailure):
    """A job exhausted its backtrack budget (cooperative abort)."""

    retry_with_new_seed = True


class WorkerCrashError(JobFailure):
    """The worker process executing a job died (or was chaos-killed)."""

    transient = True


class FlakyWorkerError(JobFailure):
    """A transient, injected failure from the chaos harness."""

    transient = True


class JobRetriesExhaustedError(JobFailure):
    """A job kept failing after every allowed retry attempt."""
