"""Execution policy: how hard to try, how long to wait, what to inject.

:class:`ExecutionPolicy` is deliberately *not* part of a run's identity
(:class:`~repro.runtime.config.AtpgConfig` is): a deadline, a retry
count, or an injected fault never changes what a *successful* run
computes, so none of these fields enter cache keys or fingerprints —
results cached under lenient policies stay valid under strict ones and
vice versa.  The one exception is documented on
:meth:`retry_config`: a retry after a timeout or exhausted budget
perturbs the seed (an identical retry would die identically), and the
result is then cached under the perturbed config it was actually
produced with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import ConfigError, JobFailure
from .chaos import ChaosConfig, _is_finite_real
from .config import AtpgConfig

#: Seed offset applied per retry of a deterministic (timeout/budget)
#: failure.  Large and odd so perturbed seed sequences of neighboring
#: jobs (seed, seed+1, ...) never collide.
SEED_PERTURBATION = 0x9E3779B1

ON_ERROR_MODES = ("raise", "skip", "retry")

#: (field, may be None) pairs that must be finite reals.  A bool would
#: mean one second, and NaN or infinity would disarm a deadline
#: silently (``clock() > nan`` is never true).
_REAL_FIELDS = (("deadline_seconds", True), ("backoff_seconds", False))

#: (field, may be None) pairs that must be ints, never bools: a float
#: attempt count or budget would fail deep inside the executor.
_INT_FIELDS = (("backtrack_budget", True), ("max_attempts", False))


@dataclass(frozen=True)
class ExecutionPolicy:
    """Resilience knobs for one :func:`~repro.runtime.executor.run_jobs` call.

    ``deadline_seconds`` / ``backtrack_budget`` arm a per-job
    :class:`~repro.runtime.abort.AbortToken` in the worker.
    ``max_attempts`` bounds total tries per job under
    ``on_error="retry"`` (1 means no retries).  ``backoff_seconds``
    sleeps between retry rounds, doubling each round (exponential
    backoff); zero disables the sleep entirely, which is what tests
    want.  ``chaos`` injects faults (see :mod:`repro.runtime.chaos`).
    """

    deadline_seconds: Optional[float] = None
    backtrack_budget: Optional[int] = None
    max_attempts: int = 3
    backoff_seconds: float = 0.0
    chaos: ChaosConfig = field(default_factory=ChaosConfig)

    def __post_init__(self) -> None:
        for name, optional in _REAL_FIELDS:
            value = getattr(self, name)
            if optional and value is None:
                continue
            if not _is_finite_real(value):
                raise ConfigError(
                    f"{name} must be a finite number, got "
                    f"{type(value).__name__} {value!r}"
                )
        for name, optional in _INT_FIELDS:
            value = getattr(self, name)
            if optional and value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(
                    f"{name} must be an int, got {type(value).__name__} {value!r}"
                )
        if not isinstance(self.chaos, ChaosConfig):
            raise ConfigError(
                f"chaos must be a ChaosConfig, got {type(self.chaos).__name__}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        if self.backtrack_budget is not None and self.backtrack_budget < 1:
            raise ConfigError(
                f"backtrack_budget must be >= 1, got {self.backtrack_budget}"
            )
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_seconds < 0:
            raise ConfigError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )

    def backoff_for_round(self, retry_round: int) -> float:
        """Sleep before retry round ``retry_round`` (1-based)."""
        if self.backoff_seconds <= 0:
            return 0.0
        return self.backoff_seconds * (2 ** (retry_round - 1))

    def retry_config(self, config: AtpgConfig, attempt: int, error: JobFailure) -> AtpgConfig:
        """The config for retry attempt ``attempt`` (1-based) after ``error``.

        Transient failures (crashes, flakes) retry with the *identical*
        config — the reattempt is bit-identical to what the first try
        would have produced.  Deterministic failures (timeout, budget)
        retry under a perturbed seed: the same seed would walk the same
        doomed search, while a reseeded random phase and PODEM ordering
        often finish comfortably.  The perturbed config is the run's
        true identity and is what the result gets cached under.
        """
        if error.retry_with_new_seed:
            return config.with_seed(config.seed + SEED_PERTURBATION * attempt)
        return config


def validate_workers(workers: Any) -> int:
    """A worker-process count: an int, never a bool, of at least 1.

    A float would pass a bare ``workers < 1`` check and fail later
    inside :class:`~concurrent.futures.ProcessPoolExecutor`.
    """
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ConfigError(
            f"workers must be an int, got {type(workers).__name__} {workers!r}"
        )
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return workers


def validate_on_error(on_error: str) -> str:
    if on_error not in ON_ERROR_MODES:
        raise ConfigError(
            f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
        )
    return on_error
