"""Deterministic fault injection for the resilient executor.

Production-scale campaigns fail in a handful of characteristic ways —
a hung search, a killed worker, a corrupted cache file, a transiently
flaky box.  This module injects exactly those faults on demand so the
degradation paths of :mod:`repro.runtime.executor` are *testable*
rather than theoretical.

Faults are deterministic functions of the job attempt number, not coin
flips: "the first ``crash_attempts`` attempts of every job crash"
reproduces identically on every run, which is what differential tests
need.  A :class:`ChaosConfig` with all-zero fields (the default)
injects nothing, and the executor's behavior under it is bit-identical
to no chaos at all (``tests/test_resilience.py`` enforces this
differentially).

Activation: pass ``ExecutionPolicy(chaos=...)`` in code, or set the
``REPRO_CHAOS`` environment variable (read by ``Runtime.from_flags``)
to comma-separated ``field=value`` pairs, e.g.::

    REPRO_CHAOS="hang_seconds=0.2,hang_attempts=1,crash_attempts=1"
"""

from __future__ import annotations

import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterator, Optional

from ..errors import ConfigError, FlakyWorkerError, WorkerCrashError

CHAOS_ENV_VAR = "REPRO_CHAOS"

#: The longest sleep a config may ask for.  ``time.sleep`` raises
#: OverflowError above ``threading.TIMEOUT_MAX`` seconds, and OSError
#: (EINVAL) just below it once the monotonic clock's reading is added
#: to form the absolute deadline; half the limit (~146 years) leaves
#: that clock ample room.
MAX_SLEEP_SECONDS = threading.TIMEOUT_MAX / 2


def _is_finite_real(value: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for any float
        return False


@dataclass(frozen=True)
class ChaosConfig:
    """Which faults to inject, and how hard.

    Every ``*_attempts`` field means "the first N attempts of each job
    suffer this fault" (attempts count from 0), so with a retry policy
    of more than N attempts every job eventually succeeds — the shape
    of a transient production failure.

    ``corrupt_stores`` truncates the first N result files written to
    the ATPG cache *after* a successful store, exercising the
    quarantine-and-recompute path on the next lookup.
    """

    hang_seconds: float = 0.0  # sleep injected at job start...
    hang_attempts: int = 0  # ...on the first N attempts of each job
    crash_attempts: int = 0  # kill the worker on the first N attempts
    flaky_attempts: int = 0  # raise FlakyWorkerError on the first N attempts
    corrupt_stores: int = 0  # truncate the first N cache files written

    def __post_init__(self) -> None:
        # A bool or float attempt count would not survive the to_env /
        # from_env round trip, and a NaN hang never sleeps (``nan > 0``
        # is false), so the chaos test it configures injects nothing.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "hang_seconds":
                valid, expected = _is_finite_real(value), "a finite number"
            else:
                valid = isinstance(value, int) and not isinstance(value, bool)
                expected = "an int"
            if not valid:
                raise ConfigError(
                    f"chaos {spec.name} must be {expected}, got "
                    f"{type(value).__name__} {value!r}"
                )
            if value < 0:
                raise ConfigError(f"chaos {spec.name} must be >= 0, got {value}")
        if self.hang_seconds > MAX_SLEEP_SECONDS:
            raise ConfigError(
                f"chaos hang_seconds must be <= {MAX_SLEEP_SECONDS:g}, "
                f"got {self.hang_seconds}"
            )

    @property
    def enabled(self) -> bool:
        return (
            self.hang_attempts > 0
            or self.crash_attempts > 0
            or self.flaky_attempts > 0
            or self.corrupt_stores > 0
        )

    def on_job_start(self, job: str, attempt: int, in_pool: bool) -> None:
        """Inject the configured job-level faults for this attempt.

        Runs in the worker, before the engine starts but after the
        abort token is armed — so an injected hang is exactly what a
        real hang is: wall-clock lost before the next cooperative
        check.  A crash in a pool worker is a hard ``os._exit`` (the
        parent sees a broken pool, as with a real OOM kill); in the
        serial path it degrades to :class:`WorkerCrashError` so the
        host process survives.
        """
        if attempt < self.hang_attempts and self.hang_seconds > 0:
            time.sleep(self.hang_seconds)
        if attempt < self.crash_attempts:
            if in_pool:
                os._exit(1)
            raise WorkerCrashError(
                f"chaos: job {job!r} worker crashed on attempt {attempt}"
            )
        if attempt < self.flaky_attempts:
            raise FlakyWorkerError(
                f"chaos: job {job!r} flaked on attempt {attempt}"
            )

    # -- env plumbing ---------------------------------------------------

    def to_env(self) -> str:
        """The ``REPRO_CHAOS`` string reproducing this config."""
        parts = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value:
                parts.append(f"{spec.name}={value}")
        return ",".join(parts)

    @classmethod
    def from_env(cls, text: Optional[str] = None) -> "ChaosConfig":
        """Parse ``$REPRO_CHAOS`` (or ``text``) into a config.

        Unset/empty means no chaos.  Unknown field names are a
        :class:`ConfigError` — a typo silently injecting nothing would
        defeat the point of a chaos test.
        """
        if text is None:
            text = os.environ.get(CHAOS_ENV_VAR, "")
        text = text.strip()
        if not text:
            return cls()
        known = {spec.name for spec in fields(cls)}
        values = {}
        for part in text.split(","):
            name, sep, raw = part.partition("=")
            name = name.strip()
            if not sep or name not in known:
                raise ConfigError(
                    f"bad {CHAOS_ENV_VAR} entry {part!r}; known fields: "
                    f"{', '.join(sorted(known))}"
                )
            try:
                values[name] = float(raw) if name == "hang_seconds" else int(raw)
            except ValueError:
                raise ConfigError(
                    f"bad {CHAOS_ENV_VAR} value {raw!r} for {name}"
                ) from None
        return cls(**values)


# -- ambient chaos (parent process: cache-store corruption) ------------------

_ACTIVE: ChaosConfig = ChaosConfig()
_CORRUPTED_STORES = 0


def get_chaos() -> ChaosConfig:
    """The chaos config active in this process (inert by default)."""
    return _ACTIVE


@contextmanager
def use_chaos(chaos: Optional[ChaosConfig]) -> Iterator[ChaosConfig]:
    """Scope ``chaos`` as the active config; resets the store-corruption
    budget on entry so each scoped run corrupts its first N stores."""
    global _ACTIVE, _CORRUPTED_STORES
    previous, previous_count = _ACTIVE, _CORRUPTED_STORES
    _ACTIVE = chaos if chaos is not None else ChaosConfig()
    _CORRUPTED_STORES = 0
    try:
        yield _ACTIVE
    finally:
        _ACTIVE, _CORRUPTED_STORES = previous, previous_count


def maybe_corrupt_store(path: Path) -> bool:
    """Truncate a just-written store file if the budget allows.

    Called by :meth:`AtpgResultCache.put` after every disk write; does
    nothing unless an active chaos config still has ``corrupt_stores``
    budget.  Returns whether the file was corrupted.
    """
    global _CORRUPTED_STORES
    if _CORRUPTED_STORES >= _ACTIVE.corrupt_stores:
        return False
    _CORRUPTED_STORES += 1
    text = path.read_text()
    path.write_text(text[: max(1, len(text) // 2)])
    return True
