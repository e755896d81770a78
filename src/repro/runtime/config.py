"""The identity of an ATPG run.

Every ``T`` in the paper's TDV formulas comes out of one ATPG run, and
that run is fully determined by the netlist plus a handful of engine
knobs.  :class:`AtpgConfig` freezes those knobs into a hashable value
object so a run has a *well-defined identity*: the same (netlist,
config) pair always produces the same :class:`~repro.atpg.engine.AtpgResult`,
which is what makes results cacheable (:mod:`repro.runtime.cache`) and
safely distributable across worker processes
(:mod:`repro.runtime.executor`).

This module deliberately imports nothing from the rest of the package
except :mod:`repro.errors` (itself dependency-free) — it sits below
:mod:`repro.atpg` so the engine itself can accept a config without a
layering cycle.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from ..errors import ConfigError

# Kept in sync with repro.atpg.backends.BACKEND_CHOICES (not imported:
# this module sits below repro.atpg by design).
_BACKEND_CHOICES = ("auto", "pure", "numpy")

#: Fields that must be real ints: a bool would run the same ATPG under
#: a different fingerprint, and a str or float would fail deep inside
#: the engine.
_INT_FIELDS = (
    "seed",
    "backtrack_limit",
    "random_batches",
    "dynamic_compaction",
    "stream",
)


@dataclass(frozen=True)
class AtpgConfig:
    """Engine knobs that determine an ATPG run, as one frozen value.

    Field defaults mirror :func:`repro.atpg.engine.generate_tests`, so
    ``AtpgConfig()`` reproduces a bare ``generate_tests(netlist)`` call.
    """

    seed: int = 0
    backtrack_limit: int = 100
    random_batches: int = 32
    compact: bool = True
    dynamic_compaction: int = 0
    #: Random-phase bit-stream epoch.  Only epoch ``1`` exists (one
    #: ``random.Random(seed)`` draw sequence, see DESIGN.md §7), so any
    #: other value is a :class:`ConfigError`.  The field stays so run
    #: provenance can name the epoch; it is implicit in :meth:`to_dict`
    #: and therefore never enters :meth:`fingerprint`.
    stream: int = 1
    #: Kernel backend request (``None`` = environment/auto).  Every
    #: backend is bit-identical to ``pure``, so this is an execution
    #: detail: it rides along in serialized configs but is excluded
    #: from :meth:`fingerprint`, keeping cache keys backend-invariant.
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(
                    f"{name} must be an int, got {type(value).__name__} {value!r}"
                )
        if not isinstance(self.compact, bool):
            raise ConfigError(
                f"compact must be a bool, got {type(self.compact).__name__} "
                f"{self.compact!r}"
            )
        if self.backend is not None and self.backend not in _BACKEND_CHOICES:
            raise ConfigError(
                f"unknown kernel backend {self.backend!r}: "
                f"choose from {', '.join(_BACKEND_CHOICES)}"
            )
        if self.backtrack_limit < 1:
            raise ConfigError(
                f"backtrack_limit must be >= 1, got {self.backtrack_limit}"
            )
        if self.random_batches < 0:
            raise ConfigError(f"random_batches must be >= 0, got {self.random_batches}")
        if self.dynamic_compaction < 0:
            raise ConfigError(
                f"dynamic_compaction must be >= 0, got {self.dynamic_compaction}"
            )
        if self.stream != 1:
            raise ConfigError(
                f"unknown pattern-stream epoch {self.stream!r}: only 1 exists"
            )

    def with_seed(self, seed: int) -> "AtpgConfig":
        """The same configuration under a different seed."""
        return replace(self, seed=seed)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "seed": self.seed,
            "backtrack_limit": self.backtrack_limit,
            "random_batches": self.random_batches,
            "compact": self.compact,
            "dynamic_compaction": self.dynamic_compaction,
        }
        # ``stream`` is implicit (always 1), so serialized configs — and
        # every fingerprint and cached result — are byte-identical to
        # before the field existed.
        if self.backend is not None:
            data["backend"] = self.backend
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AtpgConfig":
        return cls(
            seed=data.get("seed", 0),
            backtrack_limit=data.get("backtrack_limit", 100),
            random_batches=data.get("random_batches", 32),
            compact=data.get("compact", True),
            dynamic_compaction=data.get("dynamic_compaction", 0),
            stream=data.get("stream", 1),
            backend=data.get("backend"),
        )

    def fingerprint(self) -> str:
        """A stable content hash of the configuration.

        The kernel ``backend`` is deliberately excluded: backends are
        bit-identical, so results cached under one backend are valid —
        and reused — under any other.
        """
        data = self.to_dict()
        data.pop("backend", None)
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
