"""Content-addressed cache of ATPG results.

Per-core ATPG is the expensive primitive behind every table and figure
— and, as the modularity argument itself says, a core's test set
depends on nothing but the core.  So results are cached under a key
derived purely from content: a stable hash of the netlist structure
plus the :class:`~repro.runtime.config.AtpgConfig` fingerprint.  There
is no invalidation problem — a changed netlist or config *is* a
different key.

Two tiers: an in-memory LRU (term of this process) and JSON files on
disk (via the :mod:`repro.core.serialization` converters), one file per
key, so warm reruns of an experiment skip ATPG entirely.  The directory
defaults to ``~/.cache/repro/atpg`` and can be overridden with the
``REPRO_CACHE_DIR`` environment variable or per instance.  Corrupt or
truncated files — including files whose recorded key disagrees with
their filename — are treated as misses: the offending file is moved
aside into a ``quarantine/`` subdirectory (for post-mortems) and the
result is recomputed, so one bad byte never aborts a campaign.  An
entry written in an older format (another ``schema`` number) is not
corrupt, just stale: it reads as a plain miss and the recompute
overwrites it.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from ..atpg.engine import AtpgResult
from ..circuit.netlist import Netlist
from ..core.serialization import (
    ATPG_RESULT_SCHEMA,
    atpg_result_from_dict,
    atpg_result_to_dict,
)
from ..errors import CacheCorruptionError, ConfigError
from ..observability import get_tracer, register_counter
from .chaos import maybe_corrupt_store
from .config import AtpgConfig

CACHE_ENV_VAR = "REPRO_CACHE_DIR"

CACHE_HITS = register_counter("cache.hits", "ATPG result cache hits")
CACHE_MISSES = register_counter("cache.misses", "ATPG result cache misses")
CACHE_STORES = register_counter("cache.stores", "ATPG results written to disk")
CACHE_QUARANTINED = register_counter(
    "cache.quarantined", "corrupt cache entries moved to quarantine"
)

QUARANTINE_DIR = "quarantine"


def quarantine_file(path: Path) -> Optional[Path]:
    """Move a corrupt store file into a sibling ``quarantine/`` directory.

    Keeps the evidence for post-mortems while freeing the key for a
    clean recompute.  Falls back to deletion (and then to ignoring the
    file) when the filesystem refuses the move; returns the quarantined
    path, or None when the file is simply gone.
    """
    target_dir = path.parent / QUARANTINE_DIR
    try:
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / path.name
        path.replace(target)
        return target
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
        return None


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/atpg``."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "atpg"


def netlist_fingerprint(netlist: Netlist) -> str:
    """A stable content hash of a netlist's full structure.

    Covers name, inputs, outputs, flip-flops and gates in declaration
    order — everything that determines the ATPG outcome (pattern
    assignments are keyed by compiled net id, which is itself a
    function of this structure).  Each part is hashed followed by one
    NUL byte.
    """
    parts = ["netlist", netlist.name, "inputs", *netlist.inputs]
    parts += ["outputs", *netlist.outputs]
    for ff in netlist.flip_flops:
        parts += ("ff", ff.output, ff.data)
    for gate in netlist.gates:
        parts += ("gate", gate.gate_type.value, gate.output, *gate.inputs)
    parts.append("")  # the NUL after the last part
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


def result_key(netlist: Netlist, config: AtpgConfig) -> str:
    """The cache key of one (netlist, config) ATPG run."""
    hasher = hashlib.sha256()
    hasher.update(netlist_fingerprint(netlist).encode("ascii"))
    hasher.update(config.fingerprint().encode("ascii"))
    return hasher.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class AtpgResultCache:
    """Two-tier (memory LRU + JSON-on-disk) cache of ATPG results.

    ``directory=None`` keeps the cache purely in memory — useful for
    sharing results within one process without touching the filesystem.
    """

    directory: Optional[Union[str, Path]] = None
    memory_slots: int = 256
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.directory is not None:
            self.directory = Path(self.directory)
        if self.memory_slots < 1:
            raise ConfigError(f"memory_slots must be >= 1, got {self.memory_slots}")
        self._memory: "OrderedDict[str, AtpgResult]" = OrderedDict()

    # -- lookup ---------------------------------------------------------------

    def get(self, netlist: Netlist, config: AtpgConfig) -> Optional[AtpgResult]:
        """The cached result of this run, or None on a miss."""
        key = result_key(netlist, config)
        result = self._memory.get(key)
        if result is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            get_tracer().count(CACHE_HITS)
            return result
        result = self._read_disk(key)
        if result is not None:
            self._remember(key, result)
            self.stats.hits += 1
            get_tracer().count(CACHE_HITS)
            return result
        self.stats.misses += 1
        get_tracer().count(CACHE_MISSES)
        return None

    def put(self, netlist: Netlist, config: AtpgConfig, result: AtpgResult) -> str:
        """Store one result under its content key; returns the key."""
        key = result_key(netlist, config)
        self._remember(key, result)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            payload = {
                "schema": ATPG_RESULT_SCHEMA,
                "key": key,
                "config": config.to_dict(),
                "result": atpg_result_to_dict(result),
            }
            path = self._path(key)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(payload, sort_keys=True))
            tmp.replace(path)  # atomic: a reader never sees a half-written file
            self.stats.stores += 1
            get_tracer().count(CACHE_STORES)
            maybe_corrupt_store(path)  # chaos hook; no-op unless injected
        return key

    def clear(self) -> None:
        """Drop the memory tier and delete every disk entry."""
        self._memory.clear()
        if self.directory is not None and self.directory.exists():
            for path in self.directory.glob("*.json"):
                path.unlink(missing_ok=True)

    def __len__(self) -> int:
        """Number of disk entries (memory-only caches count the LRU)."""
        if self.directory is not None and self.directory.exists():
            return sum(1 for _ in self.directory.glob("*.json"))
        return len(self._memory)

    # -- internals ------------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def _remember(self, key: str, result: AtpgResult) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_slots:
            self._memory.popitem(last=False)

    def _read_disk(self, key: str) -> Optional[AtpgResult]:
        if self.directory is None:
            return None
        path = self._path(key)
        try:
            return read_entry(path, key)
        except (ValueError, KeyError, TypeError, OSError):
            # Corrupt/truncated/mis-keyed entry: quarantine it and report
            # a miss so the result is recomputed — never abort the run.
            self.stats.corrupt += 1
            self.stats.quarantined += 1
            get_tracer().count(CACHE_QUARANTINED)
            quarantine_file(path)
            return None


def read_entry(path: Path, key: str) -> Optional[AtpgResult]:
    """The result a cache or journal file holds under ``key``.

    None when the file is missing or was written in another schema (a
    plain miss, which the recompute overwrites).  A file that cannot be
    trusted — not JSON, not an object, filed under the wrong key, or
    holding a malformed result — raises ``ValueError`` (mostly
    :class:`~repro.errors.CacheCorruptionError`) for the caller to
    quarantine.
    """
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise CacheCorruptionError(f"store entry {path.name} is not a JSON object")
    if payload.get("schema") != ATPG_RESULT_SCHEMA:
        return None
    if payload.get("key") != key:
        raise CacheCorruptionError(
            f"store entry {path.name} claims key "
            f"{payload.get('key')!r}, expected {key!r}"
        )
    return atpg_result_from_dict(payload.get("result"))
