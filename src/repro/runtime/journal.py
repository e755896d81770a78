"""Checkpoint/resume: per-job results journaled to a run directory.

Long multi-core campaigns must survive being killed.  A
:class:`RunJournal` makes every completed job durable the moment it
finishes: one JSON file per job under ``RUN_DIR/jobs/``, written
atomically (tmp + rename), keyed by the same content key the result
cache uses.  A rerun pointed at the same directory with ``resume=True``
(``repro experiments --resume RUN_DIR``) treats journaled jobs as
instant hits and executes only the remainder — and because the key
covers the netlist and config entirely, a resumed run is bit-identical
to an uninterrupted one.

``RUN_DIR/manifest.json`` is the run's canonical record: the job list
(name, circuit, content key, pattern count, status) in job order, with
*no* wall-clock fields, so the manifest of a killed-and-resumed run is
byte-identical to that of a run that never died.  It is rewritten after
every :func:`~repro.runtime.executor.run_jobs` batch, so it is also a
live progress file.

Corrupt journal entries are quarantined and recomputed, and entries of
an older schema are plain misses, exactly like cache entries
(:mod:`repro.runtime.cache`).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..atpg.engine import AtpgResult
from ..core.serialization import (
    ATPG_RESULT_SCHEMA,
    SCHEMA_VERSION,
    atpg_result_to_dict,
)
from ..errors import ConfigError
from ..observability import get_tracer, register_counter
from .cache import quarantine_file, read_entry
from .config import AtpgConfig

JOURNAL_RESUMED = register_counter(
    "journal.resumed", "jobs skipped on resume (journal hits)"
)
JOURNAL_RECORDS = register_counter("journal.records", "job results journaled")
JOURNAL_QUARANTINED = register_counter(
    "journal.quarantined", "corrupt journal entries quarantined"
)


class RunJournal:
    """Durable per-job results plus a canonical manifest for one run.

    ``resume=False`` (a fresh run) refuses a directory that already
    holds journal entries — resuming must be an explicit decision, not
    an accident of reusing a path.
    """

    def __init__(self, directory: Union[str, Path], resume: bool = False):
        self.directory = Path(directory)
        self.jobs_dir = self.directory / "jobs"
        self.resume = resume
        self.resumed_jobs = 0
        self.completed: List[Dict[str, Any]] = []
        if not resume and self.jobs_dir.exists() and any(self.jobs_dir.glob("*.json")):
            raise ConfigError(
                f"run directory {self.directory} already holds journaled "
                f"results; pass resume=True (--resume) to continue that "
                f"run, or choose a fresh directory"
            )
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

    # -- per-job results ------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.jobs_dir / f"{key}.json"

    @staticmethod
    def _tmp_name(name: str) -> str:
        """A tmp filename no other live writer can be using."""
        return f"{name}.{os.getpid()}.{threading.get_ident()}.tmp"

    def get(self, key: str) -> Optional[AtpgResult]:
        """The journaled result under ``key``, or None.

        Only consulted on resume; a fresh run never reads its own
        journal.  Corrupt entries are quarantined and reported as
        misses so the job simply re-executes; entries of another schema
        are plain misses, overwritten when the job is journaled again.
        """
        if not self.resume:
            return None
        path = self._path(key)
        try:
            result = read_entry(path, key)
        except (ValueError, KeyError, TypeError, OSError):
            quarantine_file(path)
            get_tracer().count(JOURNAL_QUARANTINED)
            return None
        if result is None:
            return None
        self.resumed_jobs += 1
        get_tracer().count(JOURNAL_RESUMED)
        return result

    def record(
        self, key: str, name: str, config: AtpgConfig, result: AtpgResult
    ) -> None:
        """Durably journal one fresh result (atomic, concurrency-safe).

        The tmp file name includes the pid and thread id, so concurrent
        writers — two resumed runs racing on one directory, or threads
        of one process — can never interleave on one tmp path; last
        rename wins with a complete file either way.
        """
        payload = {
            "schema": ATPG_RESULT_SCHEMA,
            "key": key,
            "job": name,
            "config": config.to_dict(),
            "result": atpg_result_to_dict(result),
        }
        path = self._path(key)
        tmp = path.with_name(self._tmp_name(path.name))
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.replace(path)
        get_tracer().count(JOURNAL_RECORDS)

    # -- the canonical manifest -----------------------------------------

    def note(
        self,
        name: str,
        circuit: Optional[str],
        key: Optional[str],
        pattern_count: Optional[int],
        status: str,
    ) -> None:
        """Append one job to the manifest job list (in job order)."""
        self.completed.append(
            {
                "name": name,
                "circuit": circuit,
                "key": key,
                "pattern_count": pattern_count,
                "status": status,
            }
        )

    def write_manifest(self) -> Path:
        """(Re)write ``manifest.json`` — deterministic bytes, no clocks.

        Same per-writer tmp discipline as :meth:`record`: concurrent
        writers sharing the directory each rename a complete file into
        place, never a torn mix.
        """
        payload = {"schema": SCHEMA_VERSION, "jobs": self.completed}
        path = self.directory / "manifest.json"
        tmp = path.with_name(self._tmp_name("manifest.json"))
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        tmp.replace(path)
        return path
