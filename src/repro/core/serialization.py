"""JSON serialization of analysis results and SOC descriptions.

Machine-readable output for pipelines: every analysis dataclass gets a
plain-dict form, SOCs round-trip through JSON, and experiment tables can
be dumped for external plotting.  The schema is flat and stable — field
names match the dataclasses.
"""

from __future__ import annotations

import json
from itertools import compress, repeat
from typing import Any, Dict, List, Optional

from ..errors import CacheCorruptionError
from ..soc.model import Core, Soc
from .analysis import SocAnalysis, analyze
from .decomposition import Decomposition, decompose
from .tdv import TdvSummary, summarize

SCHEMA_VERSION = 1


def soc_to_dict(soc: Soc) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "name": soc.name,
        "top": soc.top_name,
        "cores": [
            {
                "name": core.name,
                "inputs": core.inputs,
                "outputs": core.outputs,
                "bidirs": core.bidirs,
                "scan_cells": core.scan_cells,
                "patterns": core.patterns,
                "children": list(core.children),
            }
            for core in soc
        ],
    }


def soc_from_dict(data: Dict[str, Any]) -> Soc:
    cores = [
        Core(
            name=entry["name"],
            inputs=entry.get("inputs", 0),
            outputs=entry.get("outputs", 0),
            bidirs=entry.get("bidirs", 0),
            scan_cells=entry.get("scan_cells", 0),
            patterns=entry.get("patterns", 0),
            children=list(entry.get("children", [])),
        )
        for entry in data["cores"]
    ]
    return Soc(data["name"], cores, top=data.get("top"))


def summary_to_dict(summary: TdvSummary) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "soc": summary.soc_name,
        "core_count": summary.core_count,
        "monolithic_patterns": summary.monolithic_patterns,
        "tdv_monolithic": summary.tdv_monolithic,
        "tdv_modular": summary.tdv_modular,
        "tdv_penalty": summary.tdv_penalty,
        "tdv_benefit": summary.tdv_benefit,
        "chip_io_residual": summary.chip_io_residual,
        "modular_change_fraction": summary.modular_change_fraction,
        "reduction_ratio": summary.reduction_ratio,
    }


def decomposition_to_dict(decomposition: Decomposition) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "soc": decomposition.soc_name,
        "monolithic_patterns": decomposition.monolithic_patterns,
        "tdv_monolithic": decomposition.tdv_monolithic,
        "tdv_modular": decomposition.tdv_modular,
        "penalty": decomposition.penalty,
        "benefit_strict": decomposition.benefit_strict,
        "benefit_identity": decomposition.benefit_identity,
        "residual": decomposition.residual,
        "per_core": [
            {
                "core": entry.core_name,
                "patterns": entry.patterns,
                "scan_cells": entry.scan_cells,
                "isocost": entry.isocost,
                "penalty": entry.penalty,
                "benefit": entry.benefit,
                "modular_tdv": entry.modular_tdv,
            }
            for entry in decomposition.per_core
        ],
    }


def analysis_report(
    soc: Soc, monolithic_patterns: Optional[int] = None
) -> Dict[str, Any]:
    """The full analysis of one SOC as one JSON-ready dict."""
    summary = summarize(soc, monolithic_patterns=monolithic_patterns)
    decomposition = decompose(soc, monolithic_patterns=monolithic_patterns)
    analysis: SocAnalysis = analyze(soc)
    return {
        "schema": SCHEMA_VERSION,
        "soc": soc_to_dict(soc),
        "summary": summary_to_dict(summary),
        "decomposition": decomposition_to_dict(decomposition),
        "pattern_variation": analysis.pattern_variation,
    }


def table4_report(results: List) -> Dict[str, Any]:
    """The Table 4 reproduction (list of Table4Result) as a dict."""
    rows = []
    for result in results:
        rows.append({
            "soc": result.soc.name,
            "cores": len(result.soc) - 1,
            "norm_stdev": result.variation,
            "measured": summary_to_dict(result.summary),
            "published": {
                "norm_stdev": result.published.norm_stdev,
                "tdv_opt_mono": result.published.tdv_opt_mono,
                "tdv_penalty": result.published.tdv_penalty,
                "tdv_benefit": result.published.tdv_benefit,
                "tdv_modular": result.published.tdv_modular,
                "modular_percent": result.published.modular_percent,
            },
        })
    return {"schema": SCHEMA_VERSION, "table4": rows}


def dumps(data: Dict[str, Any], indent: int = 2) -> str:
    return json.dumps(data, indent=indent, sort_keys=True)


def loads_soc(text: str) -> Soc:
    return soc_from_dict(json.loads(text))


# -- ATPG results -------------------------------------------------------------
#
# The runtime cache (repro.runtime.cache) and the run journal
# (repro.runtime.journal) persist AtpgResult values on disk through
# these converters.  Pattern assignments are keyed by compiled net id —
# deterministic for a given netlist, so they survive the round-trip as
# long as the cache key covers the netlist content (it does: see
# repro.runtime.cache.netlist_fingerprint).  The atpg imports are
# function-local: repro.core is imported by the top-level package and
# must stay independent of the ATPG stack at module scope.

#: Format of the ATPG result dicts that cache and journal entries hold.
#: Schema 2 packs each test pattern into one string (see
#: :func:`test_set_to_dict`); the stores read an entry of any other
#: schema as a plain miss, and the recompute overwrites it.
ATPG_RESULT_SCHEMA = 2

#: A pattern row holds one character per input: ``0``, ``1`` or ``-`` (X).
_X = 2
_VALUE_TO_CHAR = bytes.maketrans(b"\x00\x01\x02", b"01-")
_CHAR_TO_VALUE = bytes.maketrans(b"01-", b"\x00\x01\x02")
_CHAR_IS_CARE = bytes.maketrans(b"01-", b"\x01\x01\x00")

_COUNT_FIELDS = (
    "fault_count",
    "detected_count",
    "random_pattern_count",
    "deterministic_pattern_count",
    "pre_compaction_count",
)


def _corrupt(message: str) -> CacheCorruptionError:
    return CacheCorruptionError(f"malformed ATPG result: {message}")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(data: Any, name: str, kind: type) -> Any:
    """``data[name]``, required to be a ``kind`` (never a bool for int)."""
    if not isinstance(data, dict):
        raise _corrupt(f"expected an object holding {name!r}")
    if name not in data:
        raise _corrupt(f"missing {name!r}")
    value = data[name]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise _corrupt(f"{name!r} is {type(value).__name__}, not {kind.__name__}")
    return value


def test_set_to_dict(test_set) -> Dict[str, Any]:
    """One TestSet as its input ids plus one ``0``/``1``/``-`` row per pattern.

    ``inputs`` lists every net id any pattern assigns, numerically
    sorted; character ``i`` of a row is the pattern's value on
    ``inputs[i]``, ``-`` where it leaves that input X.  When every
    pattern is a row over the same ascending ids, those rows are the
    entry's rows already and are written as they are.
    """
    patterns = test_set.patterns
    row_ids = patterns[0].row_ids if patterns else None
    if (
        row_ids is not None
        and all(a < b for a, b in zip(row_ids, row_ids[1:]))
        and all(p.row_ids is row_ids or p.row_ids == row_ids for p in patterns)
    ):
        return {
            "circuit": test_set.circuit_name,
            "inputs": list(row_ids),
            "patterns": [pattern.row for pattern in patterns],
        }
    assignments = [pattern.assignments for pattern in patterns]
    ids = sorted(set().union(*assignments))
    return {
        "circuit": test_set.circuit_name,
        "inputs": ids,
        "patterns": [
            bytes(map(values.get, ids, repeat(_X)))
            .translate(_VALUE_TO_CHAR)
            .decode("ascii")
            for values in assignments
        ],
    }


def test_set_from_dict(data: Dict[str, Any]):
    """Inverse of :func:`test_set_to_dict`; raises on any malformed field.

    Every field is checked before it is used — input ids strictly
    increasing non-negative ints, rows strings of exactly one ``0``,
    ``1`` or ``-`` per input — and a violation raises
    :class:`~repro.errors.CacheCorruptionError`.  A row without ``-``
    decodes to a row pattern over ``inputs``; only a row with X bits
    becomes a dict.
    """
    from ..atpg.patterns import TestPattern, TestSet

    circuit = _field(data, "circuit", str)
    ids = _field(data, "inputs", list)
    rows = _field(data, "patterns", list)
    previous = -1
    for net_id in ids:
        if not _is_int(net_id) or net_id <= previous:
            raise _corrupt("input ids must be strictly increasing ints >= 0")
        previous = net_id
    patterns = []
    for row in rows:
        if not isinstance(row, str) or len(row) != len(ids) or not row.isascii():
            raise _corrupt(f"pattern rows must be {len(ids)}-character strings")
        raw = row.encode("ascii")
        if raw.translate(None, b"01-"):
            raise _corrupt("pattern rows may only hold 0, 1 and -")
        if b"-" in raw:
            pairs = zip(ids, raw.translate(_CHAR_TO_VALUE))
            patterns.append(
                TestPattern(dict(compress(pairs, raw.translate(_CHAR_IS_CARE))))
            )
        else:
            patterns.append(TestPattern.from_row(ids, row))
    return TestSet(circuit_name=circuit, patterns=patterns)


def fault_to_dict(fault) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"net": fault.net, "stuck_at": fault.stuck_at}
    if fault.gate_index is not None:
        entry["gate_index"] = fault.gate_index
        entry["pin"] = fault.pin
    return entry


def fault_from_dict(data: Dict[str, Any]):
    """Inverse of :func:`fault_to_dict`; raises on any malformed field."""
    from ..atpg.faults import Fault

    net = _field(data, "net", int)
    stuck_at = _field(data, "stuck_at", int)
    if net < 0 or stuck_at not in (0, 1):
        raise _corrupt(f"bad fault site net={net} stuck_at={stuck_at}")
    gate_index = pin = None
    if "gate_index" in data or "pin" in data:
        gate_index = _field(data, "gate_index", int)
        pin = _field(data, "pin", int)
        if gate_index < 0 or pin < 0:
            raise _corrupt(f"bad branch gate_index={gate_index} pin={pin}")
    return Fault(net=net, stuck_at=stuck_at, gate_index=gate_index, pin=pin)


def atpg_result_to_dict(result) -> Dict[str, Any]:
    """One AtpgResult as a JSON-ready dict (schema-versioned)."""
    return {
        "schema": ATPG_RESULT_SCHEMA,
        "circuit": result.circuit_name,
        "test_set": test_set_to_dict(result.test_set),
        "fault_count": result.fault_count,
        "detected_count": result.detected_count,
        "untestable": [fault_to_dict(f) for f in result.untestable],
        "aborted": [fault_to_dict(f) for f in result.aborted],
        "random_pattern_count": result.random_pattern_count,
        "deterministic_pattern_count": result.deterministic_pattern_count,
        "pre_compaction_count": result.pre_compaction_count,
    }


def atpg_result_from_dict(data: Dict[str, Any]):
    """Inverse of :func:`atpg_result_to_dict`.

    Checks every field it reads and raises
    :class:`~repro.errors.CacheCorruptionError` on the first malformed
    one, so a damaged store entry is quarantined instead of crashing
    the lookup or being served as a hit.
    """
    from ..atpg.engine import AtpgResult

    counts = {name: _field(data, name, int) for name in _COUNT_FIELDS}
    for name, value in counts.items():
        if value < 0:
            raise _corrupt(f"{name!r} is negative ({value})")
    return AtpgResult(
        circuit_name=_field(data, "circuit", str),
        test_set=test_set_from_dict(_field(data, "test_set", dict)),
        untestable=[fault_from_dict(f) for f in _field(data, "untestable", list)],
        aborted=[fault_from_dict(f) for f in _field(data, "aborted", list)],
        **counts,
    )
