"""The on-disk entries of the result cache and the run journal.

Both stores keep one JSON file per ATPG result under its content key.
These tests pin that contract: the key of a fixed netlist never moves
(a new digest would orphan every existing cache), entries of an older
schema are plain misses that the recompute overwrites, and a damaged
entry is quarantined — never served as a hit, never raised.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import generate_tests
from repro.atpg.engine import AtpgResult
from repro.atpg.faults import Fault
from repro.atpg.patterns import TestPattern, TestSet
from repro.circuit import parse_bench
from repro.core.serialization import ATPG_RESULT_SCHEMA, atpg_result_to_dict
from repro.runtime import (
    AtpgConfig,
    AtpgJob,
    AtpgResultCache,
    RunJournal,
    netlist_fingerprint,
    result_key,
    run_jobs,
)

from .conftest import C17_BENCH, SEQ_BENCH

#: Digests computed before the fingerprint was rewritten as one join.
PINNED_KEYS = {
    "c17": (
        "55fb61296c8edfb0dfe56c716fd3b6bcd280e031d854bbf0194d055080701ab4",
        "1ba3f73d99087722e31cadb34477d7ed9a73446f3c6326f26d29ba1d59390544",
    ),
    "seq": (
        "10f3d3553485fbec3cb2a033e0b7d9e39f4fa88f624aa45d50a34a4ecf5615e1",
        "d27d08bb3470a79ab551cd204e05fdfdfbd4bc37b2245f8fa4adff59ca59721a",
    ),
}


@pytest.mark.parametrize("name,text", [("c17", C17_BENCH), ("seq", SEQ_BENCH)])
def test_keys_are_pinned(name, text):
    netlist = parse_bench(text, name)
    fingerprint, key = PINNED_KEYS[name]
    assert netlist_fingerprint(netlist) == fingerprint
    assert result_key(netlist, AtpgConfig()) == key


# -- the schema-1 format, as older releases wrote it -------------------------


def legacy_entry(key, config, result, **extra):
    """A schema-1 entry: one ``{"net id": 0/1}`` object per pattern."""

    def fault(f):
        entry = {"net": f.net, "stuck_at": f.stuck_at}
        if f.gate_index is not None:
            entry.update(gate_index=f.gate_index, pin=f.pin)
        return entry

    return {
        "schema": 1,
        "key": key,
        **extra,
        "config": config.to_dict(),
        "result": {
            "schema": 1,
            "circuit": result.circuit_name,
            "test_set": {
                "circuit": result.test_set.circuit_name,
                "patterns": [
                    {str(net): value for net, value in p.assignments.items()}
                    for p in result.test_set
                ],
            },
            "fault_count": result.fault_count,
            "detected_count": result.detected_count,
            "untestable": [fault(f) for f in result.untestable],
            "aborted": [fault(f) for f in result.aborted],
            "random_pattern_count": result.random_pattern_count,
            "deterministic_pattern_count": result.deterministic_pattern_count,
            "pre_compaction_count": result.pre_compaction_count,
        },
    }


@pytest.fixture
def c17_run(c17):
    config = AtpgConfig()
    return c17, config, generate_tests(c17, config=config)


def assert_schema2_entry(path, result):
    payload = json.loads(path.read_text())
    assert payload["schema"] == ATPG_RESULT_SCHEMA == 2
    test_set = payload["result"]["test_set"]
    assert test_set["inputs"] == sorted(test_set["inputs"])
    assert all(isinstance(row, str) for row in test_set["patterns"])
    assert len(test_set["patterns"]) == result.pattern_count


class TestLegacyEntries:
    def test_cache_reads_schema1_as_plain_miss(self, c17_run, tmp_path):
        netlist, config, result = c17_run
        key = result_key(netlist, config)
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(legacy_entry(key, config, result)))

        cache = AtpgResultCache(tmp_path)
        assert cache.get(netlist, config) is None
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 0)
        assert cache.stats.quarantined == 0
        assert not (tmp_path / "quarantine").exists()

        results, manifest = run_jobs([AtpgJob("c17", netlist, config)], cache=cache)
        assert manifest.executed == 1
        assert results[0] == result
        assert_schema2_entry(path, result)
        assert AtpgResultCache(tmp_path).get(netlist, config) == result

    def test_journal_reads_schema1_as_plain_miss(self, c17_run, tmp_path):
        netlist, config, result = c17_run
        key = result_key(netlist, config)
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        path = jobs_dir / f"{key}.json"
        path.write_text(json.dumps(legacy_entry(key, config, result, job="c17")))

        journal = RunJournal(tmp_path, resume=True)
        assert journal.get(key) is None
        results, manifest = run_jobs(
            [AtpgJob("c17", netlist, config)], journal=journal
        )
        assert journal.resumed_jobs == 0
        assert manifest.executed == 1
        assert not (jobs_dir / "quarantine").exists()
        assert results[0] == result
        assert_schema2_entry(path, result)
        assert RunJournal(tmp_path, resume=True).get(key) == result


# -- malformed entries --------------------------------------------------------


def sample_result():
    """A result touching every encoded shape: full, partial and all-X
    rows, sparse input ids, stem and branch faults."""
    patterns = [
        TestPattern({2: 1, 5: 0, 11: 1, 40: 0}),
        TestPattern({5: 1, 40: 1}),
        TestPattern({}),
        TestPattern({2: 0, 11: 0}),
    ]
    return AtpgResult(
        circuit_name="c17",
        test_set=TestSet("c17", patterns),
        fault_count=22,
        detected_count=19,
        untestable=[Fault(3, 0), Fault(4, 1, gate_index=2, pin=1)],
        aborted=[Fault(7, 1, gate_index=0, pin=0)],
        random_pattern_count=3,
        deterministic_pattern_count=1,
        pre_compaction_count=2,
    )


COUNT_FIELDS = (
    "fault_count",
    "detected_count",
    "random_pattern_count",
    "deterministic_pattern_count",
    "pre_compaction_count",
)

#: One value of each JSON type; a swap always picks another type.
SWAPS = (5, -1, 2.5, "5", None, True, [], {}, [1], {"1": 7})


def paths(node, prefix=()):
    """Every (path, value) below ``node``, containers included."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for step, child in children:
        yield prefix + (step,), child
        yield from paths(child, prefix + (step,))


def at(node, path):
    for step in path:
        node = node[step]
    return node


def mutate(result_dict, data):
    """Apply one drawn mutation to a deep copy of ``result_dict``."""
    mutated = json.loads(json.dumps(result_dict))
    test_set = mutated["test_set"]
    rows, ids = test_set["patterns"], test_set["inputs"]
    kind = data.draw(st.sampled_from(
        ["swap", "drop", "bad_char", "short_row", "duplicate_id", "negative"]
    ))
    if kind == "swap":
        path, old = data.draw(st.sampled_from(list(paths(mutated))))
        at(mutated, path[:-1])[path[-1]] = data.draw(st.sampled_from(
            [v for v in SWAPS if type(v) is not type(old)]
        ))
    elif kind == "drop":
        # Fields only: a list that loses an element is still well formed.
        path, _ = data.draw(st.sampled_from(
            [(path, v) for path, v in paths(mutated) if isinstance(path[-1], str)]
        ))
        del at(mutated, path[:-1])[path[-1]]
    elif kind == "bad_char":
        row = data.draw(st.sampled_from([i for i, r in enumerate(rows) if r]))
        column = data.draw(st.integers(0, len(rows[row]) - 1))
        char = data.draw(st.sampled_from("2xX _\x00é"))
        rows[row] = rows[row][:column] + char + rows[row][column + 1:]
    elif kind == "short_row":
        row = data.draw(st.integers(0, len(rows) - 1))
        rows[row] = rows[row][: data.draw(st.integers(0, len(rows[row]) - 1))]
    elif kind == "duplicate_id":
        index = data.draw(st.integers(1, len(ids) - 1))
        ids[index] = ids[index - 1]
    else:
        field = data.draw(st.sampled_from(COUNT_FIELDS))
        mutated[field] = -data.draw(st.integers(1, 10**6))
    return mutated


class TestMalformedEntries:
    """A mutated entry is a quarantined miss or the original result."""

    def setup_method(self):
        self.netlist = parse_bench(C17_BENCH, "c17")
        self.config = AtpgConfig()
        self.key = result_key(self.netlist, self.config)
        self.result = sample_result()

    def payload(self, data):
        return {
            "schema": ATPG_RESULT_SCHEMA,
            "key": self.key,
            "job": "c17",
            "config": self.config.to_dict(),
            "result": mutate(atpg_result_to_dict(self.result), data),
        }

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_cache(self, data):
        payload = self.payload(data)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / f"{self.key}.json"
            path.write_text(json.dumps(payload))
            cache = AtpgResultCache(directory)
            got = cache.get(self.netlist, self.config)
            if got is None:
                assert cache.stats.quarantined == 1
                assert not path.exists()
                assert (Path(directory) / "quarantine" / path.name).exists()
            else:
                assert got == self.result

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_journal(self, data):
        payload = self.payload(data)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "jobs" / f"{self.key}.json"
            path.parent.mkdir()
            path.write_text(json.dumps(payload))
            journal = RunJournal(directory, resume=True)
            got = journal.get(self.key)
            if got is None:
                assert not path.exists()
                assert (path.parent / "quarantine" / path.name).exists()
            else:
                assert got == self.result
                assert journal.resumed_jobs == 1

    @pytest.mark.parametrize(
        "rows",
        [[5], [{"1": 7}], ["0101", 5]],
        ids=["int-row", "legacy-row", "mixed"],
    )
    def test_reported_cases_are_quarantined(self, tmp_path, rows):
        entry = atpg_result_to_dict(self.result)
        entry["test_set"]["patterns"] = rows
        path = tmp_path / f"{self.key}.json"
        path.write_text(json.dumps({
            "schema": ATPG_RESULT_SCHEMA, "key": self.key, "result": entry,
        }))
        cache = AtpgResultCache(tmp_path)
        assert cache.get(self.netlist, self.config) is None
        assert cache.stats.corrupt == cache.stats.quarantined == 1

    def test_non_object_payload_is_quarantined(self, tmp_path):
        path = tmp_path / f"{self.key}.json"
        path.write_text("[1, 2, 3]")
        cache = AtpgResultCache(tmp_path)
        assert cache.get(self.netlist, self.config) is None
        assert cache.stats.quarantined == 1
