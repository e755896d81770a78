"""Complete patterns as rows: exactness of every path that moves them.

A complete test pattern is one ``0``/``1`` character per input
(:class:`TestPattern` row form) from the random phase to the cache
entry.  These tests hold each row path to the dict form it replaced:
rows cut from a block's rails, rails packed from rows, equality with a
dict twin, every fill path, the schema-2 codec, the cache bytes, and
pickling across worker processes.
"""

import hashlib
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import CompiledCircuit, generate_tests
from repro.atpg import streams
from repro.atpg.fill import FILL_STRATEGIES, fill_pattern
from repro.atpg.patterns import (
    TestPattern,
    TestSet,
    pack_rows,
    random_pattern,
    row_pattern,
    rows_from_rails,
)
from repro.circuit import parse_bench
from repro.core import serialization
from repro.runtime import AtpgConfig, AtpgJob, AtpgResultCache, run_jobs
from repro.synth import GeneratorSpec, generate_circuit

from .conftest import C17_BENCH, SEQ_BENCH
from .pattern_refs import pack_full_patterns_flat, pattern_from_rails


def make_circuit(seed=0, inputs=12, flip_flops=8, gates=120):
    return CompiledCircuit(generate_circuit(GeneratorSpec(
        name=f"rows{seed}", inputs=inputs, outputs=6, flip_flops=flip_flops,
        target_gates=gates, seed=seed,
    )))


def dict_fill(assignments, input_ids, rng):
    """The per-bit dict fill the row fill replaced."""
    filled = dict(assignments)
    for net_id in input_ids:
        if net_id not in filled:
            filled[net_id] = rng.getrandbits(1)
    return filled


def partial_pattern(input_ids, rng):
    chosen = rng.sample(list(input_ids), rng.randrange(len(input_ids) + 1))
    return TestPattern({net_id: rng.getrandbits(1) for net_id in chosen})


# -- rows from rails ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rows_from_rails_match_reference_dicts(data):
    count = data.draw(st.sampled_from([1, 63, 64, 65, 512]))
    width = data.draw(st.integers(0, 40))
    input_ids = sorted(data.draw(st.sets(
        st.integers(0, 3 * width + 2), min_size=width, max_size=width
    )))
    net_count = (input_ids[-1] if input_ids else 0) + 3
    ones = [0] * net_count
    for net_id in input_ids:
        ones[net_id] = data.draw(st.integers(0, (1 << count) - 1))
    bits = sorted(data.draw(st.sets(st.integers(0, count - 1))))
    assert rows_from_rails(input_ids, ones, count, []) == []
    rows = rows_from_rails(input_ids, ones, count, bits)
    assert rows == [pattern_from_rails(input_ids, ones, bit) for bit in bits]
    for pattern, bit in zip(rows, bits):
        assert pattern.row is not None and pattern.row_ids is input_ids
        assert pattern.assignments == pattern_from_rails(input_ids, ones, bit).assignments


def test_rows_from_rails_zero_input_circuit():
    rows = rows_from_rails([], [0, 0], 64, [0, 5, 63])
    assert [pattern.row for pattern in rows] == ["", "", ""]
    assert all(pattern.assignments == {} for pattern in rows)
    assert rows_from_rails([], [0], 1, []) == []


# -- rails from rows ----------------------------------------------------------


@pytest.mark.parametrize("chunk", [1, 64, 511, 512])
def test_pack_rows_matches_reference_packer(chunk):
    circuit = make_circuit(chunk % 7, inputs=20, flip_flops=13)
    rng = random.Random(chunk)
    patterns = [random_pattern(circuit.input_ids, rng) for _ in range(chunk)]
    assert pack_rows(circuit, [p.row for p in patterns]) == pack_full_patterns_flat(
        circuit, [p.assignments for p in patterns]
    )


# -- equality and reads -------------------------------------------------------


def test_row_and_dict_twin_agree():
    input_ids = [0, 1, 2, 5, 9]
    row = row_pattern(input_ids, [1, 0, 0, 1, 1])
    twin = TestPattern({9: 1, 0: 1, 2: 0, 1: 0, 5: 1})
    assert row == twin and twin == row
    assert not row != twin
    assert row.assignments == twin.assignments == {0: 1, 1: 0, 2: 0, 5: 1, 9: 1}
    assert row.as_trits(input_ids) == twin.as_trits(input_ids)
    assert row.as_trits([5, 7]) == twin.as_trits([5, 7]) == {5: 1, 7: None}
    assert row.specified_bits() == twin.specified_bits() == 5
    # Every read builds a fresh dict; mutating one changes nothing.
    row.assignments[0] = 0
    assert row.assignments is not row.assignments
    assert row == twin


def test_rows_compare_as_rows_or_dicts():
    ids = [3, 4, 8]
    row = TestPattern.from_row(ids, "011")
    assert row == TestPattern.from_row(list(ids), "011")
    assert row != TestPattern.from_row(ids, "010")
    assert row != TestPattern({3: 0, 4: 1})
    # Same values over differently ordered ids: compared as dicts.
    assert row == TestPattern.from_row([8, 3, 4], "101")


# -- fill ---------------------------------------------------------------------


def test_row_fills_to_itself_without_draws():
    input_ids = list(range(30))
    row = random_pattern(input_ids, random.Random(1))
    rng = random.Random(7)
    state = rng.getstate()
    assert row.filled(input_ids, rng) is row
    for strategy in FILL_STRATEGIES:
        filled = fill_pattern(row, input_ids, strategy, rng)
        assert filled == row and filled.row == row.row
    assert streams.fill_pattern(row, input_ids, seed=3, pattern_index=9) == row
    assert rng.getstate() == state


def test_complete_dict_fills_to_row_without_draws():
    input_ids = list(range(10))
    complete = TestPattern({n: n % 2 for n in input_ids})
    rng = random.Random(4)
    state = rng.getstate()
    filled = complete.filled(input_ids, rng)
    assert filled.row == "0101010101" and filled == complete
    assert rng.getstate() == state


@pytest.mark.parametrize("seed", range(6))
def test_partial_fill_draws_match_the_dict_fill(seed):
    input_ids = list(range(0, 140, 2))
    rng = random.Random(seed)
    patterns = [partial_pattern(input_ids, rng) for _ in range(12)]
    got_rng, ref_rng = random.Random(seed), random.Random(seed)
    for pattern in patterns:
        filled = pattern.filled(input_ids, got_rng)
        assert filled.row is not None and filled.row_ids is input_ids
        assert filled.assignments == dict_fill(pattern.assignments, input_ids, ref_rng)
    assert got_rng.getstate() == ref_rng.getstate()

    got_rng, ref_rng = random.Random(seed), random.Random(seed)
    for pattern in patterns:
        filled = fill_pattern(pattern, input_ids, "random", got_rng)
        assert filled.assignments == dict_fill(pattern.assignments, input_ids, ref_rng)
    assert got_rng.getstate() == ref_rng.getstate()


def test_constant_and_adjacent_fill_rows():
    input_ids = [0, 1, 2, 3, 4, 5]
    pattern = TestPattern({1: 1, 4: 0})
    assert fill_pattern(pattern, input_ids, "zero").row == "010000"
    assert fill_pattern(pattern, input_ids, "one").row == "111101"
    assert fill_pattern(pattern, input_ids, "adjacent").row == "011100"


def test_stream2_partial_fill_is_a_row_with_the_keyed_bits():
    input_ids = list(range(150))
    pattern = TestPattern({3: 1, 70: 0, 149: 1})
    filled = streams.fill_pattern(pattern, input_ids, seed=5, pattern_index=2)
    assert filled.row is not None
    for pos, net_id in enumerate(input_ids):
        word = streams.stream_word(5, 2, pos >> 6, streams.DOMAIN_FILL)
        want = pattern.assignments.get(net_id, (word >> (pos & 63)) & 1)
        assert filled.assignments[net_id] == want


# -- codec --------------------------------------------------------------------


def test_row_set_encodes_like_its_dict_twin():
    input_ids = list(range(0, 40, 3))
    rng = random.Random(2)
    rows = [random_pattern(input_ids, rng) for _ in range(9)]
    twins = [TestPattern(dict(p.assignments)) for p in rows]
    row_entry = serialization.test_set_to_dict(TestSet("c", rows))
    assert json.dumps(row_entry) == json.dumps(serialization.test_set_to_dict(TestSet("c", twins)))
    decoded = serialization.test_set_from_dict(json.loads(json.dumps(row_entry)))
    assert all(p.row is not None for p in decoded.patterns)
    assert decoded.patterns == rows


def test_mixed_set_decodes_rows_and_dicts():
    entry = {"circuit": "c", "inputs": [1, 4, 6], "patterns": ["101", "1-0", "000"]}
    decoded = serialization.test_set_from_dict(entry).patterns
    assert [p.row for p in decoded] == ["101", None, "000"]
    assert decoded[1].assignments == {1: 1, 6: 0}
    assert serialization.test_set_to_dict(TestSet("c", decoded)) == entry


#: sha256 of the cache entry ``AtpgResultCache.put`` writes for each
#: fixture netlist at the default config, computed while patterns were
#: still dicts: the row codec must write the same bytes.
PINNED_ENTRY_SHA256 = {
    "c17": "899371ec3ecc29420d88e79fa6a39e7401a76ce085963c96546cf6f33bd8d37e",
    "seq": "bfb8761ffc7d096a43f67d3d65cab4c72ab11fefdba005cd775b5cab186d9ae4",
}


@pytest.mark.parametrize("name,text", [("c17", C17_BENCH), ("seq", SEQ_BENCH)])
def test_cache_entry_bytes_are_pinned(name, text, tmp_path):
    netlist = parse_bench(text, name)
    config = AtpgConfig()
    result = generate_tests(netlist, config=config)
    key = AtpgResultCache(tmp_path).put(netlist, config, result)
    data = (tmp_path / f"{key}.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_ENTRY_SHA256[name]


# -- structure ----------------------------------------------------------------


def test_results_hold_rows_fresh_and_from_the_cache(tmp_path):
    netlist = generate_circuit(GeneratorSpec(
        name="rowsgen", inputs=10, outputs=5, flip_flops=12,
        target_gates=150, seed=8,
    ))
    config = AtpgConfig(seed=8)
    result = generate_tests(netlist, config=config)
    circuit = CompiledCircuit(netlist)
    assert result.test_set.patterns
    for pattern in result.test_set.patterns:
        assert pattern.row is not None and pattern.row_ids == circuit.input_ids
    AtpgResultCache(tmp_path).put(netlist, config, result)
    cached = AtpgResultCache(tmp_path).get(netlist, config)
    assert cached == result
    assert all(p.row is not None for p in cached.test_set.patterns)


def test_rows_survive_worker_processes():
    jobs = [
        AtpgJob(f"w{seed}", generate_circuit(GeneratorSpec(
            name=f"w{seed}", inputs=8, outputs=4, flip_flops=6,
            target_gates=80, seed=seed,
        )), AtpgConfig(seed=seed))
        for seed in (1, 2, 3)
    ]
    serial, _ = run_jobs(jobs, workers=1)
    parallel, _ = run_jobs(jobs, workers=2)
    assert parallel == serial
    for result in parallel:
        assert all(p.row is not None for p in result.test_set.patterns)
    copy = pickle.loads(pickle.dumps(serial[0]))
    assert copy == serial[0]
    assert all(p.row is not None for p in copy.test_set.patterns)
