"""Differential tests for the ATPG hot-path kernels.

Each optimized path is checked bit-for-bit against its reference
implementation on randomized circuits:

* :class:`ImplicationKernel` (incremental PODEM implication) against
  :meth:`Podem._imply` full sweeps, over random assign/undo walks and
  over complete searches;
* :func:`random_pattern_rails` (direct packed generation, one
  ``getrandbits`` call per slice of patterns) against the
  one-call-per-bit loop it replaced and the per-pattern dict path,
  including the shared-RNG state contract;
* :class:`_PatternBlock` (sparse merge of PODEM patterns) against one
  packed simulation of the same patterns;
* :meth:`FaultSimulator.detect_masks` (batched, with the fanout-free
  region fast path for fully specified batches) against single-fault
  :meth:`detect_mask`;
* :class:`FaultShardPool` / ``workers`` (fault-parallel verification)
  against the serial sweep.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import (
    CompiledCircuit,
    Fault,
    FaultShardPool,
    FaultSimulator,
    Podem,
    PodemOutcome,
    collapse_faults,
    fault_coverage,
    full_fault_universe,
    generate_tests,
)
from repro.atpg import patterns as patterns_module
from repro.atpg.engine import _PatternBlock
from repro.atpg.logicsim import pack_patterns_flat, simulate_flat
from repro.atpg.patterns import TestPattern, random_pattern, random_pattern_rails
from repro.atpg.podem import ImplicationKernel, X
from repro.synth.generator import GeneratorSpec, generate_circuit

from .pattern_refs import pattern_from_rails


def make_circuit(seed, gates=160, inputs=9, outputs=5, flip_flops=6):
    net = generate_circuit(
        GeneratorSpec(
            name=f"podem_kernel_{seed}",
            inputs=inputs,
            outputs=outputs,
            flip_flops=flip_flops,
            target_gates=gates,
            seed=seed,
        )
    )
    return CompiledCircuit(net)


def assert_states_equal(kernel_state, reference_state, context):
    assert kernel_state.values == reference_state.values, context
    assert kernel_state.frontier == reference_state.frontier, context
    assert kernel_state.detected == reference_state.detected, context


class TestImplicationKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_assign_undo_walk_matches_reference(self, seed):
        """After every assign/undo the kernel equals a fresh full sweep."""
        circuit = make_circuit(seed)
        podem = Podem(circuit)
        kernel = ImplicationKernel(podem)
        rng = random.Random(100 + seed)
        faults = collapse_faults(circuit, full_fault_universe(circuit))
        inputs = list(circuit.input_ids)

        for fault in rng.sample(faults, 8):
            kernel.begin(fault, {})
            assignments = {}
            # (mark, dict snapshot) checkpoints for random undo.
            checkpoints = []
            for step in range(40):
                if checkpoints and rng.random() < 0.35:
                    mark, snapshot = checkpoints.pop(
                        rng.randrange(len(checkpoints))
                    )
                    # undo() only rewinds, so later checkpoints die with it.
                    checkpoints = [
                        (m, s) for m, s in checkpoints if m <= mark
                    ]
                    kernel.undo(mark)
                    assignments = snapshot
                else:
                    net_id = rng.choice(inputs)
                    if net_id in assignments:
                        continue
                    checkpoints.append((kernel.mark(), dict(assignments)))
                    value = rng.getrandbits(1)
                    assignments[net_id] = value
                    kernel.assign(net_id, value)
                reference = podem._imply(assignments, fault)
                assert_states_equal(
                    kernel.state(), reference,
                    (seed, fault, step, sorted(assignments.items())),
                )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_begin_without_assignments_matches_reference(self, seed):
        """The all-X fast path in begin() equals an actual empty sweep."""
        circuit = make_circuit(seed, gates=100)
        podem = Podem(circuit)
        kernel = ImplicationKernel(podem)
        for fault in collapse_faults(circuit, full_fault_universe(circuit))[:20]:
            kernel.begin(fault, {})
            reference = podem._imply({}, fault)
            assert reference.values == [X] * circuit.net_count
            assert_states_equal(kernel.state(), reference, fault)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_incremental_search_equals_reference_search(self, seed):
        """Full searches agree: outcome, pattern, backtracks, decisions."""
        circuit = make_circuit(seed, gates=140)
        incremental = Podem(circuit, incremental=True)
        reference = Podem(circuit, incremental=False)
        for fault in collapse_faults(circuit, full_fault_universe(circuit)):
            got = incremental.generate(fault)
            want = reference.generate(fault)
            context = fault.describe(circuit)
            assert got.outcome is want.outcome, context
            assert got.backtracks == want.backtracks, context
            assert got.decisions == want.decisions, context
            if want.outcome is PodemOutcome.DETECTED:
                assert got.pattern.assignments == want.pattern.assignments, context


def reference_rails(input_ids, rng, count, net_count):
    """The one-``getrandbits(1)``-per-bit loop the packed draw replaced."""
    ones = [0] * net_count
    zeros = [0] * net_count
    vals = [0] * len(input_ids)
    for bit in range(count):
        mask = 1 << bit
        vals = [v | mask if rng.getrandbits(1) else v for v in vals]
    full = (1 << count) - 1
    for net_id, value in zip(input_ids, vals):
        ones[net_id] = value
        zeros[net_id] = value ^ full
    return ones, zeros


def assert_rails_match_reference(input_ids, net_count, count, seed):
    rng_rails = random.Random(seed)
    rng_reference = random.Random(seed)
    got = random_pattern_rails(input_ids, rng_rails, count, net_count)
    assert got == reference_rails(input_ids, rng_reference, count, net_count)
    # Both must leave the shared RNG in the same state, or mixing them
    # inside one run would shift every later draw.
    assert rng_rails.getstate() == rng_reference.getstate()


class TestPackedRandomPatterns:
    # 512 is the numpy backend's 8-lane draw.
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("count", [0, 1, 17, 64, 512])
    def test_rails_match_dict_path_and_rng_state(self, seed, count):
        circuit = make_circuit(seed, gates=80)
        assert_rails_match_reference(
            circuit.input_ids, circuit.net_count, count, 500 + seed
        )
        # The per-pattern dict path draws the same bits in the same order.
        rng_rails = random.Random(500 + seed)
        rng_dicts = random.Random(500 + seed)
        ones, zeros = random_pattern_rails(
            circuit.input_ids, rng_rails, count, circuit.net_count
        )
        patterns = [
            random_pattern(circuit.input_ids, rng_dicts) for _ in range(count)
        ]
        want_ones, want_zeros = pack_patterns_flat(
            circuit, [p.assignments for p in patterns]
        )
        assert ones == want_ones
        assert zeros == want_zeros
        assert rng_rails.getstate() == rng_dicts.getstate()

    @pytest.mark.parametrize("count", [0, 1, 64])
    def test_zero_input_circuit_draws_nothing(self, count):
        rng = random.Random(3)
        before = rng.getstate()
        assert random_pattern_rails([], rng, count, 6) == ([0] * 6, [0] * 6)
        assert rng.getstate() == before

    def test_draws_above_the_slice_cap(self):
        # 2048 inputs x 600 patterns = 1,228,800 draws: two slices.
        width = 2048
        assert 600 * width > patterns_module.DRAW_SLICE
        input_ids = list(range(1, 2 * width, 2))
        assert_rails_match_reference(input_ids, 2 * width + 1, 600, 77)

    @pytest.mark.parametrize("cap", [1, 9, 10, 64])
    def test_slices_split_mid_batch(self, monkeypatch, cap):
        circuit = make_circuit(5, gates=60)
        monkeypatch.setattr(patterns_module, "DRAW_SLICE", cap)
        assert_rails_match_reference(
            circuit.input_ids, circuit.net_count, 23, 11
        )

    def test_pattern_from_rails_round_trip(self):
        circuit = make_circuit(7, gates=60)
        rng = random.Random(42)
        count = 23
        ones, _ = random_pattern_rails(
            circuit.input_ids, rng, count, circuit.net_count
        )
        rng_replay = random.Random(42)
        for bit in range(count):
            want = random_pattern(circuit.input_ids, rng_replay)
            got = pattern_from_rails(circuit.input_ids, ones, bit)
            assert got.assignments == want.assignments


class TestPatternBlock:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_block_equals_packed_simulation(self, data):
        """k adds hold exactly the rails of the k patterns simulated
        together."""
        circuit = make_circuit(data.draw(st.integers(0, 3)), gates=90)
        block = _PatternBlock(FaultSimulator(circuit))
        inputs = circuit.input_ids
        k = data.draw(st.integers(1, min(block.capacity, 70)))
        patterns = data.draw(st.lists(
            st.dictionaries(st.sampled_from(inputs), st.integers(0, 1)),
            min_size=k,
            max_size=k,
        ))
        for assignments in patterns:
            block.add(TestPattern(assignments))
        ones, zeros = simulate_flat(
            circuit, *pack_patterns_flat(circuit, patterns), k
        )
        assert block.count == k
        assert (block.ones, block.zeros) == (ones, zeros)


class TestDetectMasksBatch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fully_specified_batch_matches_single_fault_path(self, seed):
        """The FFR fast path (fully specified batch) is exact."""
        circuit = make_circuit(seed)
        rng = random.Random(900 + seed)
        patterns = [
            {n: rng.getrandbits(1) for n in circuit.input_ids}
            for _ in range(48)
        ]
        simulator = FaultSimulator(circuit)
        good, count = simulator.good_values(patterns)
        faults = full_fault_universe(circuit)
        masks = simulator.detect_masks(good, count, faults)
        for fault, mask in zip(faults, masks):
            assert mask == simulator.detect_mask(good, count, fault), (
                fault.describe(circuit)
            )

    @pytest.mark.parametrize("seed", [3, 4])
    def test_partial_batch_matches_single_fault_path(self, seed):
        """Batches with X bits take the event path; still identical."""
        circuit = make_circuit(seed, gates=120)
        rng = random.Random(1100 + seed)
        patterns = [
            {
                n: rng.choice((0, 1, None))
                for n in circuit.input_ids
            }
            for _ in range(32)
        ]
        simulator = FaultSimulator(circuit)
        good, count = simulator.good_values(patterns)
        faults = full_fault_universe(circuit)
        masks = simulator.detect_masks(good, count, faults)
        for fault, mask in zip(faults, masks):
            assert mask == simulator.detect_mask(good, count, fault), (
                fault.describe(circuit)
            )


class TestFaultParallel:
    def test_shard_pool_masks_match_serial(self):
        circuit = make_circuit(6)
        rng = random.Random(1300)
        patterns = [
            {n: rng.getrandbits(1) for n in circuit.input_ids}
            for _ in range(40)
        ]
        simulator = FaultSimulator(circuit)
        good, count = simulator.good_values(patterns)
        faults = full_fault_universe(circuit)
        serial = simulator.detect_masks(good, count, faults)
        # min_shard=1 forces the real process pool even on small inputs.
        with FaultShardPool(
            circuit, faults, workers=2, simulator=simulator, min_shard=1
        ) as pool:
            sharded = pool.detect_masks(good, count, faults)
        assert sharded == serial

    def test_generate_tests_workers_bit_identical(self):
        netlist = generate_circuit(
            GeneratorSpec(name="pk_workers", inputs=8, outputs=4,
                          flip_flops=5, target_gates=130, seed=11)
        )
        serial = generate_tests(netlist, seed=3, workers=1)
        parallel = generate_tests(netlist, seed=3, workers=2)
        assert serial.pattern_count == parallel.pattern_count
        assert serial.fault_coverage == parallel.fault_coverage
        assert [p.assignments for p in serial.test_set.patterns] == [
            p.assignments for p in parallel.test_set.patterns
        ]

    def test_fault_coverage_workers_bit_identical(self):
        circuit = make_circuit(8, gates=110)
        rng = random.Random(1500)
        patterns = [
            {n: rng.getrandbits(1) for n in circuit.input_ids}
            for _ in range(30)
        ]
        faults = collapse_faults(circuit, full_fault_universe(circuit))
        serial = fault_coverage(circuit, patterns, faults, workers=1)
        parallel = fault_coverage(circuit, patterns, faults, workers=2)
        assert serial == parallel
