"""Differential suite for the kernel backend registry.

Every backend must be bit-identical to ``pure``: detect masks, pattern
counts, coverage, cache fingerprints.  These tests enforce that with
randomized circuits over every opcode, packed widths 1/2/8 lanes,
partial and full batches, both the FFR fast path and the event-driven
fallback, plus the degradation contract (NumPy absent).
"""

import os
import random

import pytest

from repro.atpg.backends import (
    BACKEND_CHOICES,
    BACKEND_ENV,
    NO_NUMPY_ENV,
    numpy_available,
    resolve_backend,
)
from repro.atpg.compiled import CompiledCircuit
from repro.atpg.engine import generate_n_detect_tests, generate_tests
from repro.atpg.faults import Fault, collapse_faults, full_fault_universe
from repro.atpg.faultsim import FaultSimulator, SIM_STATS, reset_sim_stats
from repro.atpg.logicsim import (
    append_pattern_sparse,
    pack_patterns_flat,
    simulate_flat,
)
from repro.atpg.patterns import random_pattern_rails
from repro.errors import ConfigError
from repro.runtime.config import AtpgConfig
from repro.synth import GeneratorSpec, generate_circuit

from .pattern_refs import pack_full_patterns_flat

HAS_NUMPY = numpy_available()
needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")


def _circuit(seed=0, gates=400, inputs=16, xor_fraction=0.25):
    """A mixed-opcode circuit (AND/OR/NAND/NOR/NOT/BUF plus XOR/XNOR)."""
    spec = GeneratorSpec(
        name=f"bk{seed}", inputs=inputs, outputs=12, flip_flops=24,
        target_gates=gates, seed=seed, xor_fraction=xor_fraction,
    )
    return generate_circuit(spec)


def _full_batch(circuit, seed, count):
    """An X-free packed batch of ``count`` random patterns."""
    rng = random.Random(seed)
    ones, zeros = random_pattern_rails(
        circuit.input_ids, rng, count, circuit.net_count
    )
    return ones, zeros


def _partial_patterns(circuit, seed, count):
    """``count`` patterns, each leaving some inputs at X."""
    rng = random.Random(seed)
    patterns = []
    for _ in range(count):
        k = rng.randrange(0, len(circuit.input_ids))
        chosen = rng.sample(list(circuit.input_ids), k)
        patterns.append({n: rng.getrandbits(1) for n in chosen})
    return patterns


def _partial_batch(circuit, seed, count):
    """A packed batch where every pattern leaves some inputs at X."""
    return pack_patterns_flat(circuit, _partial_patterns(circuit, seed, count))


# -- registry and resolution ---------------------------------------------


def test_resolve_default_is_auto(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.delenv(NO_NUMPY_ENV, raising=False)
    backend = resolve_backend()
    # Re-check availability after clearing the env: the module-level
    # HAS_NUMPY snapshot bakes in REPRO_NO_NUMPY from the outer process.
    assert backend.name == ("numpy" if numpy_available() else "pure")


def test_resolve_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "numpy")
    assert resolve_backend("pure").name == "pure"


def test_resolve_env_applies_when_unspecified(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "pure")
    assert resolve_backend().name == "pure"
    assert resolve_backend(None).name == "pure"
    assert resolve_backend("").name == "pure"


def test_no_numpy_masks_numpy(monkeypatch):
    monkeypatch.setenv(NO_NUMPY_ENV, "1")
    assert not numpy_available()
    assert resolve_backend("auto").name == "pure"
    # Even an explicit request degrades gracefully — bit-identical
    # results make that safe.
    assert resolve_backend("numpy").name == "pure"


def test_resolve_unknown_backend_raises():
    with pytest.raises(ConfigError):
        resolve_backend("fortran")


def test_backends_are_singletons():
    assert resolve_backend("pure") is resolve_backend("pure")


def test_compiled_circuit_carries_backend(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    netlist = _circuit(0)
    pure = CompiledCircuit(netlist, backend="pure")
    assert pure.backend_name == "pure"
    assert pure.block_lanes == 1
    if HAS_NUMPY:
        fast = CompiledCircuit(netlist, backend="numpy")
        assert fast.backend_name == "numpy"
        assert fast.block_lanes >= 1


# -- config plumbing ------------------------------------------------------


def test_config_backend_round_trip():
    config = AtpgConfig(backend="pure")
    assert AtpgConfig.from_dict(config.to_dict()) == config
    assert AtpgConfig.from_dict(AtpgConfig().to_dict()).backend is None


def test_config_rejects_unknown_backend():
    with pytest.raises(ConfigError):
        AtpgConfig(backend="fortran")


def test_fingerprint_is_backend_invariant():
    base = AtpgConfig()
    for name in BACKEND_CHOICES:
        assert AtpgConfig(backend=name).fingerprint() == base.fingerprint()
    # ...but still sensitive to real identity fields.
    assert AtpgConfig(seed=7).fingerprint() != base.fingerprint()


# -- kernel differentials -------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("lanes", [1, 2, 8])
@pytest.mark.parametrize("seed", [0, 3])
def test_detect_masks_bit_identity_full_batches(lanes, seed):
    """FFR fast path: numpy == pure for X-free batches at every width."""
    netlist = _circuit(seed)
    pure = CompiledCircuit(netlist, backend="pure")
    fast = CompiledCircuit(netlist, backend="numpy")
    faults = collapse_faults(pure)
    for count in (64 * lanes, 64 * lanes - 7, 1, 2):
        ones, zeros = _full_batch(pure, seed + count, count)
        good_pure, _ = FaultSimulator(pure).good_values_rails(
            list(ones), list(zeros), count
        )
        good_fast, _ = FaultSimulator(fast).good_values_rails(
            list(ones), list(zeros), count
        )
        masks_pure = FaultSimulator(pure).detect_masks(good_pure, count, faults)
        masks_fast = FaultSimulator(fast).detect_masks(good_fast, count, faults)
        assert masks_pure == masks_fast


@needs_numpy
@pytest.mark.parametrize("seed", [1, 4])
def test_detect_masks_bit_identity_partial_batches(seed):
    """Partial (X-bearing) batches route both backends to the event path."""
    netlist = _circuit(seed)
    pure = CompiledCircuit(netlist, backend="pure")
    fast = CompiledCircuit(netlist, backend="numpy")
    faults = collapse_faults(pure)
    for count in (1, 2, 8, 64):
        ones, zeros = _partial_batch(pure, seed + count, count)
        sim_pure, sim_fast = FaultSimulator(pure), FaultSimulator(fast)
        good_pure, _ = sim_pure.good_values_rails(list(ones), list(zeros), count)
        good_fast, _ = sim_fast.good_values_rails(list(ones), list(zeros), count)
        assert sim_pure.detect_masks(good_pure, count, faults) == \
            sim_fast.detect_masks(good_fast, count, faults)


@needs_numpy
@pytest.mark.parametrize("seed", [0, 2])
def test_lane_simulate_matches_simulate_flat(seed):
    """The numpy level-dispatched simulator matches the flat sweep, X included."""
    from repro.atpg.backends.numpy_backend import (
        NumpyBackend,
        rails_to_words,
        words_to_rails,
    )

    netlist = _circuit(seed, xor_fraction=0.4)
    circuit = CompiledCircuit(netlist, backend="numpy")
    for count in (64, 130, 512):
        ones, zeros = _partial_batch(circuit, seed + count, count)
        ref_ones, ref_zeros = list(ones), list(zeros)
        simulate_flat(circuit, ref_ones, ref_zeros, count)
        words = -(-count // 64)
        # frombuffer views are read-only; lane_simulate writes in place.
        ones_w = rails_to_words(ones, words).copy()
        zeros_w = rails_to_words(zeros, words).copy()
        NumpyBackend().lane_simulate(circuit, ones_w, zeros_w)
        full = (1 << count) - 1
        assert [v & full for v in words_to_rails(ones_w)] == ref_ones
        assert [v & full for v in words_to_rails(zeros_w)] == ref_zeros


def test_sparse_simulate_matches_full_sweep():
    """Sparse in-place appends, one bit per pattern == one full sweep."""
    netlist = _circuit(5, xor_fraction=0.3)
    circuit = CompiledCircuit(netlist, backend="pure")
    rng = random.Random(5)
    for _ in range(20):
        count = rng.choice([1, 1, 2, 5])
        patterns = _partial_patterns(circuit, rng.getrandbits(30), count)
        ref_ones, ref_zeros = pack_patterns_flat(circuit, patterns)
        simulate_flat(circuit, ref_ones, ref_zeros, count)
        ones = [0] * circuit.net_count
        zeros = [0] * circuit.net_count
        for bit, pattern in enumerate(patterns):
            append_pattern_sparse(circuit, ones, zeros, pattern, bit)
        assert ones == ref_ones
        assert zeros == ref_zeros


def test_pack_full_patterns_matches_general_packer():
    netlist = _circuit(6)
    circuit = CompiledCircuit(netlist, backend="pure")
    rng = random.Random(6)
    patterns = [
        {n: rng.getrandbits(1) for n in circuit.input_ids} for _ in range(37)
    ]
    assert pack_full_patterns_flat(circuit, patterns) == \
        pack_patterns_flat(circuit, patterns)


def test_collapse_universe_fast_path_matches_generic():
    for seed in (0, 1, 2):
        netlist = _circuit(seed, xor_fraction=0.3)
        circuit = CompiledCircuit(netlist, backend="pure")
        assert collapse_faults(circuit) == \
            collapse_faults(circuit, full_fault_universe(circuit))


# -- end-to-end equality --------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("lanes", [1, 2, 8])
def test_generate_tests_backend_equality(monkeypatch, lanes):
    """Full ATPG runs are pattern-for-pattern identical at any lane width."""
    from repro.atpg.backends.numpy_backend import NumpyBackend

    monkeypatch.setattr(
        NumpyBackend, "lanes_for", lambda self, circuit: lanes
    )
    netlist = _circuit(7, gates=500, inputs=20)
    reference = generate_tests(netlist, 7, config=AtpgConfig(seed=7, backend="pure"))
    fast = generate_tests(netlist, 7, config=AtpgConfig(seed=7, backend="numpy"))
    assert [p.assignments for p in fast.test_set.patterns] == \
        [p.assignments for p in reference.test_set.patterns]
    assert fast.fault_coverage == reference.fault_coverage
    assert fast.detected_count == reference.detected_count
    assert fast.untestable == reference.untestable


@needs_numpy
def test_n_detect_backend_equality():
    netlist = _circuit(8, gates=300)
    reference = generate_n_detect_tests(
        netlist, n_detect=2, config=AtpgConfig(seed=8, backend="pure")
    )
    fast = generate_n_detect_tests(
        netlist, n_detect=2, config=AtpgConfig(seed=8, backend="numpy")
    )
    assert [p.assignments for p in fast.test_set.patterns] == \
        [p.assignments for p in reference.test_set.patterns]
    assert fast.fault_coverage == reference.fault_coverage


# -- observability --------------------------------------------------------


def test_kernel_counters_accrue():
    netlist = _circuit(10)
    reset_sim_stats()
    generate_tests(netlist, 10)
    assert SIM_STATS["blocks_evaluated"] > 0


#: Counters of one traced ``generate_tests`` on the flat SOC1 at seed 3.
#: A cold-ATPG change keeps all of them identical, except
#: ``faultsim.gate_evals``, which may only fall: it read 34,736 (pure)
#: and 17,841 (numpy) while every live region root took an event chase,
#: before stem-region analysis chased only the reconvergent ones.
FLAT_SOC1_COUNTERS = {
    "podem.calls": 29,
    "podem.backtracks": 414,
    "podem.decisions": 519,
    "podem.events": 22373,
    "podem.undo_depth": 11659,
    "atpg.patterns.random": 212,
    "atpg.patterns.deterministic": 3,
    "atpg.patterns.pre_compaction": 10,
    "atpg.patterns.final": 159,
}
FLAT_SOC1_BACKEND_COUNTERS = {
    "pure": {
        "faultsim.detect_calls": 9535,
        "faultsim.fault_pattern_evals": 607350,
        "kernel.blocks_evaluated": 19,
        "faultsim.gate_evals": 7844,
    },
    "numpy": {
        "faultsim.detect_calls": 8085,
        "faultsim.fault_pattern_evals": 2936128,
        "kernel.blocks_evaluated": 3,
        "faultsim.gate_evals": 8372,
    },
}


@pytest.mark.parametrize(
    "backend", ["pure", pytest.param("numpy", marks=needs_numpy)]
)
def test_flat_soc1_kernel_counters_are_pinned(backend):
    from repro.observability import Tracer, use_tracer
    from repro.synth.socgen import elaborate, soc1_design

    netlist = elaborate(soc1_design(), seed=3).monolithic
    tracer = Tracer()
    with use_tracer(tracer):
        generate_tests(netlist, config=AtpgConfig(seed=3, backend=backend))
    expected = {**FLAT_SOC1_COUNTERS, **FLAT_SOC1_BACKEND_COUNTERS[backend]}
    assert {name: tracer.counters.get(name) for name in expected} == expected


def test_traced_run_reports_backend():
    from repro.observability import Tracer, use_tracer

    netlist = _circuit(11, gates=200)
    tracer = Tracer()
    with use_tracer(tracer):
        generate_tests(netlist, 11)
    backend = resolve_backend().name
    assert tracer.counters.get(f"kernel.backend.{backend}") == 1
    assert tracer.counters.get("kernel.blocks_evaluated", 0) > 0
