"""Differential suite for the pattern-block width.

``CompiledCircuit.block_lanes`` packs 1, 4 or 8 64-bit words of
patterns per block, by circuit size.  Every width must give the same
patterns, coverage and verdicts as one-word blocks; these tests force
widths on randomized circuits over every opcode, end to end through
``generate_tests``, and check that no path imports NumPy.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.atpg import compiled
from repro.atpg.compiled import CompiledCircuit
from repro.atpg.engine import generate_n_detect_tests, generate_tests
from repro.atpg.faults import collapse_faults, full_fault_universe
from repro.atpg.faultsim import SIM_STATS, reset_sim_stats
from repro.atpg.logicsim import (
    append_pattern_sparse,
    pack_patterns_flat,
    simulate_flat,
)
from repro.circuit import Netlist
from repro.circuit.gates import GateType
from repro.runtime.config import AtpgConfig
from repro.synth import GeneratorSpec, generate_circuit

from .pattern_refs import pack_full_patterns_flat

SRC = Path(__file__).resolve().parents[1] / "src"


def _circuit(seed=0, gates=400, inputs=16, xor_fraction=0.25):
    """A mixed-opcode circuit (AND/OR/NAND/NOR/NOT/BUF plus XOR/XNOR)."""
    spec = GeneratorSpec(
        name=f"bk{seed}", inputs=inputs, outputs=12, flip_flops=24,
        target_gates=gates, seed=seed, xor_fraction=xor_fraction,
    )
    return generate_circuit(spec)


def _partial_patterns(circuit, seed, count):
    """``count`` patterns, each leaving some inputs at X."""
    rng = random.Random(seed)
    patterns = []
    for _ in range(count):
        k = rng.randrange(0, len(circuit.input_ids))
        chosen = rng.sample(list(circuit.input_ids), k)
        patterns.append({n: rng.getrandbits(1) for n in chosen})
    return patterns


def _at_lanes(netlist, lanes):
    """``netlist`` compiled with its block width forced to ``lanes``."""
    circuit = CompiledCircuit(netlist)
    circuit.block_lanes = lanes
    return circuit


def _chain(nets):
    """A netlist of exactly ``nets`` nets: one input and a NOT chain."""
    netlist = Netlist(f"chain{nets}")
    netlist.add_input("n0")
    for k in range(1, nets):
        netlist.add_gate(GateType.NOT, f"n{k}", [f"n{k - 1}"])
    netlist.mark_output(f"n{nets - 1}")
    return netlist


# -- the lane table -------------------------------------------------------


@pytest.mark.parametrize("nets,lanes", [(191, 1), (192, 4), (383, 4), (384, 8)])
def test_block_lanes_step_at_the_table_thresholds(nets, lanes):
    circuit = CompiledCircuit(_chain(nets))
    assert circuit.net_count == nets
    assert circuit.block_lanes == lanes


def test_no_path_imports_numpy():
    """Benchmark set-up plus a wide-block ATPG run leave NumPy unloaded."""
    script = """
import sys
assert "numpy" not in sys.modules, "the interpreter loads NumPy at start-up"
from repro.atpg.backends import resolve_backend
from repro.atpg.compiled import CompiledCircuit
from repro.atpg.engine import generate_tests
from repro.synth import GeneratorSpec, generate_circuit

assert resolve_backend().name == "pure"
netlist = generate_circuit(GeneratorSpec(
    name="wide", inputs=16, outputs=12, flip_flops=24, target_gates=400,
    seed=0,
))
circuit = CompiledCircuit(netlist)
assert circuit.net_count >= 384, circuit.net_count
generate_tests(netlist, circuit=circuit)
print(circuit.block_lanes, "numpy" in sys.modules)
"""
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["8", "False"]


# -- packing and collapse fast paths -------------------------------------


def test_sparse_simulate_matches_full_sweep():
    """Sparse in-place appends, one bit per pattern == one full sweep."""
    netlist = _circuit(5, xor_fraction=0.3)
    circuit = CompiledCircuit(netlist)
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
    circuit = CompiledCircuit(netlist)
    rng = random.Random(6)
    patterns = [
        {n: rng.getrandbits(1) for n in circuit.input_ids} for _ in range(37)
    ]
    assert pack_full_patterns_flat(circuit, patterns) == \
        pack_patterns_flat(circuit, patterns)


def test_collapse_universe_fast_path_matches_generic():
    for seed in (0, 1, 2):
        netlist = _circuit(seed, xor_fraction=0.3)
        circuit = CompiledCircuit(netlist)
        assert collapse_faults(circuit) == \
            collapse_faults(circuit, full_fault_universe(circuit))


# -- end-to-end equality --------------------------------------------------


@pytest.mark.parametrize("lanes", [1, 2, 8])
def test_generate_tests_backend_equality(lanes):
    """Full ATPG runs are pattern-for-pattern identical at any lane width."""
    netlist = _circuit(7, gates=500, inputs=20)
    config = AtpgConfig(seed=7)
    reference = generate_tests(netlist, config=config, circuit=_at_lanes(netlist, 1))
    wide = generate_tests(netlist, config=config, circuit=_at_lanes(netlist, lanes))
    assert [p.assignments for p in wide.test_set.patterns] == \
        [p.assignments for p in reference.test_set.patterns]
    assert wide.fault_coverage == reference.fault_coverage
    assert wide.detected_count == reference.detected_count
    assert wide.untestable == reference.untestable


def test_n_detect_backend_equality(monkeypatch):
    netlist = _circuit(8, gates=300)
    config = AtpgConfig(seed=8)
    results = []
    for lanes in (1, 8):
        monkeypatch.setattr(compiled, "lanes_for", lambda nets, lanes=lanes: lanes)
        results.append(generate_n_detect_tests(netlist, n_detect=2, config=config))
    reference, wide = results
    assert [p.assignments for p in wide.test_set.patterns] == \
        [p.assignments for p in reference.test_set.patterns]
    assert wide.fault_coverage == reference.fault_coverage


# -- observability --------------------------------------------------------


def test_kernel_counters_accrue():
    netlist = _circuit(10)
    reset_sim_stats()
    generate_tests(netlist, 10)
    assert SIM_STATS["blocks_evaluated"] > 0


#: Counters of one traced ``generate_tests`` on the flat SOC1 at seed 3.
#: A cold-ATPG change keeps all of them identical, except
#: ``faultsim.gate_evals``, which may only fall: it read 34,736 (one
#: lane) and 17,841 (default width) while every live region root took an
#: event chase, before stem-region analysis chased only the reconvergent
#: ones.
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
#: Width-dependent counters, at the flat SOC1's default width (8
#: lanes) and forced to one-word blocks.
FLAT_SOC1_LANE_COUNTERS = {
    "default": {
        "faultsim.detect_calls": 8085,
        "faultsim.fault_pattern_evals": 2936128,
        "kernel.blocks_evaluated": 3,
        "faultsim.gate_evals": 8372,
    },
    "one-lane": {
        "faultsim.detect_calls": 9535,
        "faultsim.fault_pattern_evals": 607350,
        "kernel.blocks_evaluated": 19,
        "faultsim.gate_evals": 7844,
    },
}


@pytest.mark.parametrize("width", list(FLAT_SOC1_LANE_COUNTERS))
def test_flat_soc1_kernel_counters_are_pinned(width):
    from repro.observability import Tracer, use_tracer
    from repro.synth.socgen import elaborate, soc1_design

    netlist = elaborate(soc1_design(), seed=3).monolithic
    circuit = CompiledCircuit(netlist)
    if width == "default":
        assert circuit.block_lanes == 8
    else:
        circuit.block_lanes = 1
    tracer = Tracer()
    with use_tracer(tracer):
        generate_tests(netlist, config=AtpgConfig(seed=3), circuit=circuit)
    expected = {**FLAT_SOC1_COUNTERS, **FLAT_SOC1_LANE_COUNTERS[width]}
    assert {name: tracer.counters.get(name) for name in expected} == expected
