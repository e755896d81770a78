"""Property-based tests (hypothesis) for the core invariants.

These pin down the algebraic claims the reproduction rests on: the
Eq. 6 identity with its exact residual, non-negativity of the benefit,
compaction soundness, the D-algebra's componentwise definition, and the
wrapper/TDV bit-conservation link.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import (
    CompiledCircuit,
    FaultSimulator,
    TestPattern,
    collapse_faults,
    evaluate_gate5,
    fold_gate5,
    full_fault_universe,
    static_compact,
)
from repro.circuit import GateType, evaluate_gate
from repro.core import (
    chip_io_residual,
    decompose,
    summarize,
    tdv_benefit,
    tdv_modular,
    tdv_monolithic,
    tdv_penalty,
)
from repro.soc import Core, Soc, isocost, isocost_from_wrappers
from repro.synth import GeneratorSpec, generate_circuit
from repro.tam import design_wrapper


# -- strategies ---------------------------------------------------------------

core_values = st.tuples(
    st.integers(min_value=0, max_value=200),  # inputs
    st.integers(min_value=0, max_value=200),  # outputs
    st.integers(min_value=0, max_value=50),  # bidirs
    st.integers(min_value=0, max_value=5000),  # scan cells
    st.integers(min_value=0, max_value=2000),  # patterns
)


@st.composite
def socs(draw, hierarchical: bool = False):
    """Random SOCs with a chip-level top embedding every root core.

    With ``hierarchical=True``, each core may embed the following cores
    (single-parent, acyclic by construction), exercising Eq. 5's parent
    + direct-children ISOCOST paths.
    """
    count = draw(st.integers(min_value=1, max_value=8))
    # parent[i] is the embedding core of c_i: the top, or an earlier core.
    parents = []
    for i in range(count):
        if hierarchical and i > 0 and draw(st.booleans()):
            parents.append(draw(st.integers(min_value=0, max_value=i - 1)))
        else:
            parents.append(None)
    cores = [
        Core(
            "top",
            inputs=draw(st.integers(min_value=1, max_value=100)),
            outputs=draw(st.integers(min_value=1, max_value=100)),
            bidirs=draw(st.integers(min_value=0, max_value=30)),
            patterns=draw(st.integers(min_value=0, max_value=10)),
            children=[f"c{i}" for i in range(count) if parents[i] is None],
        )
    ]
    for i in range(count):
        inputs, outputs, bidirs, scan, patterns = draw(core_values)
        cores.append(
            Core(f"c{i}", inputs=inputs, outputs=outputs, bidirs=bidirs,
                 scan_cells=scan, patterns=patterns,
                 children=[f"c{j}" for j in range(count) if parents[j] == i])
        )
    return Soc("prop", cores, top="top")


hierarchical_socs = socs(hierarchical=True)


five_values = st.integers(min_value=0, max_value=4)
gate_types = st.sampled_from(list(GateType))


# -- TDV model properties -------------------------------------------------------


@given(socs())
def test_eq6_identity_residual_is_exact(soc):
    decomposition = decompose(soc)
    assert decomposition.identity_error() == decomposition.residual
    assert decomposition.residual == chip_io_residual(soc)


@given(socs())
def test_benefit_nonnegative_at_eq2_bound(soc):
    assert tdv_benefit(soc) >= 0


@given(socs(), st.integers(min_value=0, max_value=5000))
def test_monolithic_volume_scales_linearly(soc, extra):
    t = soc.max_core_patterns
    base = tdv_monolithic(soc, t)
    assert tdv_monolithic(soc, t + extra) - base == extra * (
        soc.chip_io_terminals + 2 * soc.total_scan_cells
    )


@given(socs())
def test_identity_convention_always_balances(soc):
    summary = summarize(soc)
    assert (
        summary.tdv_monolithic + summary.tdv_penalty - summary.tdv_benefit
        == summary.tdv_modular
    )


@given(socs())
def test_penalty_decomposes_over_cores(soc):
    assert tdv_penalty(soc) == sum(
        core.patterns * isocost(soc, core.name) for core in soc
    )


@given(socs())
def test_wrapper_derived_isocost_matches_eq5(soc):
    for core in soc:
        assert isocost_from_wrappers(soc, core.name) == isocost(soc, core.name)


@given(socs())
def test_modular_nonnegative_and_zero_only_without_tests(soc):
    volume = tdv_modular(soc)
    assert volume >= 0
    if all(core.patterns == 0 for core in soc):
        assert volume == 0


# -- the same invariants over hierarchical SOCs -------------------------------


@given(hierarchical_socs)
def test_hierarchical_identity_residual_is_exact(soc):
    decomposition = decompose(soc)
    assert decomposition.identity_error() == decomposition.residual
    assert decomposition.identity_holds()


@given(hierarchical_socs)
def test_hierarchical_isocost_counts_direct_children_once(soc):
    for core in soc:
        expected = core.io_terminals + sum(
            child.io_terminals for child in soc.children_of(core.name)
        )
        assert isocost(soc, core.name) == expected
        assert isocost_from_wrappers(soc, core.name) == expected


@given(hierarchical_socs)
def test_hierarchical_single_parenthood(soc):
    for core in soc:
        parent = soc.parent_of(core.name)
        if parent is not None:
            assert core.name in parent.children


@given(hierarchical_socs)
def test_hierarchical_flatten_matches_eq3(soc):
    from repro.soc import flatten
    from repro.soc.hierarchy import core_tdv
    from repro.core import tdv_monolithic_optimistic

    flat = flatten(soc)
    assert core_tdv(flat, flat.top_name) == tdv_monolithic_optimistic(soc)


# -- D-algebra properties -------------------------------------------------------


@given(gate_types, st.lists(five_values, min_size=2, max_size=6))
def test_fold_matches_componentwise_definition(gate_type, values):
    if gate_type in (GateType.NOT, GateType.BUF):
        values = values[:1]
    assert fold_gate5(gate_type, values) == evaluate_gate5(gate_type, values)


@given(gate_types, st.lists(st.sampled_from([0, 1]), min_size=2, max_size=6))
def test_five_valued_restricts_to_boolean(gate_type, values):
    """On fault-free 0/1 inputs the D-algebra is plain boolean logic."""
    if gate_type in (GateType.NOT, GateType.BUF):
        values = values[:1]
    assert fold_gate5(gate_type, values) == evaluate_gate(gate_type, values)


@given(
    gate_types,
    st.lists(st.sampled_from([0, 1, None]), min_size=2, max_size=6),
    st.randoms(use_true_random=False),
)
def test_three_valued_x_is_sound(gate_type, values, rng):
    """Any completion of the X bits must agree with a defined output."""
    if gate_type in (GateType.NOT, GateType.BUF):
        values = values[:1]
    abstract = evaluate_gate(gate_type, values)
    completed = [rng.choice([0, 1]) if v is None else v for v in values]
    concrete = evaluate_gate(gate_type, completed)
    if abstract is not None:
        assert concrete == abstract


# -- compaction properties -------------------------------------------------------


@st.composite
def pattern_lists(draw):
    width = draw(st.integers(min_value=1, max_value=10))
    count = draw(st.integers(min_value=0, max_value=25))
    patterns = []
    for _ in range(count):
        bits = draw(
            st.dictionaries(
                st.integers(min_value=0, max_value=width - 1),
                st.sampled_from([0, 1]),
                max_size=width,
            )
        )
        patterns.append(TestPattern(bits))
    return patterns


@given(pattern_lists())
def test_compaction_never_grows_and_preserves_care_bits(patterns):
    merged = static_compact(patterns)
    assert len(merged) <= len(patterns)
    for original in patterns:
        assert any(
            all(slot.assignments.get(k) == v
                for k, v in original.assignments.items())
            for slot in merged
        ), "a pattern's care bits were lost"


@given(pattern_lists())
def test_compacted_patterns_are_mutually_conflicting_or_singleton(patterns):
    """Greedy first-fit leaves no pair that could still merge with the
    *first* slot — a weaker but checkable form of maximality."""
    merged = static_compact(patterns)
    for later in merged[1:]:
        assert merged[0].conflicts_with(later)


# -- ATPG properties on random circuits -------------------------------------------


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_fault_free_circuit_never_detects(seed):
    """Fault simulation of the fault-free value against itself is empty
    for masks of faults whose stuck value equals the good value."""
    spec = GeneratorSpec(name="prop", inputs=6, outputs=3, target_gates=25,
                         seed=seed)
    netlist = generate_circuit(spec)
    circuit = CompiledCircuit(netlist)
    simulator = FaultSimulator(circuit)
    rng = random.Random(seed)
    patterns = [
        {net_id: rng.getrandbits(1) for net_id in circuit.input_ids}
        for _ in range(16)
    ]
    good, count = simulator.good_values(patterns)
    for fault in full_fault_universe(circuit):
        mask = simulator.detect_mask(good, count, fault)
        if mask:
            # Detection requires the good value to differ from the stuck
            # value somewhere — check the first detecting pattern.
            bit = (mask & -mask).bit_length() - 1
            from repro.atpg import unpack_value

            stem_good = unpack_value(good[fault.net], bit)
            assert stem_good is not None


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_collapsed_class_detection_consistency(seed):
    """A pattern set detects a collapsed representative iff it detects
    every surviving equivalent fault site it stands for (spot check:
    representatives only, against the full universe coverage)."""
    from repro.atpg import generate_tests

    spec = GeneratorSpec(name="prop", inputs=5, outputs=2, target_gates=18,
                         seed=seed)
    netlist = generate_circuit(spec)
    result = generate_tests(netlist, seed=seed)
    circuit = CompiledCircuit(netlist)
    collapsed = collapse_faults(circuit)
    simulator = FaultSimulator(circuit)
    trits = result.test_set.as_trit_dicts(circuit)
    if not trits:
        return
    good, count = simulator.good_values(trits)
    detected_reps = {
        f for f in collapsed if simulator.detect_mask(good, count, f)
    }
    assert len(detected_reps) == result.detected_count


# -- wrapper design properties -----------------------------------------------------


@given(
    st.lists(st.integers(min_value=0, max_value=300), min_size=0, max_size=12),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=1, max_value=16),
)
def test_wrapper_design_conserves_cells(chains, inputs, outputs, width):
    design = design_wrapper("c", chains, inputs, outputs, width)
    assert sum(c.scan_length for c in design.chains) == sum(chains)
    assert sum(c.input_cells for c in design.chains) == inputs
    assert sum(c.output_cells for c in design.chains) == outputs
    assert design.useful_bits_per_pattern() == 2 * sum(chains) + inputs + outputs
    assert design.idle_bits_per_pattern() >= 0


# -- MISR linearity --------------------------------------------------------


@given(
    st.lists(
        st.lists(st.sampled_from([0, 1]), min_size=8, max_size=8),
        min_size=1,
        max_size=20,
    ),
    st.lists(
        st.lists(st.sampled_from([0, 1]), min_size=8, max_size=8),
        min_size=1,
        max_size=20,
    ),
)
def test_misr_is_linear_over_gf2(stream_a, stream_b):
    """MISR compaction is linear: sig(a xor b) = sig(a) xor sig(b) xor
    sig(0) for equal-length streams — the property aliasing analysis
    rests on."""
    from repro.atpg import Misr

    length = min(len(stream_a), len(stream_b))
    stream_a, stream_b = stream_a[:length], stream_b[:length]

    def signature(stream):
        misr = Misr(16)
        for response in stream:
            misr.absorb(list(response))
        return misr.signature

    xored = [
        [a ^ b for a, b in zip(ra, rb)] for ra, rb in zip(stream_a, stream_b)
    ]
    zero = [[0] * 8 for _ in range(length)]
    assert signature(xored) == (
        signature(stream_a) ^ signature(stream_b) ^ signature(zero)
    )


# -- compression round trip ---------------------------------------------------


@given(
    st.lists(st.sampled_from([0, 1, None]), min_size=0, max_size=200),
    st.integers(min_value=2, max_value=12),
)
def test_run_length_round_trip_and_cost_model(stream, field_bits):
    """Decoding recovers a completion of the stream (X bits resolved to
    the fill), and the bit-cost model covers every emitted token."""
    from repro.atpg import run_length_bits, run_length_decode, run_length_encode

    tokens = run_length_encode(stream)
    decoded = run_length_decode(tokens)
    assert len(decoded) == len(stream)
    for original, resolved in zip(stream, decoded):
        if original is not None:
            assert resolved == original
    max_run = (1 << field_bits) - 1
    expected_tokens = sum(-(-run // max_run) for _v, run in tokens)
    assert run_length_bits(stream, run_field_bits=field_bits) == (
        expected_tokens * (1 + field_bits)
    )


# -- gate-level scan stitching -------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
)
def test_stitched_shift_loads_arbitrary_state(seed, chain_count, balanced):
    """For random circuits, chain counts and loads, gate-level shifting
    lands exactly the abstract scan state."""
    from repro.circuit import insert_scan

    from .scan_oracle import (
        shift_in_sequence,
        simulate_sequence,
        stitch_scan_chains,
    )

    netlist = generate_circuit(
        GeneratorSpec(name="prop_scan", inputs=4, outputs=2,
                      flip_flops=1 + seed % 7, target_gates=30, seed=seed)
    )
    insertion = insert_scan(netlist, chain_count=chain_count,
                            balanced=balanced)
    stitched = stitch_scan_chains(netlist, insertion)
    rng = random.Random(seed)
    load = {ff.output: rng.getrandbits(1) for ff in netlist.flip_flops}
    sequence = shift_in_sequence(
        insertion, load, functional_inputs={net: 0 for net in netlist.inputs}
    )
    final = simulate_sequence(stitched, sequence).final_state()
    assert all(final[cell] == value for cell, value in load.items())
