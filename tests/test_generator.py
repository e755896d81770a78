"""Unit tests for the synthetic circuit generator (repro.synth.generator)."""

import random

import pytest

from repro.circuit import GateType, Netlist, extract_cones, netlist_stats
from repro.synth import GeneratorSpec, generate_circuit
from repro.synth.generator import (
    _TREE_GATES,
    _build_cone_tree,
    _cone_supports,
    _shuffle,
)


class TestSpecValidation:
    def test_no_inputs_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(name="g", inputs=0, outputs=1)

    def test_no_sinks_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(name="g", inputs=4, outputs=0, flip_flops=0)

    def test_overlap_bounds(self):
        with pytest.raises(ValueError):
            GeneratorSpec(name="g", inputs=4, outputs=1, overlap=1.5)

    def test_xor_fraction_bounds(self):
        with pytest.raises(ValueError):
            GeneratorSpec(name="g", inputs=4, outputs=1, xor_fraction=-0.1)

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            GeneratorSpec(name="g", inputs=4, outputs=1,
                          min_cone_width=5, max_cone_width=3)


class TestGeneratedShape:
    def test_io_and_ff_counts_exact(self):
        spec = GeneratorSpec(name="g", inputs=13, outputs=7, flip_flops=5,
                             target_gates=120, seed=1)
        netlist = generate_circuit(spec)
        stats = netlist_stats(netlist)
        assert stats["inputs"] == 13
        assert stats["outputs"] == 7
        assert stats["flip_flops"] == 5

    def test_gate_budget_roughly_met(self):
        spec = GeneratorSpec(name="g", inputs=40, outputs=10, flip_flops=10,
                             target_gates=400, seed=2)
        gates = len(generate_circuit(spec).gates)
        assert 0.4 * 400 <= gates <= 2.0 * 400

    def test_validates(self):
        spec = GeneratorSpec(name="g", inputs=9, outputs=3, flip_flops=4,
                             target_gates=80, seed=3)
        generate_circuit(spec).validate()  # no exception

    def test_deterministic_for_seed(self):
        spec = GeneratorSpec(name="g", inputs=9, outputs=3, flip_flops=4,
                             target_gates=80, seed=3)
        first = generate_circuit(spec)
        second = generate_circuit(spec)
        assert [(g.gate_type, g.output, g.inputs) for g in first.gates] == (
            [(g.gate_type, g.output, g.inputs) for g in second.gates]
        )

    def test_seeds_change_structure(self):
        def gates_for(seed):
            spec = GeneratorSpec(name="g", inputs=9, outputs=3, flip_flops=4,
                                 target_gates=80, seed=seed)
            return [(g.gate_type, g.inputs) for g in generate_circuit(spec).gates]

        assert gates_for(1) != gates_for(2)

    def test_every_source_is_used(self):
        """No floating inputs or flip-flop outputs (no trivially
        undetectable faults)."""
        spec = GeneratorSpec(name="g", inputs=30, outputs=3, flip_flops=6,
                             target_gates=60, min_cone_width=2,
                             max_cone_width=3, seed=4)
        netlist = generate_circuit(spec)
        read = {net for gate in netlist.gates for net in gate.inputs}
        for source in netlist.inputs + [ff.output for ff in netlist.flip_flops]:
            assert source in read, f"floating source {source}"

    def test_one_cone_per_sink(self):
        spec = GeneratorSpec(name="g", inputs=12, outputs=5, flip_flops=3,
                             target_gates=90, seed=5)
        netlist = generate_circuit(spec)
        assert len(extract_cones(netlist)) == 5 + 3

    def test_cone_widths_respect_bounds_modulo_sweeping(self):
        spec = GeneratorSpec(name="g", inputs=60, outputs=12, flip_flops=0,
                             target_gates=300, min_cone_width=4,
                             max_cone_width=6, overlap=0.3, seed=6)
        netlist = generate_circuit(spec)
        widths = [cone.width for cone in extract_cones(netlist)]
        # Sweeping unused sources can only widen cones, never narrow them.
        assert min(widths) >= 4

    def test_single_input_cone_gets_buffer(self):
        spec = GeneratorSpec(name="g", inputs=1, outputs=1, target_gates=1,
                             min_cone_width=1, max_cone_width=1, seed=0)
        netlist = generate_circuit(spec)
        netlist.validate()
        assert netlist.outputs[0] not in netlist.inputs


def reference_cone_tree(netlist, name, support, rng, gate_counter, use_xor):
    """The cone-tree builder over ``Random.shuffle`` and ``Random.choice``."""

    def new_net():
        gate_counter[0] += 1
        return f"{name}_g{gate_counter[0]}"

    frontier = list(support)
    if len(frontier) == 1:
        out = new_net()
        netlist.add_gate(GateType.BUF, out, [frontier[0]])
        return out
    while len(frontier) > 1:
        rng.shuffle(frontier)
        left = frontier.pop()
        right = frontier.pop()
        if rng.random() < 0.15:
            inverted = new_net()
            netlist.add_gate(GateType.NOT, inverted, [left])
            left = inverted
        if use_xor and rng.random() < 0.35:
            gate_type = GateType.XOR if rng.random() < 0.7 else GateType.XNOR
        else:
            gate_type = rng.choice(_TREE_GATES)
        out = new_net()
        netlist.add_gate(gate_type, out, [left, right])
        frontier.append(out)
    return frontier[0]


class TestDrawsMatchRandom:
    """The generator's inlined draws make exactly the ``getrandbits``
    calls of ``random.Random``'s methods: same results, same state."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_shuffle_matches_random_shuffle(self, seed):
        rng = random.Random(seed)
        reference = random.Random(seed)
        for length in range(41):
            items = [f"n{k}" for k in range(length)]
            expected = list(items)
            _shuffle(items, rng.getrandbits)
            reference.shuffle(expected)
            assert items == expected
            assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("use_xor", [False, True])
    def test_cone_tree_matches_shuffle_and_choice(self, seed, use_xor):
        rng = random.Random(seed)
        reference = random.Random(seed)
        built, expected = Netlist("cone"), Netlist("cone")
        counter, reference_counter = [0], [0]
        for width in range(1, 41):
            support = [f"i{k}" for k in range(width)]
            root = _build_cone_tree(built, "c", support, rng, counter, use_xor)
            assert root == reference_cone_tree(
                expected, "c", support, reference, reference_counter, use_xor
            )
            assert built.gates == expected.gates
            assert rng.getstate() == reference.getstate()
        drawn = {gate.gate_type for gate in built.gates}
        assert set(_TREE_GATES) <= drawn

    @pytest.mark.parametrize("overlap", [0.0, 0.35, 0.7, 1.0])
    def test_support_windows_match_cyclic_indexing(self, overlap):
        spec = GeneratorSpec(name="g", inputs=23, outputs=9, flip_flops=4,
                             overlap=overlap, seed=0)
        sources = [f"s{k}" for k in range(spec.inputs + spec.flip_flops)]
        widths = [1, 2, 5, 9, 27, 40, 3, 12, 7, 26, 16, 4, 8]
        rng = random.Random(5)
        reference = random.Random(5)
        supports = _cone_supports(spec, widths, sources, rng)
        count = len(sources)
        expected = []
        for index, width in enumerate(widths):
            width = min(width, count)
            window = max(width, round(width + overlap * (count - width)))
            center = (index * count) // len(widths)
            candidates = [sources[(center + k) % count] for k in range(window)]
            expected.append(reference.sample(candidates, width))
        assert supports == expected
        assert rng.getstate() == reference.getstate()
