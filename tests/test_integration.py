"""Integration tests: the full pipeline on scaled-down designs.

Exercises every layer together — circuit generation, flattening, ATPG,
SOC modeling, TDV evaluation, and TAM accounting — on a miniature
two-core SOC so the whole Table-1-style flow runs in seconds.
"""

import pytest

from repro.atpg import CompiledCircuit, collapse_faults, fault_coverage, generate_tests
from repro.circuit import Netlist, extract_cones, insert_scan
from repro.core import decompose, pessimism_factor, tdv_monolithic
from repro.soc import Core, Soc
from repro.synth import GeneratorSpec, generate_circuit
from repro.tam import core_specs_from_soc, idle_bit_report, schedule_greedy


@pytest.fixture(scope="module")
def mini_soc_experiment():
    """A miniature SOC1: two generated cores, wired, flattened, tested."""
    easy = generate_circuit(
        GeneratorSpec(name="easy", inputs=8, outputs=6, flip_flops=12,
                      target_gates=70, min_cone_width=2, max_cone_width=3,
                      xor_fraction=0.0, seed=21)
    )
    hard = generate_circuit(
        GeneratorSpec(name="hard", inputs=6, outputs=4, flip_flops=4,
                      target_gates=140, min_cone_width=6, max_cone_width=8,
                      overlap=0.8, xor_fraction=0.3, seed=22)
    )
    # Flatten: chip inputs feed 'easy'; easy outputs feed 'hard'.
    flat = Netlist("mini_mono")
    for k in range(8):
        flat.add_input(f"pin{k}")
    easy_map = flat.merge(
        easy, "u0_", connections={net: f"pin{i}" for i, net in enumerate(easy.inputs)}
    )
    hard_map = flat.merge(
        hard, "u1_",
        connections={
            net: easy_map[easy.outputs[i]] for i, net in enumerate(hard.inputs)
        },
    )
    for net in hard.outputs:
        flat.mark_output(hard_map[net])
    flat.validate()

    results = {
        "easy": generate_tests(easy, seed=21),
        "hard": generate_tests(hard, seed=21),
        "mono": generate_tests(flat, seed=21),
    }
    soc = Soc(
        "mini",
        [
            Core("top", inputs=8, outputs=4, patterns=0,
                 children=["easy", "hard"]),
            Core("easy", inputs=8, outputs=6, scan_cells=12,
                 patterns=results["easy"].pattern_count),
            Core("hard", inputs=6, outputs=4, scan_cells=4,
                 patterns=results["hard"].pattern_count),
        ],
        top="top",
    )
    return {"soc": soc, "results": results, "flat": flat,
            "cores": {"easy": easy, "hard": hard}}


class TestMiniPipeline:
    def test_core_atpg_full_testable_coverage(self, mini_soc_experiment):
        for name in ("easy", "hard"):
            assert mini_soc_experiment["results"][name].testable_coverage == 1.0

    def test_monolithic_coverage_verified_independently(self, mini_soc_experiment):
        mono = mini_soc_experiment["results"]["mono"]
        flat = mini_soc_experiment["flat"]
        circuit = CompiledCircuit(flat)
        coverage = fault_coverage(
            circuit, mono.test_set.as_trit_dicts(circuit), collapse_faults(circuit)
        )
        assert coverage == pytest.approx(mono.fault_coverage)

    def test_eq2_holds_on_measured_counts(self, mini_soc_experiment):
        soc = mini_soc_experiment["soc"]
        mono = mini_soc_experiment["results"]["mono"]
        assert mono.pattern_count >= soc.max_core_patterns
        assert pessimism_factor(mono.pattern_count, soc) >= 1.0

    def test_decomposition_identity_on_measured_soc(self, mini_soc_experiment):
        soc = mini_soc_experiment["soc"]
        mono = mini_soc_experiment["results"]["mono"]
        decomposition = decompose(soc, monolithic_patterns=mono.pattern_count)
        assert decomposition.identity_error() == decomposition.residual

    def test_scan_insertion_covers_flattened_ffs(self, mini_soc_experiment):
        flat = mini_soc_experiment["flat"]
        insertion = insert_scan(flat, chain_count=4)
        assert insertion.cell_count == 16
        assert insertion.imbalance <= 1

    def test_flattening_hides_inter_core_cones(self, mini_soc_experiment):
        """Flattening removes the cones of outputs that became internal
        nets: only the chip outputs and all flip-flop D nets remain."""
        flat = mini_soc_experiment["flat"]
        cores = mini_soc_experiment["cores"]
        flat_cones = extract_cones(flat)
        expected = len(cores["hard"].outputs) + sum(
            len(c.flip_flops) for c in cores.values()
        )
        assert len(flat_cones) == expected
        # And the surviving chip-output cones got *deeper*: they now see
        # through 'easy' as well, reaching the chip pins.
        hard_out_cone = next(c for c in flat_cones if c.output.startswith("u1_"))
        assert any(net.startswith("pin") for net in hard_out_cone.inputs)

    def test_tam_layer_accepts_measured_soc(self, mini_soc_experiment):
        soc = mini_soc_experiment["soc"]
        specs = core_specs_from_soc(soc)
        schedule = schedule_greedy(specs, tam_width=4, preferred_width=2)
        schedule.verify()
        report = idle_bit_report(soc, tam_width=2)
        assert report.useful_modular > 0

    def test_mono_tdv_exceeds_modular(self, mini_soc_experiment):
        """The headline claim on a live end-to-end measurement."""
        soc = mini_soc_experiment["soc"]
        mono = mini_soc_experiment["results"]["mono"]
        decomposition = decompose(soc, monolithic_patterns=mono.pattern_count)
        assert tdv_monolithic(soc, mono.pattern_count) > decomposition.tdv_modular


class TestBenchToSocRoundTrip:
    def test_generated_core_survives_bench_and_soc_formats(self, tmp_path):
        from repro.circuit import dump_bench, parse_bench
        from repro.itc02 import dump_soc, parse_soc

        netlist = generate_circuit(
            GeneratorSpec(name="rt", inputs=6, outputs=3, flip_flops=5,
                          target_gates=50, seed=30)
        )
        again = parse_bench(dump_bench(netlist), "rt")
        result = generate_tests(again, seed=30)

        soc = Soc(
            "rt_soc",
            [Core("top", inputs=6, outputs=3, patterns=0, children=["rt"]),
             Core("rt", inputs=6, outputs=3, scan_cells=5,
                  patterns=result.pattern_count)],
            top="top",
        )
        parsed = parse_soc(dump_soc(soc))
        assert parsed.soc["rt"].patterns == result.pattern_count
        decomposition = decompose(parsed.soc)
        assert decomposition.identity_error() == decomposition.residual


class TestGateLevelDelivery:
    """Close the loop: ATPG patterns delivered through the *stitched*
    gate-level scan chains, cycle by cycle, must produce exactly the
    responses the exported vector program predicts."""

    def test_full_program_delivery(self):
        from repro.atpg import export_program, generate_tests
        from repro.circuit import insert_scan
        from repro.synth import GeneratorSpec, generate_circuit

        from .scan_oracle import (
            settle_combinational,
            shift_in_sequence,
            simulate_sequence,
            stitch_scan_chains,
        )

        netlist = generate_circuit(
            GeneratorSpec(name="deliver", inputs=6, outputs=4, flip_flops=9,
                          target_gates=80, seed=37)
        )
        insertion = insert_scan(netlist, chain_count=2)
        stitched = stitch_scan_chains(netlist, insertion)
        result = generate_tests(netlist, seed=37)
        program = export_program(netlist, result, chain_count=2)
        chain_cells = {
            f"scan_in{i}": chain.cells
            for i, chain in enumerate(insertion.chains)
        }

        for vector in program.vectors[:10]:
            # 1. Shift the load in through the gate-level chains.
            load = {}
            for i, chain in enumerate(insertion.chains):
                bits = vector.loads[chain.name]
                for cell, bit in zip(chain.cells, bits):
                    load[cell] = int(bit)
            pi_values = {
                net: int(bit)
                for net, bit in zip(netlist.inputs, vector.pi_values)
            }
            sequence = shift_in_sequence(insertion, load,
                                         functional_inputs=pi_values)
            state = simulate_sequence(stitched, sequence).final_state()
            for cell, value in load.items():
                assert state[cell] == value

            # 2. Capture: scan_enable low, evaluate, clock once.
            capture_inputs = dict(pi_values)
            capture_inputs["scan_enable"] = 0
            for k in range(len(insertion.chains)):
                capture_inputs[f"scan_in{k}"] = 0
            values = settle_combinational(stitched, capture_inputs, state)
            # Primary outputs match the program's expectation...
            for net, expected in zip(netlist.outputs, vector.po_values):
                assert values[net] == int(expected), net
            # ...and the captured next-state matches the expected unload.
            for i, chain in enumerate(insertion.chains):
                expected_bits = vector.unloads[chain.name]
                for cell, bit in zip(chain.cells, expected_bits):
                    assert values[f"{cell}_scanmux"] == int(bit), cell
