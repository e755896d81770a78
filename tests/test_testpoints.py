"""Unit tests for test-point insertion (repro.atpg.testpoints)."""

import pytest

from repro.atpg.testpoints import (
    TestPointPlan,
    apply_test_points,
    select_test_points,
)
from repro.circuit import GateType, Netlist
from repro.synth import GeneratorSpec, generate_circuit


def rpr_netlist() -> Netlist:
    """A random-pattern-resistant circuit: a wide AND cone feeding out."""
    netlist = Netlist("rpr")
    for k in range(14):
        netlist.add_input(f"i{k}")
    netlist.add_gate(GateType.AND, "deep1", [f"i{k}" for k in range(7)])
    netlist.add_gate(GateType.AND, "deep2", [f"i{k}" for k in range(7, 14)])
    netlist.add_gate(GateType.AND, "deep", ["deep1", "deep2"])
    netlist.add_gate(GateType.OR, "z", ["deep", "i0"])
    netlist.mark_output("z")
    return netlist


class TestSelection:
    def test_budget_respected(self):
        plan = select_test_points(rpr_netlist(), budget=2)
        assert len(plan.points) <= 2

    def test_zero_budget(self):
        plan = select_test_points(rpr_netlist(), budget=0)
        assert plan.points == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            select_test_points(rpr_netlist(), budget=-1)

    def test_targets_the_hard_cone(self):
        plan = select_test_points(rpr_netlist(), budget=4,
                                  observe_threshold=5, control_threshold=5)
        nets = {point.net for point in plan.points}
        assert nets & {"deep", "deep1", "deep2"}

    def test_accessible_nets_never_instrumented(self):
        plan = select_test_points(rpr_netlist(), budget=50,
                                  observe_threshold=0, control_threshold=0)
        for point in plan.points:
            assert not point.net.startswith("i")
            assert point.net != "z"

    def test_counts(self):
        plan = TestPointPlan("x", [])
        assert plan.added_scan_cells() == 0


class TestInsertion:
    def test_instrumented_netlist_validates(self):
        plan, instrumented = apply_test_points(rpr_netlist(), budget=3, observe_threshold=5, control_threshold=5)
        instrumented.validate()
        assert len(instrumented.flip_flops) == plan.added_scan_cells()

    def test_mission_function_preserved_when_controls_inactive(self):
        """With every control cell at its inactive value, the
        instrumented circuit computes the original function."""
        original = rpr_netlist()
        plan, instrumented = apply_test_points(
            original, budget=4, observe_threshold=5, control_threshold=5
        )
        import random

        rng = random.Random(0)
        for _ in range(64):
            assignment = {f"i{k}": rng.getrandbits(1) for k in range(14)}
            reference = original.evaluate(assignment)["z"]
            inst_assignment = dict(assignment)
            for index, point in enumerate(plan.points):
                if point.kind == "control-1":
                    inst_assignment[f"tp_ctl{index}"] = 0
                elif point.kind == "control-0":
                    inst_assignment[f"tp_ctl{index}"] = 1
            assert instrumented.evaluate(inst_assignment)["z"] == reference

    def test_observation_points_expose_internal_nets(self):
        plan, instrumented = apply_test_points(
            rpr_netlist(), budget=4, observe_threshold=5, control_threshold=5
        )
        observe_points = [p for p in plan.points if p.kind == "observe"]
        if not observe_points:
            pytest.skip("selection chose control points only here")
        # Each observation point adds a pseudo-output capturing the net.
        d_nets = {ff.data for ff in instrumented.flip_flops}
        assert any(net.startswith("tp_obs") for net in d_nets)

    def test_bist_coverage_improves(self):
        """The acceptance test: test points lift pseudo-random coverage
        on a random-pattern-resistant circuit."""
        from repro.atpg import run_bist

        original = rpr_netlist()
        before = run_bist(original, patterns=96, seed=2)
        plan, instrumented = apply_test_points(
            original, budget=4, observe_threshold=5, control_threshold=5
        )
        assert plan.points  # the wide AND cone must trigger selection
        after = run_bist(instrumented, patterns=96, seed=2)
        assert before.fault_coverage < 1.0
        assert after.fault_coverage > before.fault_coverage

    def test_generated_circuit_instrumentation(self):
        netlist = generate_circuit(
            GeneratorSpec(name="tp", inputs=18, outputs=5, flip_flops=8,
                          target_gates=160, min_cone_width=7,
                          max_cone_width=9, xor_fraction=0.0, seed=71)
        )
        plan, instrumented = apply_test_points(netlist, budget=5, observe_threshold=8, control_threshold=8)
        instrumented.validate()
        assert len(instrumented.flip_flops) == 8 + plan.added_scan_cells()
