"""Unit tests for SOC1/SOC2 assembly (repro.synth.socgen, .profiles)."""

import pytest

from repro.circuit import netlist_stats
from repro.synth import (
    elaborate,
    profile,
    soc1_design,
    soc2_design,
)


class TestProfiles:
    def test_paper_table1_io_counts(self):
        assert (profile("s713").inputs, profile("s713").outputs,
                profile("s713").flip_flops) == (35, 23, 19)
        assert (profile("s953").inputs, profile("s953").outputs,
                profile("s953").flip_flops) == (16, 23, 29)
        assert (profile("s1423").inputs, profile("s1423").outputs,
                profile("s1423").flip_flops) == (17, 5, 74)

    def test_paper_table2_io_counts(self):
        assert (profile("s5378").inputs, profile("s5378").outputs,
                profile("s5378").flip_flops) == (35, 49, 179)
        assert (profile("s13207").inputs, profile("s13207").outputs,
                profile("s13207").flip_flops) == (31, 121, 669)
        assert (profile("s15850").inputs, profile("s15850").outputs,
                profile("s15850").flip_flops) == (14, 87, 597)

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError, match="s99999"):
            profile("s99999")

    def test_generate_matches_profile(self):
        netlist = profile("s713").generate("u_s713", seed=1)
        stats = netlist_stats(netlist)
        assert stats["inputs"] == 35
        assert stats["outputs"] == 23
        assert stats["flip_flops"] == 19


class TestDesigns:
    def test_soc1_wiring_is_complete(self):
        design = soc1_design()
        # Every chip input used once, every core input driven once.
        chip_srcs = [w for w in design.wires if w.src_instance == "chip"]
        assert len(chip_srcs) == 51
        by_sink = {}
        for wire in design.wires:
            key = (wire.dst_instance, wire.dst_index)
            assert key not in by_sink, f"double-driven {key}"
            by_sink[key] = wire
        # All 10 chip outputs driven.
        assert sum(1 for k in by_sink if k[0] == "chip") == 10

    def test_soc1_core_input_budgets(self):
        design = soc1_design()
        expected = {"Core1": 35, "Core2": 16, "Core3": 17, "Core4": 17, "Core5": 17}
        for instance, count in expected.items():
            driven = [w for w in design.wires if w.dst_instance == instance]
            assert len(driven) == count, instance

    def test_soc2_wiring_matches_figure5(self):
        design = soc2_design()
        chip_outs = [w for w in design.wires if w.dst_instance == "chip"]
        assert len(chip_outs) == 198
        core4_in = [w for w in design.wires if w.dst_instance == "Core4"]
        assert len(core4_in) == 14
        assert all(w.src_instance == "chip" for w in core4_in)

    def test_glue_only_on_inter_core_wires(self):
        for design in (soc1_design(), soc2_design()):
            for wire in design.wires:
                if wire.inverted:
                    assert wire.src_instance != "chip"
                    assert wire.dst_instance != "chip"


class TestElaborate:
    @pytest.fixture(scope="class")
    def soc1(self):
        return elaborate(soc1_design(), seed=3)

    def test_shared_profile_shares_netlist(self, soc1):
        assert soc1.core_netlists["Core3"] is soc1.core_netlists["Core4"]
        assert soc1.core_netlists["Core4"] is soc1.core_netlists["Core5"]

    def test_monolithic_io_matches_chip(self, soc1):
        stats = netlist_stats(soc1.monolithic)
        assert stats["inputs"] == 51
        assert stats["outputs"] == 10
        assert stats["flip_flops"] == 19 + 29 + 3 * 74

    def test_monolithic_validates(self, soc1):
        soc1.monolithic.validate()

    def test_glue_is_all_inverters(self, soc1):
        assert soc1.glue.gates
        assert all(g.gate_type.value == "NOT" for g in soc1.glue.gates)
        assert len(soc1.glue.inputs) == len(soc1.glue.outputs)

    def test_elaborate_is_deterministic(self):
        first = elaborate(soc1_design(), seed=7)
        second = elaborate(soc1_design(), seed=7)
        assert netlist_stats(first.monolithic) == netlist_stats(second.monolithic)

    def test_profile_lookup(self, soc1):
        assert soc1.profile_of("Core1").name == "s713"
        with pytest.raises(KeyError):
            soc1.profile_of("CoreX")
