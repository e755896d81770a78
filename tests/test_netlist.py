"""Unit tests for the netlist model (repro.circuit.netlist)."""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuit import (
    Gate,
    GateType,
    Netlist,
    NetlistError,
    compose_soc_netlist,
    netlist_stats,
)

from .topo_oracle import reference_topological_order


def tiny() -> Netlist:
    netlist = Netlist("tiny")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_gate(GateType.AND, "x", ["a", "b"])
    netlist.add_gate(GateType.NOT, "y", ["x"])
    netlist.mark_output("y")
    return netlist


class TestConstruction:
    def test_stats(self):
        stats = netlist_stats(tiny())
        assert stats == {"inputs": 2, "outputs": 1, "gates": 2,
                         "flip_flops": 0, "nets": 4}

    def test_double_driver_rejected(self):
        netlist = tiny()
        for net, kind in (("x", "gate"), ("a", "input")):
            with pytest.raises(NetlistError) as error:
                netlist.add_gate(GateType.OR, net, ["a", "b"])
            assert str(error.value) == f"tiny: net {net!r} already driven ({kind})"
        assert len(netlist.gates) == 2

    def test_input_conflicts_with_gate_output(self):
        netlist = tiny()
        with pytest.raises(NetlistError):
            netlist.add_input("y")

    def test_gate_arity_enforced(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        with pytest.raises(NetlistError, match="at least"):
            netlist.add_gate(GateType.AND, "z", ["a"])
        with pytest.raises(NetlistError, match="at most"):
            netlist.add_gate(GateType.NOT, "z", ["a", "a"])

    def test_double_output_mark_rejected(self):
        netlist = tiny()
        with pytest.raises(NetlistError, match="already marked"):
            netlist.mark_output("y")


class TestGate:
    """Gate is an immutable record: fields, equality, hash and pickling."""

    def test_fields_equality_and_hash(self):
        gate = Gate(GateType.AND, "x", ("a", "b"))
        assert (gate.gate_type, gate.output, gate.inputs) == (
            GateType.AND, "x", ("a", "b")
        )
        same = Gate(GateType.AND, "x", ("a", "b"))
        assert gate == same and hash(gate) == hash(same)
        assert gate != Gate(GateType.OR, "x", ("a", "b"))
        assert gate != Gate(GateType.AND, "y", ("a", "b"))
        assert gate != Gate(GateType.AND, "x", ("b", "a"))
        assert len({gate, same}) == 1

    def test_immutable_without_instance_dict(self):
        gate = Gate(GateType.NOT, "y", ("x",))
        with pytest.raises(AttributeError):
            gate.output = "z"
        with pytest.raises(AttributeError):
            gate.extra = 1
        assert not hasattr(gate, "__dict__")

    def test_repr(self):
        assert repr(Gate(GateType.NAND, "x", ("a", "b"))) == (
            "Gate(gate_type=<GateType.NAND: 'NAND'>, output='x', "
            "inputs=('a', 'b'))"
        )

    def test_pickle_round_trip(self, c17):
        gate = Gate(GateType.XOR, "x", ("a", "b"))
        copy = pickle.loads(pickle.dumps(gate))
        assert copy == gate and type(copy) is Gate
        netlist = pickle.loads(pickle.dumps(c17))
        assert netlist.gates == c17.gates
        assert all(type(gate) is Gate for gate in netlist.gates)
        assert netlist.topological_order() == c17.topological_order()

    @pytest.mark.parametrize("gate_type,inputs,message", [
        (GateType.AND, ("a",), "AND gate 'z' needs at least 2 inputs, got 1"),
        (GateType.XNOR, (), "XNOR gate 'z' needs at least 2 inputs, got 0"),
        (GateType.BUF, (), "BUF gate 'z' needs at least 1 inputs, got 0"),
        (GateType.NOT, ("a", "a"), "NOT gate 'z' takes at most 1 input, got 2"),
        (GateType.BUF, ("a", "b", "c"),
         "BUF gate 'z' takes at most 1 input, got 3"),
    ])
    def test_arity_errors_word_for_word(self, gate_type, inputs, message):
        with pytest.raises(NetlistError) as direct:
            Gate(gate_type, "z", inputs)
        assert str(direct.value) == message
        netlist = Netlist("n")
        with pytest.raises(NetlistError) as added:
            netlist.add_gate(gate_type, "z", inputs)
        assert str(added.value) == message
        assert netlist.gates == [] and netlist.nets == []


class TestValidation:
    def test_undriven_gate_input(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        netlist.add_gate(GateType.AND, "z", ["a", "ghost"])
        netlist.mark_output("z")
        with pytest.raises(NetlistError, match="undriven net 'ghost'"):
            netlist.validate()

    def test_undriven_ff_data(self):
        netlist = Netlist("n")
        netlist.add_flip_flop("q", "ghost")
        with pytest.raises(NetlistError, match="undriven"):
            netlist.validate()

    def test_undriven_output(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        netlist.outputs.append("ghost")  # bypass mark_output's check
        with pytest.raises(NetlistError, match="undriven"):
            netlist.validate()

    def test_combinational_cycle_detected(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        netlist.add_gate(GateType.AND, "x", ["a", "y"])
        netlist.add_gate(GateType.OR, "y", ["a", "x"])
        netlist.add_gate(GateType.NOT, "z", ["a"])
        netlist.mark_output("y")
        with pytest.raises(NetlistError) as error:
            netlist.validate()
        assert str(error.value) == "n: combinational cycle through ['x', 'y']"

    def test_cycle_through_ff_is_fine(self, seq_netlist):
        seq_netlist.validate()  # S -> NS -> S closes through the DFF


class TestTopoAndViews:
    def test_topological_order_respects_dependencies(self, c17):
        order = [gate.output for gate in c17.topological_order()]
        assert order.index("G11") < order.index("G16")
        assert order.index("G16") < order.index("G22")

    def test_combinational_views(self, seq_netlist):
        assert seq_netlist.combinational_inputs() == ["A", "B", "S"]
        assert seq_netlist.combinational_outputs() == ["Z", "NS"]

    def test_fanout_map(self, c17):
        fanout = c17.fanout_map()
        assert {g.output for g in fanout["G11"]} == {"G16", "G19"}
        assert fanout["G22"] == []


class TestEvaluate:
    def test_c17_known_vector(self, c17):
        values = c17.evaluate({"G1": 0, "G2": 0, "G3": 0, "G6": 0, "G7": 0})
        # G10=NAND(0,0)=1, G11=1, G16=NAND(0,1)=1, G19=1, G22=NAND(1,1)=0, G23=0
        assert values["G22"] == 0 and values["G23"] == 0

    def test_missing_inputs_default_to_x(self, c17):
        values = c17.evaluate({"G3": 0})
        assert values["G10"] == 1 and values["G11"] == 1  # NAND with a 0 input
        assert values["G22"] is None  # depends on unset G2 via G16

    def test_sequential_view_treats_ff_as_input(self, seq_netlist):
        values = seq_netlist.evaluate({"A": 1, "B": 0, "S": 1})
        assert values["NS"] == 1 and values["Z"] == 0


class TestMerge:
    def test_merge_renames_and_connects(self, c17):
        parent = Netlist("parent")
        parent.add_input("p0")
        rename = parent.merge(c17, prefix="u_", connections={"G1": "p0"})
        assert rename["G1"] == "p0"
        assert "u_G22" in parent.nets
        # Unconnected c17 inputs became parent primary inputs.
        assert set(parent.inputs) >= {"p0", "u_G2", "u_G3", "u_G6", "u_G7"}

    def test_merge_rejects_connection_to_non_input(self, c17):
        parent = Netlist("parent")
        parent.add_input("p0")
        with pytest.raises(NetlistError, match="non-input"):
            parent.merge(c17, prefix="u_", connections={"G22": "p0"})

    def test_merge_rejects_undriven_source(self, c17):
        parent = Netlist("parent")
        with pytest.raises(NetlistError, match="undriven"):
            parent.merge(c17, prefix="u_", connections={"G1": "ghost"})

    def test_merge_preserves_function(self, c17):
        parent = Netlist("parent")
        parent.add_input("p0")
        parent.merge(c17, prefix="u_", connections={"G1": "p0"})
        parent.mark_output("u_G22")
        parent.validate()
        direct = c17.evaluate({"G1": 1, "G2": 0, "G3": 1, "G6": 0, "G7": 1})
        merged = parent.evaluate(
            {"p0": 1, "u_G2": 0, "u_G3": 1, "u_G6": 0, "u_G7": 1}
        )
        assert merged["u_G22"] == direct["G22"]

    def test_merge_rejects_a_gate_output_already_driven(self, c17):
        """Every input is connected, so the first clash is a gate output."""
        parent = Netlist("parent")
        for net in ("G1", "G2", "G3", "G6", "G7", "u_G16"):
            parent.add_input(net)
        connections = {net: net for net in c17.inputs}
        with pytest.raises(NetlistError) as error:
            parent.merge(c17, prefix="u_", connections=connections)
        assert str(error.value) == "parent: net 'u_G16' already driven (input)"

    def test_merged_gates_are_renamed_copies(self, c17):
        parent = Netlist("parent")
        parent.merge(c17, prefix="u_")
        assert parent.gates == [
            Gate(gate.gate_type, f"u_{gate.output}",
                 tuple(f"u_{net}" for net in gate.inputs))
            for gate in c17.gates
        ]
        assert all(type(gate) is Gate for gate in parent.gates)
        assert parent.gate_driving("u_G22") is parent.gates[-2]

    def test_compose_soc_netlist(self, c17, seq_netlist):
        flat, renames = compose_soc_netlist("soc", [("u1", c17), ("u2", seq_netlist)])
        flat.validate()
        assert len(flat.outputs) == len(c17.outputs) + len(seq_netlist.outputs)
        assert renames["u1"]["G22"] == "u1_G22"
        assert len(flat.flip_flops) == 1


# One random netlist: each gate reads nets by index into the inputs,
# flip-flop outputs and gate outputs (a read may name a later gate, or
# the gate itself, so real cycles occur); flip-flop D inputs read gate
# outputs, so some loops close only through a flip-flop.
netlist_rows = st.tuples(
    st.integers(1, 4),  # primary inputs
    st.integers(0, 3),  # flip-flops
    st.lists(
        st.tuples(
            st.sampled_from(list(GateType)),
            st.lists(st.integers(0, 60), min_size=1, max_size=4),
        ),
        min_size=1, max_size=24,
    ),
    st.lists(st.integers(0, 60), min_size=3, max_size=3),
    st.booleans(),  # False: gates read only earlier nets (acyclic)
)


def netlist_from_rows(inputs, flip_flops, gates, ff_data, cyclic):
    netlist = Netlist("rand")
    sources = [f"i{k}" for k in range(inputs)] + [
        f"q{k}" for k in range(flip_flops)
    ]
    for net in sources[:inputs]:
        netlist.add_input(net)
    outputs = [f"g{k}" for k in range(len(gates))]
    for k, (gate_type, reads) in enumerate(gates):
        visible = sources + (outputs if cyclic else outputs[:k])
        nets = [visible[read % len(visible)] for read in reads]
        if gate_type in (GateType.NOT, GateType.BUF):
            nets = nets[:1]
        elif len(nets) == 1:
            nets = nets * 2  # one net read twice
        netlist.add_gate(gate_type, outputs[k], nets)
    for k in range(flip_flops):
        netlist.add_flip_flop(f"q{k}", outputs[ff_data[k] % len(outputs)])
    return netlist


class TestTopologicalOrderOracle:
    """The indexed sort returns the name-keyed reference's exact order,
    and refuses the same cycles with the same text."""

    # g1 reads g0 twice: two edges, released only by both decrements.
    @example(rows=(1, 0, [(GateType.AND, [0]), (GateType.OR, [1, 1, 0])],
                   [0, 0, 0], False))
    # g0 -> g1 -> g0 closes through flip-flop q0 only.
    @example(rows=(1, 1, [(GateType.NOT, [1]), (GateType.BUF, [2])],
                   [1, 0, 0], False))
    # g0 reads itself.
    @example(rows=(1, 0, [(GateType.NAND, [0, 1])], [0, 0, 0], True))
    @settings(max_examples=300, deadline=None)
    @given(rows=netlist_rows)
    def test_matches_reference(self, rows):
        netlist = netlist_from_rows(*rows)
        try:
            expected = reference_topological_order(netlist)
        except NetlistError as error:
            with pytest.raises(NetlistError) as raised:
                netlist.topological_order()
            assert str(raised.value) == str(error)
        else:
            assert netlist.topological_order() == expected

    def test_generated_soc_orders_match(self):
        from repro.synth.socgen import elaborate, soc1_design

        design = elaborate(soc1_design(), seed=3)
        for netlist in (*design.core_netlists.values(), design.glue,
                        design.monolithic):
            assert netlist.topological_order() == reference_topological_order(
                netlist
            )
