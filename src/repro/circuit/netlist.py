"""Gate-level netlist with flip-flops, in the ISCAS'89 structural style.

A :class:`Netlist` is a set of named nets, each driven by a primary
input, a combinational :class:`Gate`, or a D flip-flop.  Sequential
elements are kept at the netlist level (as in ``.bench``): a flip-flop's
output net is its state, its single input net is the next-state D
signal.  Full-scan test generation views flip-flop outputs as
pseudo-primary inputs and D nets as pseudo-primary outputs — the
:meth:`Netlist.combinational_inputs`/``outputs`` accessors encode that
view, and everything downstream (cones, ATPG) works on it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import NetlistParseError
from .gates import GateType, Trit, evaluate_gate


class NetlistError(NetlistParseError):
    """Raised when a netlist is structurally invalid."""


_NOT = GateType.NOT
_BUF = GateType.BUF
# Builds a Gate from already-checked fields (Netlist.merge's copies).
_new_gate = tuple.__new__


class Gate(namedtuple("Gate", ("gate_type", "output", "inputs"))):
    """One combinational gate: ``output = type(inputs...)``.

    An immutable record with no per-instance ``__dict__``: equality and
    hash go by its three fields, and it pickles by value.  The arity
    check uses identity tests on the gate type, because a netlist is
    built from tens of thousands of these.
    """

    __slots__ = ()

    def __new__(
        cls, gate_type: GateType, output: str, inputs: Tuple[str, ...]
    ) -> "Gate":
        if gate_type is _NOT or gate_type is _BUF:
            if len(inputs) != 1:
                _raise_arity_error(gate_type, output, inputs)
        elif len(inputs) < 2:
            _raise_arity_error(gate_type, output, inputs)
        return _new_gate(cls, (gate_type, output, inputs))


def _raise_arity_error(
    gate_type: GateType, output: str, inputs: Tuple[str, ...]
) -> None:
    if len(inputs) < gate_type.min_inputs:
        raise NetlistError(
            f"{gate_type.value} gate {output!r} needs at least "
            f"{gate_type.min_inputs} inputs, got {len(inputs)}"
        )
    raise NetlistError(
        f"{gate_type.value} gate {output!r} takes at most "
        f"{gate_type.max_inputs} input, got {len(inputs)}"
    )


@dataclass(frozen=True)
class FlipFlop:
    """A D flip-flop: ``output`` holds the state, ``data`` is the D input."""

    output: str
    data: str


class Netlist:
    """A named gate-level design.

    Construction is incremental (:meth:`add_input`, :meth:`add_gate`,
    :meth:`add_flip_flop`, :meth:`mark_output`); :meth:`validate` checks
    single-driver rules, dangling nets, and combinational cycles, and
    :meth:`topological_order` fixes the evaluation order used by every
    simulator in the package.
    """

    def __init__(self, name: str):
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.gates: List[Gate] = []
        self.flip_flops: List[FlipFlop] = []
        self._drivers: Dict[str, str] = {}  # net -> "input" | "gate" | "ff"
        self._gate_by_output: Dict[str, Gate] = {}
        self._topo_cache: Optional[List[Gate]] = None

    # -- construction ---------------------------------------------------------

    def add_input(self, net: str) -> None:
        self._claim_driver(net, "input")
        self.inputs.append(net)

    def add_gate(
        self, gate_type: GateType, output: str, inputs: Sequence[str]
    ) -> Gate:
        gate = Gate(gate_type, output, tuple(inputs))
        if output in self._drivers:
            self._claim_driver(output, "gate")  # raises: already driven
        self._drivers[output] = "gate"
        self.gates.append(gate)
        self._gate_by_output[output] = gate
        self._topo_cache = None
        return gate

    def add_flip_flop(self, output: str, data: str) -> FlipFlop:
        ff = FlipFlop(output, data)
        self._claim_driver(output, "ff")
        self.flip_flops.append(ff)
        return ff

    def mark_output(self, net: str) -> None:
        if net in self.outputs:
            raise NetlistError(f"{self.name}: {net!r} already marked as output")
        self.outputs.append(net)

    def _claim_driver(self, net: str, kind: str) -> None:
        if net in self._drivers:
            raise NetlistError(
                f"{self.name}: net {net!r} already driven ({self._drivers[net]})"
            )
        self._drivers[net] = kind

    # -- lookup ---------------------------------------------------------------

    @property
    def nets(self) -> List[str]:
        """Every driven net, in driver insertion order."""
        return list(self._drivers.keys())

    def gate_driving(self, net: str) -> Optional[Gate]:
        return self._gate_by_output.get(net)

    def fanout_map(self) -> Dict[str, List[Gate]]:
        """For each net, the gates that read it."""
        fanout: Dict[str, List[Gate]] = {net: [] for net in self._drivers}
        for gate in self.gates:
            for net in gate.inputs:
                fanout.setdefault(net, []).append(gate)
        return fanout

    # -- the full-scan combinational view ---------------------------------------

    def combinational_inputs(self) -> List[str]:
        """Primary inputs plus pseudo-primary inputs (flip-flop outputs)."""
        return self.inputs + [ff.output for ff in self.flip_flops]

    def combinational_outputs(self) -> List[str]:
        """Primary outputs plus pseudo-primary outputs (flip-flop D nets)."""
        return self.outputs + [ff.data for ff in self.flip_flops]

    # -- structure ---------------------------------------------------------------

    def topological_order(self) -> List[Gate]:
        """Gates ordered so every gate follows its combinational fanin.

        Flip-flop outputs count as sources.  Raises on combinational
        cycles.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        gates = self.gates
        index = {gate.output: k for k, gate in enumerate(gates)}
        # Kahn's algorithm over gate indices.  A gate reading one net
        # twice counts it twice, and the ready stack is LIFO.
        indegree = [0] * len(gates)
        dependents: List[List[int]] = [[] for _ in gates]
        for k, gate in enumerate(gates):
            for net in gate.inputs:
                driver = index.get(net)
                if driver is not None:
                    indegree[k] += 1
                    dependents[driver].append(k)
        ready = [k for k, degree in enumerate(indegree) if not degree]
        order: List[Gate] = []
        while ready:
            k = ready.pop()
            order.append(gates[k])
            for dependent in dependents[k]:
                indegree[dependent] -= 1
                if not indegree[dependent]:
                    ready.append(dependent)
        if len(order) != len(gates):
            stuck = sorted(
                gate.output for gate, degree in zip(gates, indegree) if degree > 0
            )
            raise NetlistError(
                f"{self.name}: combinational cycle through {stuck[:5]}"
            )
        self._topo_cache = order
        return order

    def validate(self) -> None:
        """Check driver completeness: every read net must be driven."""
        for gate in self.gates:
            for net in gate.inputs:
                if net not in self._drivers:
                    raise NetlistError(
                        f"{self.name}: gate {gate.output!r} reads undriven net {net!r}"
                    )
        for ff in self.flip_flops:
            if ff.data not in self._drivers:
                raise NetlistError(
                    f"{self.name}: flip-flop {ff.output!r} reads undriven net "
                    f"{ff.data!r}"
                )
        for net in self.outputs:
            if net not in self._drivers:
                raise NetlistError(f"{self.name}: output {net!r} is undriven")
        self.topological_order()  # raises on cycles

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, assignment: Dict[str, Trit]) -> Dict[str, Trit]:
        """Three-valued evaluation of the combinational view.

        ``assignment`` maps (pseudo-)primary inputs to 0/1/None; missing
        inputs default to X.  Returns values for every net.
        """
        values: Dict[str, Trit] = {}
        for net in self.combinational_inputs():
            values[net] = assignment.get(net)
        for gate in self.topological_order():
            values[gate.output] = evaluate_gate(
                gate.gate_type, [values.get(net) for net in gate.inputs]
            )
        return values

    # -- composition ---------------------------------------------------------------

    def merge(
        self,
        other: "Netlist",
        prefix: str,
        connections: Optional[Dict[str, str]] = None,
    ) -> Dict[str, str]:
        """Instantiate ``other`` inside this netlist.

        Every net of ``other`` is renamed ``{prefix}{net}``.  Inputs of
        ``other`` listed in ``connections`` are driven by the named
        existing net of ``self`` instead of becoming new primary inputs;
        unconnected inputs become primary inputs of ``self``.  Outputs
        of ``other`` are *not* marked as outputs of ``self`` — the
        caller decides what to expose.  Returns the rename map.
        """
        connections = connections or {}
        rename: Dict[str, str] = {}
        for net in other._drivers:
            rename[net] = f"{prefix}{net}"
        for net, target in connections.items():
            if net not in other.inputs:
                raise NetlistError(
                    f"{self.name}: connection to non-input {net!r} of {other.name}"
                )
            if target not in self._drivers:
                raise NetlistError(
                    f"{self.name}: connection from undriven net {target!r}"
                )
            rename[net] = target
        for net in other.inputs:
            if net not in connections:
                self.add_input(rename[net])
        for ff in other.flip_flops:
            self.add_flip_flop(rename[ff.output], rename[ff.data])
        # ``other`` checked each gate's arity when it was built, so the
        # renamed copies skip Gate's check; every output is still claimed.
        drivers = self._drivers
        gates = self.gates
        gate_by_output = self._gate_by_output
        renamed = rename.__getitem__
        self._topo_cache = None
        for gate in other.gates:
            output = renamed(gate.output)
            if output in drivers:
                self._claim_driver(output, "gate")  # raises: already driven
            drivers[output] = "gate"
            copy = _new_gate(
                Gate, (gate.gate_type, output, tuple(map(renamed, gate.inputs)))
            )
            gates.append(copy)
            gate_by_output[output] = copy
        return rename

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)}, gates={len(self.gates)}, "
            f"flip_flops={len(self.flip_flops)})"
        )


def netlist_stats(netlist: Netlist) -> Dict[str, int]:
    """Size summary used by reports and tests."""
    return {
        "inputs": len(netlist.inputs),
        "outputs": len(netlist.outputs),
        "gates": len(netlist.gates),
        "flip_flops": len(netlist.flip_flops),
        "nets": len(netlist.nets),
    }


def compose_soc_netlist(
    name: str,
    cores: Iterable[Tuple[str, Netlist]],
) -> Tuple[Netlist, Dict[str, Dict[str, str]]]:
    """Flatten several core netlists into one monolithic netlist.

    Each core is instantiated under its instance name; all core inputs
    become primary inputs and all core outputs become primary outputs of
    the flattened design.  This is the "isolation logic ripped out"
    monolithic view of the paper — inter-core wiring is the SOC
    generator's job (:mod:`repro.synth.socgen`), which connects nets
    before exposing the remainder.
    """
    flat = Netlist(name)
    rename_maps: Dict[str, Dict[str, str]] = {}
    for instance, core in cores:
        rename = flat.merge(core, prefix=f"{instance}_")
        for net in core.outputs:
            flat.mark_output(rename[net])
        rename_maps[instance] = rename
    return flat, rename_maps
