"""The name-keyed topological sort: the oracle for ``Netlist.topological_order``.

This is Kahn's algorithm over dicts keyed by net name, as the netlist
ran it before the sort moved onto integer gate indices.  Both keep a
LIFO ready stack and count a net a gate reads twice as two edges, so
they must return the same order and refuse the same cycles with the
same text.
"""

from typing import Dict, List

from repro.circuit.netlist import Gate, Netlist, NetlistError


def reference_topological_order(netlist: Netlist) -> List[Gate]:
    indegree: Dict[str, int] = {}
    dependents: Dict[str, List[Gate]] = {}
    for gate in netlist.gates:
        count = 0
        for net in gate.inputs:
            if netlist._drivers.get(net) == "gate":
                count += 1
                dependents.setdefault(net, []).append(gate)
        indegree[gate.output] = count
    ready = [gate for gate in netlist.gates if indegree[gate.output] == 0]
    order: List[Gate] = []
    while ready:
        gate = ready.pop()
        order.append(gate)
        for dependent in dependents.get(gate.output, []):
            indegree[dependent.output] -= 1
            if indegree[dependent.output] == 0:
                ready.append(dependent)
    if len(order) != len(netlist.gates):
        stuck = sorted(output for output, degree in indegree.items() if degree > 0)
        raise NetlistError(
            f"{netlist.name}: combinational cycle through {stuck[:5]}"
        )
    return order
