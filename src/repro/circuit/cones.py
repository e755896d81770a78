"""Logic-cone extraction and overlap analysis (the paper's Section 3).

A logic cone is "all the combinational logic driving one flip-flop or
circuit output"; its inputs are the (pseudo-)primary inputs in the
transitive fanin.  The paper's whole argument rests on two cone-level
phenomena, both measurable here: the *variation* in per-cone test
pattern counts and the *overlap* between cones, which limits pattern
compaction (Figures 1 and 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .netlist import Netlist


@dataclass(frozen=True)
class Cone:
    """One logic cone: the fanin of one (pseudo-)primary output."""

    output: str  # the PO or flip-flop D net the cone drives
    inputs: FrozenSet[str]  # (pseudo-)primary inputs in the transitive fanin
    gates: Tuple[str, ...]  # gate output nets inside the cone, fanin order
    depth: int  # longest gate path from any cone input to the output

    @property
    def width(self) -> int:
        """Number of (pseudo-)primary inputs driving the cone."""
        return len(self.inputs)

    @property
    def size(self) -> int:
        """Number of gates in the cone."""
        return len(self.gates)

    def overlaps(self, other: "Cone") -> bool:
        """Whether the two cones share any (pseudo-)primary input."""
        return bool(self.inputs & other.inputs)

    def shared_inputs(self, other: "Cone") -> FrozenSet[str]:
        return self.inputs & other.inputs


def extract_cones(netlist: Netlist) -> List[Cone]:
    """All logic cones of the full-scan combinational view.

    One cone per primary output and per flip-flop D net, in that order.
    Cone membership is computed in one backward pass per cone over the
    (memoised) per-net fanin sets, so extraction is linear-ish in
    circuit size times cone size.
    """
    sources = set(netlist.combinational_inputs())
    fanin_inputs: Dict[str, FrozenSet[str]] = {net: frozenset([net]) for net in sources}
    fanin_gates: Dict[str, FrozenSet[str]] = {net: frozenset() for net in sources}
    depth: Dict[str, int] = {net: 0 for net in sources}
    for gate in netlist.topological_order():
        inputs: Set[str] = set()
        gates: Set[str] = {gate.output}
        gate_depth = 0
        for net in gate.inputs:
            inputs |= fanin_inputs.get(net, frozenset())
            gates |= fanin_gates.get(net, frozenset())
            gate_depth = max(gate_depth, depth.get(net, 0))
        fanin_inputs[gate.output] = frozenset(inputs)
        fanin_gates[gate.output] = frozenset(gates)
        depth[gate.output] = gate_depth + 1

    order_index = {gate.output: i for i, gate in enumerate(netlist.topological_order())}
    cones = []
    for net in netlist.combinational_outputs():
        gate_nets = sorted(fanin_gates.get(net, frozenset()), key=order_index.__getitem__)
        cones.append(
            Cone(
                output=net,
                inputs=fanin_inputs.get(net, frozenset()),
                gates=tuple(gate_nets),
                depth=depth.get(net, 0),
            )
        )
    return cones


def overlap_matrix(cones: Sequence[Cone]) -> List[List[int]]:
    """Pairwise shared-input counts (symmetric, zero diagonal)."""
    matrix = [[0] * len(cones) for _ in cones]
    for i, first in enumerate(cones):
        for j in range(i + 1, len(cones)):
            shared = len(first.shared_inputs(cones[j]))
            matrix[i][j] = shared
            matrix[j][i] = shared
    return matrix


def overlap_fraction(cones: Sequence[Cone]) -> float:
    """Fraction of cone pairs that share at least one input.

    0.0 is the paper's Figure 1(a)/2(a) regime (freely mergeable partial
    patterns); values near 1.0 are the heavily-overlapped regime where
    compaction conflicts inflate the monolithic pattern count.
    """
    if len(cones) < 2:
        return 0.0
    overlapping = 0
    pairs = 0
    for i, first in enumerate(cones):
        for j in range(i + 1, len(cones)):
            pairs += 1
            if first.overlaps(cones[j]):
                overlapping += 1
    return overlapping / pairs


def cone_width_stats(cones: Sequence[Cone]) -> Dict[str, float]:
    """Min/mean/max cone width — the per-pattern stimulus footprint."""
    if not cones:
        raise ValueError("no cones")
    widths = [cone.width for cone in cones]
    return {
        "min": float(min(widths)),
        "mean": sum(widths) / len(widths),
        "max": float(max(widths)),
    }


def disjoint_cone_groups(cones: Sequence[Cone]) -> List[List[Cone]]:
    """Partition cones into connected components of the overlap graph.

    Non-overlapping groups are exactly the units that could be wrapped
    as independent cores with no isolation cells lost to shared inputs —
    the idealized partitioning of Figure 2(a).
    """
    parent = list(range(len(cones)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, first in enumerate(cones):
        for j in range(i + 1, len(cones)):
            if first.overlaps(cones[j]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: Dict[int, List[Cone]] = {}
    for i, cone in enumerate(cones):
        groups.setdefault(find(i), []).append(cone)
    return list(groups.values())
