"""Single stuck-at fault model with structural equivalence collapsing.

The fault universe contains a stuck-at-0 and stuck-at-1 fault on every
net (stem faults) and on every gate input pin whose net fans out to
more than one load (branch faults — on single-load nets the branch is
equivalent to the stem and is not enumerated).

Collapsing uses the classic intra-gate equivalences: a controlling
input value is indistinguishable from the corresponding output value
(AND: input sa0 ≡ output sa0; NAND: input sa0 ≡ output sa1; OR: input
sa1 ≡ output sa1; NOR: input sa1 ≡ output sa0), and inverters/buffers
collapse both polarities.  Equivalence classes are built with
union-find; one representative per class survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..circuit.gates import GateType
from .compiled import CompiledCircuit


@dataclass(frozen=True)
class Fault:
    """One stuck-at fault.

    ``gate_index``/``pin`` identify a branch fault on a specific gate
    input; both are None for a stem fault on the net itself.
    """

    net: int
    stuck_at: int  # 0 or 1
    gate_index: Optional[int] = None
    pin: Optional[int] = None

    @property
    def is_branch(self) -> bool:
        return self.gate_index is not None

    def describe(self, circuit: CompiledCircuit) -> str:
        site = circuit.net_names[self.net]
        if self.is_branch:
            gate = circuit.gates[self.gate_index]
            site = f"{site}->{circuit.net_names[gate.output]}[{self.pin}]"
        return f"{site} stuck-at-{self.stuck_at}"


def _fault_site_universe(circuit: CompiledCircuit) -> List[Tuple]:
    """All fault sites as (net, stuck_at, gate_index, pin) tuples.

    The tuple form is what collapsing actually operates on; building
    :class:`Fault` objects for the full universe just to discard most of
    them during collapsing costs more than the union-find itself.
    """
    sites: List[Tuple] = []
    for net_id in range(circuit.net_count):
        sites.append((net_id, 0, None, None))
        sites.append((net_id, 1, None, None))
    fanout = circuit.fanout
    for gate in circuit.gates:
        index = gate.index
        for pin, net_id in enumerate(gate.inputs):
            if len(fanout[net_id]) > 1:
                sites.append((net_id, 0, index, pin))
                sites.append((net_id, 1, index, pin))
    return sites


def full_fault_universe(circuit: CompiledCircuit) -> List[Fault]:
    """All stem and (multi-load) branch faults, both polarities."""
    return [Fault(*site) for site in _fault_site_universe(circuit)]


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def collapse_faults(
    circuit: CompiledCircuit,
    faults: Optional[List[Fault]] = None,
) -> List[Fault]:
    """Equivalence-collapse a fault list; returns one fault per class.

    Representatives are the lowest-indexed fault of each class, so
    stems dominate branches and earlier nets dominate later ones —
    deterministic for reproducible pattern counts.
    """
    if faults is None:
        return _collapse_universe(circuit)
    sites = [(f.net, f.stuck_at, f.gate_index, f.pin) for f in faults]
    index_of: Dict[Tuple, int] = {site: i for i, site in enumerate(sites)}
    uf = _UnionFind(len(sites))

    def lookup(net: int, stuck_at: int, gate_index=None, pin=None) -> Optional[int]:
        return index_of.get((net, stuck_at, gate_index, pin))

    for gate in circuit.gates:
        control = gate.gate_type.controlling_value
        inverting = gate.gate_type.inverting
        if gate.gate_type in (GateType.NOT, GateType.BUF):
            # Both polarities collapse through the gate.
            in_net = gate.inputs[0]
            for value in (0, 1):
                out_value = 1 - value if inverting else value
                _maybe_union(uf, lookup(in_net, value), lookup(gate.output, out_value))
                _maybe_union(
                    uf,
                    lookup(in_net, value, gate.index, 0),
                    lookup(gate.output, out_value),
                )
            continue
        if control is None:
            continue  # XOR/XNOR have no intra-gate equivalences
        out_value = 1 - control if inverting else control
        for pin, in_net in enumerate(gate.inputs):
            # The branch fault (or the stem when there is no branch) at
            # the controlling value is equivalent to the output fault.
            branch = lookup(in_net, control, gate.index, pin)
            if branch is None:
                branch = lookup(in_net, control)
            _maybe_union(uf, branch, lookup(gate.output, out_value))

    roots = {uf.find(i) for i in range(len(sites))}
    representatives = [faults[root] for root in roots]
    return sorted(
        representatives,
        key=lambda f: (f.net, f.stuck_at, f.gate_index is not None,
                       f.gate_index or 0, f.pin or 0),
    )


def _collapse_universe(circuit: CompiledCircuit) -> List[Fault]:
    """Collapse the full fault universe on integer site indices.

    The site enumeration of :func:`_fault_site_universe` is arithmetic:
    stem ``(net, sa)`` sits at ``2 * net + sa`` and the branch pairs
    follow in gate/pin order, so the tuple dictionary the generic path
    keys its union-find with can be replaced by index arithmetic plus
    one small branch map.  Indices — and therefore every union, every
    class representative (the minimum index), and the final sorted
    fault list — are identical to the generic path's;
    ``test_collapse_universe_fast_path_matches_generic`` pins the
    equivalence.
    """
    from .compiled import OP_NAND, OP_NOR, OP_NOT

    gate_op = circuit.gate_op
    gate_out = circuit.gate_out
    gate_in_start = circuit.gate_in_start
    gate_in_ids = circuit.gate_in_ids
    fanout_start = circuit.fanout_start
    stem_count = 2 * circuit.net_count

    # Per-CSR-pin-row branch site index (-1 when the pin's net has a
    # single load and carries no branch fault), filled in the same
    # gate/pin order _fault_site_universe enumerates.
    branch_row = [-1] * len(gate_in_ids)
    branch_sites: List[Tuple[int, int, int, int]] = []
    row = 0
    for index in range(len(gate_op)):
        for pin in range(gate_in_start[index + 1] - gate_in_start[index]):
            net_id = gate_in_ids[row]
            if fanout_start[net_id + 1] - fanout_start[net_id] > 1:
                branch_row[row] = stem_count + len(branch_sites)
                branch_sites.append((net_id, 0, index, pin))
                branch_sites.append((net_id, 1, index, pin))
            row += 1

    size = stem_count + len(branch_sites)
    parent = list(range(size))

    def union(a: int, b: int) -> None:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b

    # control value and inversion per opcode (None = no controlling
    # value, i.e. XOR/XNOR — and BUF/NOT, which take their own path).
    control_of = (None, None, 0, 0, 1, 1, None, None)
    for index in range(len(gate_op)):
        op = gate_op[index]
        out2 = 2 * gate_out[index]
        start = gate_in_start[index]
        if op <= OP_NOT:
            in2 = 2 * gate_in_ids[start]
            branch = branch_row[start]
            for value in (0, 1):
                out_value = 1 - value if op == OP_NOT else value
                union(in2 + value, out2 + out_value)
                if branch >= 0:
                    union(branch + value, out2 + out_value)
            continue
        control = control_of[op]
        if control is None:
            continue  # XOR/XNOR have no intra-gate equivalences
        inverting = op == OP_NAND or op == OP_NOR
        out_site = out2 + (1 - control if inverting else control)
        for row in range(start, gate_in_start[index + 1]):
            branch = branch_row[row]
            site = branch + control if branch >= 0 else 2 * gate_in_ids[row] + control
            union(site, out_site)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    roots = {find(i) for i in range(size)}
    sites = [
        (root >> 1, root & 1, None, None) if root < stem_count
        else branch_sites[root - stem_count]
        for root in roots
    ]
    ordered = sorted(
        sites,
        key=lambda s: (s[0], s[1], s[2] is not None, s[2] or 0, s[3] or 0),
    )
    return [Fault(*site) for site in ordered]


def _maybe_union(uf: _UnionFind, i: Optional[int], j: Optional[int]) -> None:
    if i is not None and j is not None:
        uf.union(i, j)


def collapse_ratio(circuit: CompiledCircuit) -> float:
    """Collapsed over full fault-universe size (a sanity metric)."""
    full = full_fault_universe(circuit)
    return len(collapse_faults(circuit, full)) / len(full)
