"""Deterministic cone-structured circuit generation.

The paper's Tables 1–2 were produced by running ATALANTA on real
ISCAS'89 netlists.  Those netlists are not redistributable here, so
this generator synthesizes circuits with the same *testability-relevant
shape*: matching (pseudo-)I/O and flip-flop counts, one logic cone per
output/flip-flop whose width, depth and input overlap are controlled —
the exact quantities Section 3 identifies as driving per-cone pattern
counts and compaction conflicts.  Everything is seeded and
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Sequence

from ..circuit.gates import GateType
from ..circuit.netlist import Netlist

_TREE_GATES = (
    GateType.NAND, GateType.NOR, GateType.AND, GateType.OR,
    GateType.NAND, GateType.NOR,  # NAND/NOR-rich, like standard-cell logic
)

_TREE_GATE_BITS = len(_TREE_GATES).bit_length()


def _shuffle(items: List[str], getrandbits: Callable[[int], int]) -> None:
    """``random.Random.shuffle(items)`` without a Python call per draw.

    The swaps and ``getrandbits`` calls are exactly those of CPython's
    ``shuffle`` over ``_randbelow_with_getrandbits`` (the same source
    from 3.9 to 3.13), so the items and the generator's state come out
    as ``shuffle`` leaves them.
    """
    for i in range(len(items) - 1, 0, -1):
        bound = i + 1
        bits = bound.bit_length()
        j = getrandbits(bits)
        while j >= bound:
            j = getrandbits(bits)
        items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class GeneratorSpec:
    """Shape parameters for one synthetic circuit.

    ``overlap`` in [0, 1] controls how much neighbouring cones share
    inputs: 0 gives (nearly) disjoint cones — the Figure 1(a) regime —
    and 1 lets every cone draw from the full input set, maximizing
    compaction conflicts.  ``xor_fraction`` seeds hard-to-test parity
    logic into some cones, widening the per-cone pattern-count spread.
    """

    name: str
    inputs: int
    outputs: int
    flip_flops: int = 0
    target_gates: int = 200
    min_cone_width: int = 2
    max_cone_width: int = 16
    overlap: float = 0.5
    xor_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.inputs < 1:
            raise ValueError("need at least one input")
        if self.outputs < 1 and self.flip_flops < 1:
            raise ValueError("need at least one output or flip-flop")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap must be in [0, 1], got {self.overlap}")
        if not 0.0 <= self.xor_fraction <= 1.0:
            raise ValueError(f"xor_fraction must be in [0, 1], got {self.xor_fraction}")
        if self.min_cone_width < 1 or self.max_cone_width < self.min_cone_width:
            raise ValueError("invalid cone width bounds")


def generate_circuit(spec: GeneratorSpec) -> Netlist:
    """Build a validated netlist matching ``spec``."""
    rng = random.Random(spec.seed)
    netlist = Netlist(spec.name)

    input_nets = [f"{spec.name}_i{k}" for k in range(spec.inputs)]
    for net in input_nets:
        netlist.add_input(net)
    ff_out_nets = [f"{spec.name}_ff{k}" for k in range(spec.flip_flops)]
    sources = input_nets + ff_out_nets

    cone_count = spec.outputs + spec.flip_flops
    widths = _cone_widths(spec, cone_count, rng)
    support_sets = _cone_supports(spec, widths, sources, rng)
    _sweep_unused_sources(support_sets, sources, rng)

    gate_counter = [0]
    roots: List[str] = []
    for cone_index, support in enumerate(support_sets):
        use_xor = rng.random() < spec.xor_fraction
        roots.append(
            _build_cone_tree(netlist, spec.name, support, rng, gate_counter, use_xor)
        )

    for k in range(spec.outputs):
        netlist.mark_output(roots[k])
    for k, ff_net in enumerate(ff_out_nets):
        netlist.add_flip_flop(ff_net, roots[spec.outputs + k])
    netlist.validate()
    return netlist


def _cone_widths(
    spec: GeneratorSpec, cone_count: int, rng: random.Random
) -> List[int]:
    """Cone widths drawn to roughly meet the gate budget.

    A cone of width ``w`` costs about ``w - 1`` tree gates plus ~15%
    inverters, so the mean width is solved from the budget and widths
    are drawn lognormally around it — giving the wide spread of easy
    and hard cones the paper's argument needs.
    """
    budget_per_cone = max(1.0, spec.target_gates / (1.15 * cone_count))
    mean_width = min(float(spec.max_cone_width), max(float(spec.min_cone_width), budget_per_cone + 1.0))
    widths = []
    for _ in range(cone_count):
        width = round(mean_width * rng.lognormvariate(0.0, 0.45))
        widths.append(min(spec.max_cone_width, max(spec.min_cone_width, width)))
    return widths


def _cone_supports(
    spec: GeneratorSpec,
    widths: Sequence[int],
    sources: Sequence[str],
    rng: random.Random,
) -> List[List[str]]:
    """Choose each cone's input support within its overlap window."""
    supports = []
    source_count = len(sources)
    # A window never exceeds the source count, so each cyclic window is
    # one slice of the sources laid end to end twice.
    doubled = list(sources) * 2
    for cone_index, width in enumerate(widths):
        width = min(width, source_count)
        window = max(width, round(width + spec.overlap * (source_count - width)))
        center = (cone_index * source_count) // max(1, len(widths))
        supports.append(rng.sample(doubled[center:center + window], width))
    return supports


def _sweep_unused_sources(
    supports: List[List[str]], sources: Sequence[str], rng: random.Random
) -> None:
    """Attach otherwise-unread sources to random cones.

    Unused inputs would carry structurally undetectable faults; real
    netlists do not have them, so neither do generated ones.
    """
    used = {net for support in supports for net in support}
    for net in sources:
        if net not in used:
            rng.choice(supports).append(net)


def _build_cone_tree(
    netlist: Netlist,
    name: str,
    support: Sequence[str],
    rng: random.Random,
    gate_counter: List[int],
    use_xor: bool,
) -> str:
    """Reduce a cone's support to one root net with a random gate tree."""

    def new_net() -> str:
        gate_counter[0] += 1
        return f"{name}_g{gate_counter[0]}"

    frontier = list(support)
    if len(frontier) == 1:
        out = new_net()
        netlist.add_gate(GateType.BUF, out, [frontier[0]])
        return out
    getrandbits = rng.getrandbits
    while len(frontier) > 1:
        _shuffle(frontier, getrandbits)
        left = frontier.pop()
        right = frontier.pop()
        if rng.random() < 0.15:
            inverted = new_net()
            netlist.add_gate(GateType.NOT, inverted, [left])
            left = inverted
        if use_xor and rng.random() < 0.35:
            gate_type = GateType.XOR if rng.random() < 0.7 else GateType.XNOR
        else:
            # rng.choice(_TREE_GATES), with the same getrandbits draws.
            pick = getrandbits(_TREE_GATE_BITS)
            while pick >= len(_TREE_GATES):
                pick = getrandbits(_TREE_GATE_BITS)
            gate_type = _TREE_GATES[pick]
        out = new_net()
        netlist.add_gate(gate_type, out, [left, right])
        frontier.append(out)
    return frontier[0]
