"""Full-scan insertion and scan-chain construction.

Conventional full scan makes every flip-flop controllable and
observable "as if they were regular primary inputs and outputs"
(Section 3).  For test *generation* that is purely a view change —
:meth:`~repro.circuit.netlist.Netlist.combinational_inputs` — but test
*delivery* needs the flip-flops stitched into shift chains, and chain
balance determines the idle bits the paper's analysis deliberately
excludes.  This module builds the chains; the idle-bit ablation lives
in :mod:`repro.tam.idle_bits`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..errors import ConfigError
from .netlist import Netlist


@dataclass(frozen=True)
class ScanChain:
    """An ordered shift register of scan flip-flops."""

    name: str
    cells: tuple

    def __len__(self) -> int:
        return len(self.cells)


@dataclass
class ScanInsertion:
    """The scan configuration of one design."""

    netlist_name: str
    chains: List[ScanChain] = field(default_factory=list)

    @property
    def cell_count(self) -> int:
        return sum(len(chain) for chain in self.chains)

    @property
    def max_chain_length(self) -> int:
        """Shift cycles needed per load/unload — the test-time driver."""
        return max((len(chain) for chain in self.chains), default=0)

    @property
    def imbalance(self) -> int:
        """Longest minus shortest chain; 0 or 1 means balanced."""
        if not self.chains:
            return 0
        lengths = [len(chain) for chain in self.chains]
        return max(lengths) - min(lengths)

    def idle_bits_per_pattern(self) -> int:
        """Padding bits per load when all chains shift in lockstep.

        Every chain shorter than the longest receives (and emits)
        don't-care padding for the length difference; these are the
        "idle test bits" of the paper's Section 3 scoping remark.
        """
        longest = self.max_chain_length
        return sum(longest - len(chain) for chain in self.chains)


def insert_scan(
    netlist: Netlist,
    chain_count: int = 1,
    balanced: bool = True,
) -> ScanInsertion:
    """Partition a netlist's flip-flops into scan chains.

    ``balanced=True`` deals cells round-robin, producing chains whose
    lengths differ by at most one (the paper's "perfectly balanced"
    assumption).  ``balanced=False`` packs cells contiguously, yielding
    the worst-case imbalance used by the idle-bit ablation.
    """
    if chain_count < 1:
        raise ConfigError(f"chain_count must be >= 1, got {chain_count}")
    cells = [ff.output for ff in netlist.flip_flops]
    groups: List[List[str]] = [[] for _ in range(chain_count)]
    if balanced:
        for index, cell in enumerate(cells):
            groups[index % chain_count].append(cell)
    else:
        # Contiguous fill: ceil-sized blocks until cells run out, which
        # can leave later chains empty — maximal imbalance.
        block = -(-len(cells) // chain_count) if cells else 0
        for index, cell in enumerate(cells):
            groups[index // block if block else 0].append(cell)
    chains = [
        ScanChain(name=f"{netlist.name}_chain{i}", cells=tuple(group))
        for i, group in enumerate(groups)
    ]
    return ScanInsertion(netlist_name=netlist.name, chains=chains)


def chain_lengths(insertion: ScanInsertion) -> Sequence[int]:
    return [len(chain) for chain in insertion.chains]
