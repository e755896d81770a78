"""Scan test vector export — from abstract patterns to delivered bits.

The TDV formulas count one stimulus bit per (pseudo-)input and one
response bit per (pseudo-)output per pattern.  This module makes those
bits concrete: it expands an ATPG result over a scan-chain configuration
into an explicit vector file (a minimal STIL-flavoured text format) with
per-chain load/unload strings and expected primary-output values, and
counts the bits actually delivered.  The count reconciles exactly with
the model (``tests/test_export.py`` pins stimulus+response ==
``(I + O + 2S) * T`` for balanced single-capture scan), closing the loop
between the paper's Eq. 1 accounting and a deliverable test program.

Format::

    Design <name>
    Inputs <pi> <pi> ...
    Outputs <po> <po> ...
    Chain <name> : <cell> <cell> ...
    Pattern <k>
        PI <bits>              # one char per primary input: 0/1/X
        Load <chain> <bits>    # scan-in values, shift order
        PO <bits>              # expected primary outputs: 0/1/X
        Unload <chain> <bits>  # expected captured values, shift order
    End
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.netlist import Netlist
from ..circuit.scan import ScanInsertion, insert_scan
from .compiled import CompiledCircuit
from .engine import AtpgResult
from .logicsim import RailBatch, pack_patterns_flat, simulate_flat, unpack_value
from .patterns import TestSet


class VectorFormatError(ValueError):
    """Raised on malformed scan-vector text."""


@dataclass
class ScanVector:
    """One expanded pattern: stimulus and expected response."""

    index: int
    pi_values: str  # one char per primary input: 0/1/X
    loads: Dict[str, str]  # chain name -> scan-in string (shift order)
    po_values: str  # expected primary outputs
    unloads: Dict[str, str]  # chain name -> expected capture string

    def stimulus_bits(self) -> int:
        return len(self.pi_values) + sum(len(bits) for bits in self.loads.values())

    def response_bits(self) -> int:
        return len(self.po_values) + sum(len(bits) for bits in self.unloads.values())

    def care_bits(self) -> int:
        """Specified (non-X) bits in stimulus and response."""
        text = (
            self.pi_values
            + self.po_values
            + "".join(self.loads.values())
            + "".join(self.unloads.values())
        )
        return sum(1 for char in text if char != "X")


@dataclass
class VectorProgram:
    """A complete scan test program for one design."""

    design: str
    primary_inputs: List[str]
    primary_outputs: List[str]
    chains: Dict[str, Tuple[str, ...]]  # chain name -> cell names, shift order
    vectors: List[ScanVector] = field(default_factory=list)

    @property
    def pattern_count(self) -> int:
        return len(self.vectors)

    def total_stimulus_bits(self) -> int:
        return sum(vector.stimulus_bits() for vector in self.vectors)

    def total_response_bits(self) -> int:
        return sum(vector.response_bits() for vector in self.vectors)

    def total_bits(self) -> int:
        """The delivered test data volume of this program."""
        return self.total_stimulus_bits() + self.total_response_bits()

    def care_bit_fraction(self) -> float:
        total = self.total_bits()
        if total == 0:
            raise ValueError("empty program")
        return sum(vector.care_bits() for vector in self.vectors) / total


def expand_vectors(
    netlist: Netlist,
    test_set: TestSet,
    insertion: Optional[ScanInsertion] = None,
) -> VectorProgram:
    """Expand a test set into explicit scan load/unload vectors.

    Expected responses come from good-machine simulation: primary
    outputs and flip-flop D values (the next capture) are computed for
    every pattern in one bit-parallel pass per 64-pattern block.
    """
    circuit = CompiledCircuit(netlist)
    if insertion is None:
        insertion = insert_scan(netlist, chain_count=1)
    chains = {chain.name: tuple(chain.cells) for chain in insertion.chains}
    placed = [cell for cells in chains.values() for cell in cells]
    if sorted(placed) != sorted(ff.output for ff in netlist.flip_flops):
        raise ValueError(
            f"{netlist.name}: scan insertion does not cover the flip-flops"
        )
    d_net_of = {ff.output: ff.data for ff in netlist.flip_flops}

    program = VectorProgram(
        design=netlist.name,
        primary_inputs=list(netlist.inputs),
        primary_outputs=list(netlist.outputs),
        chains=chains,
    )
    patterns = test_set.patterns
    for start in range(0, len(patterns), 64):
        block = patterns[start:start + 64]
        trits = [p.as_trits(circuit.input_ids) for p in block]
        ones, zeros = pack_patterns_flat(circuit, trits)
        simulate_flat(circuit, ones, zeros, len(block))
        values = RailBatch(ones, zeros, len(block))
        for offset, pattern in enumerate(block):
            assignments = pattern.assignments

            def stim(net: str) -> str:
                value = assignments.get(circuit.net_ids[net])
                return "X" if value is None else str(value)

            def resp(net: str) -> str:
                value = unpack_value(values[circuit.net_ids[net]], offset)
                return "X" if value is None else str(value)

            program.vectors.append(
                ScanVector(
                    index=start + offset,
                    pi_values="".join(stim(net) for net in netlist.inputs),
                    loads={
                        name: "".join(stim(cell) for cell in cells)
                        for name, cells in chains.items()
                    },
                    po_values="".join(resp(net) for net in netlist.outputs),
                    unloads={
                        name: "".join(resp(d_net_of[cell]) for cell in cells)
                        for name, cells in chains.items()
                    },
                )
            )
    return program


def export_program(
    netlist: Netlist,
    result: AtpgResult,
    chain_count: int = 1,
) -> VectorProgram:
    """Convenience: expand an ATPG result over balanced scan chains."""
    insertion = insert_scan(netlist, chain_count=chain_count)
    return expand_vectors(netlist, result.test_set, insertion)


def dump_vectors(program: VectorProgram) -> str:
    """Serialize a vector program to the documented text format."""
    lines = [f"Design {program.design}"]
    if program.primary_inputs:
        lines.append(f"Inputs {' '.join(program.primary_inputs)}")
    if program.primary_outputs:
        lines.append(f"Outputs {' '.join(program.primary_outputs)}")
    for name, cells in program.chains.items():
        lines.append(f"Chain {name} : {' '.join(cells)}")
    for vector in program.vectors:
        lines.append(f"Pattern {vector.index}")
        if vector.pi_values:
            lines.append(f"    PI {vector.pi_values}")
        for name in program.chains:
            if vector.loads[name]:
                lines.append(f"    Load {name} {vector.loads[name]}")
        if vector.po_values:
            lines.append(f"    PO {vector.po_values}")
        for name in program.chains:
            if vector.unloads[name]:
                lines.append(f"    Unload {name} {vector.unloads[name]}")
        lines.append("End")
    return "\n".join(lines) + "\n"


def parse_vectors(text: str) -> VectorProgram:
    """Parse the text format back into a :class:`VectorProgram`."""
    design: Optional[str] = None
    inputs: List[str] = []
    outputs: List[str] = []
    chains: Dict[str, Tuple[str, ...]] = {}
    vectors: List[ScanVector] = []
    current: Optional[ScanVector] = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "Design":
            design = rest
        elif keyword == "Inputs":
            inputs = rest.split()
        elif keyword == "Outputs":
            outputs = rest.split()
        elif keyword == "Chain":
            name, _, cells = rest.partition(":")
            chains[name.strip()] = tuple(cells.split())
        elif keyword == "Pattern":
            if current is not None:
                raise VectorFormatError(f"line {line_number}: nested Pattern")
            current = ScanVector(
                index=int(rest), pi_values="", loads={}, po_values="", unloads={}
            )
        elif keyword == "End":
            if current is None:
                raise VectorFormatError(f"line {line_number}: End without Pattern")
            vectors.append(current)
            current = None
        elif keyword in ("PI", "PO"):
            if current is None:
                raise VectorFormatError(f"line {line_number}: {keyword} outside Pattern")
            if keyword == "PI":
                current.pi_values = rest
            else:
                current.po_values = rest
        elif keyword in ("Load", "Unload"):
            if current is None:
                raise VectorFormatError(f"line {line_number}: {keyword} outside Pattern")
            name, _, bits = rest.partition(" ")
            target = current.loads if keyword == "Load" else current.unloads
            target[name] = bits.strip()
        else:
            raise VectorFormatError(f"line {line_number}: unknown keyword {keyword!r}")
    if current is not None:
        raise VectorFormatError("unterminated Pattern block")
    if design is None:
        raise VectorFormatError("missing Design header")
    for vector in vectors:
        for name in chains:
            vector.loads.setdefault(name, "")
            vector.unloads.setdefault(name, "")
    return VectorProgram(
        design=design,
        primary_inputs=inputs,
        primary_outputs=outputs,
        chains=chains,
        vectors=vectors,
    )


def model_bits(netlist: Netlist, pattern_count: int) -> int:
    """The Eq. 1-style bit count for this design: ``(I + O + 2S) * T``."""
    return (
        len(netlist.inputs) + len(netlist.outputs) + 2 * len(netlist.flip_flops)
    ) * pattern_count
