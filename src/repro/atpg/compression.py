"""Test-stimulus compression and the care-bit connection.

Commercial flows attack test data volume with on-chip decompressors fed
by compressed stimulus (EDT and friends); the achievable ratio is
governed by the *care-bit density* of the patterns.  This module
implements two simple, lossless stimulus codecs and measures how the
modular-vs-monolithic choice interacts with compressibility: per-core
pattern sets keep their care bits concentrated, while monolithic
patterns spread a few care bits over the whole scan load — so
compression *compounds* the paper's benefit rather than replacing it.

Codecs (both bit-exact invertible on 0/1/X streams):

* **run-length**: (value, length) tokens with X mapped to the previous
  fill value — the textbook baseline;
* **care-position**: explicit (position, value) pairs for care bits
  only, the idealized decompressor-limit accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

Trit = Optional[int]  # 0 / 1 / None for X


def run_length_encode(stream: Sequence[Trit]) -> List[Tuple[int, int]]:
    """(value, run) tokens; X bits extend the current run (free fill)."""
    tokens: List[Tuple[int, int]] = []
    current: Optional[int] = None
    run = 0
    for trit in stream:
        value = current if trit is None else trit
        if value is None:
            value = 0  # leading Xs default to zero fill
        if current is None or value != current:
            if current is not None:
                tokens.append((current, run))
            current, run = value, 1
        else:
            run += 1
    if current is not None:
        tokens.append((current, run))
    return tokens


def run_length_decode(tokens: Sequence[Tuple[int, int]]) -> List[int]:
    stream: List[int] = []
    for value, run in tokens:
        stream.extend([value] * run)
    return stream


def run_length_bits(stream: Sequence[Trit], run_field_bits: int = 8) -> int:
    """Encoded size: one value bit plus a fixed run field per token.

    Runs longer than the field allows split into multiple tokens, as a
    hardware decompressor would force.
    """
    max_run = (1 << run_field_bits) - 1
    bits = 0
    for _value, run in run_length_encode(stream):
        tokens = -(-run // max_run)
        bits += tokens * (1 + run_field_bits)
    return bits


def care_position_bits(stream: Sequence[Trit]) -> int:
    """Idealized care-bit coding: log2(len) + 1 bits per care bit.

    The information-theoretic shape of decompressor-based schemes: cost
    tracks care bits, not stream length.
    """
    length = len(stream)
    if length == 0:
        return 0
    position_bits = max(1, math.ceil(math.log2(length)))
    care = sum(1 for trit in stream if trit is not None)
    return care * (position_bits + 1) + position_bits  # plus a count field


@dataclass
class CompressionReport:
    """Compressed vs flat size for one stimulus stream collection."""

    name: str
    flat_bits: int
    run_length: int
    care_position: int

    @property
    def run_length_ratio(self) -> float:
        return self.flat_bits / self.run_length if self.run_length else float("inf")

    @property
    def care_position_ratio(self) -> float:
        return (
            self.flat_bits / self.care_position
            if self.care_position
            else float("inf")
        )


def compress_streams(name: str, streams: Sequence[Sequence[Trit]]) -> CompressionReport:
    """Aggregate both codecs over a collection of stimulus streams."""
    flat = sum(len(stream) for stream in streams)
    return CompressionReport(
        name=name,
        flat_bits=flat,
        run_length=sum(run_length_bits(stream) for stream in streams),
        care_position=sum(care_position_bits(stream) for stream in streams),
    )


def pattern_streams(circuit, test_set) -> List[List[Trit]]:
    """One stimulus stream per pattern, over the circuit's input order."""
    input_ids = circuit.input_ids
    # map() binds each pattern's assignments once, not once per net.
    return [
        list(map(pattern.assignments.get, input_ids))
        for pattern in test_set.patterns
    ]
