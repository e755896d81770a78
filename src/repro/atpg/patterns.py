"""Test patterns and test sets.

A pattern assigns 0/1/X to the (pseudo-)primary inputs of one circuit;
internally assignments are keyed by compiled net id.  A test pattern
with X bits is *partial* (PODEM output, compaction input); filling
replaces the X bits deterministically before fault simulation and
delivery, which is exactly the point where the paper's "don't care
dummy bits" become real shifted bits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .compiled import CompiledCircuit


@dataclass
class TestPattern:
    """One test pattern: input net id -> 0/1 (unlisted inputs are X)."""

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    assignments: Dict[int, int] = field(default_factory=dict)

    def specified_bits(self) -> int:
        """Number of care bits."""
        return len(self.assignments)

    def conflicts_with(self, other: "TestPattern") -> bool:
        """True when some input is assigned opposite values."""
        small, large = self.assignments, other.assignments
        if len(small) > len(large):
            small, large = large, small
        for net_id, value in small.items():
            other_value = large.get(net_id)
            if other_value is not None and other_value != value:
                return True
        return False

    def merged_with(self, other: "TestPattern") -> "TestPattern":
        """Union of two non-conflicting patterns."""
        merged = dict(self.assignments)
        merged.update(other.assignments)
        return TestPattern(merged)

    def filled(self, input_ids: Sequence[int], rng: random.Random) -> "TestPattern":
        """Replace X bits with random values over the given input list."""
        assignments = dict(self.assignments)
        if len(assignments) == len(input_ids):
            # Fully specified already: no X bits, no draws — the RNG
            # stream is untouched either way.
            return TestPattern(assignments)
        for net_id in input_ids:
            if net_id not in assignments:
                assignments[net_id] = rng.getrandbits(1)
        return TestPattern(assignments)

    def as_trits(self, input_ids: Sequence[int]) -> Dict[int, Optional[int]]:
        """The dict form the simulators consume (None for X)."""
        return {net_id: self.assignments.get(net_id) for net_id in input_ids}


@dataclass
class TestSet:
    """An ordered collection of patterns for one circuit."""

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    circuit_name: str
    patterns: List[TestPattern] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[TestPattern]:
        return iter(self.patterns)

    def add(self, pattern: TestPattern) -> None:
        self.patterns.append(pattern)

    def filled(self, circuit: CompiledCircuit, seed: int = 0) -> "TestSet":
        """Deterministically fill every X bit (one RNG for the whole set)."""
        rng = random.Random(seed)
        return TestSet(
            circuit_name=self.circuit_name,
            patterns=[p.filled(circuit.input_ids, rng) for p in self.patterns],
        )

    def as_trit_dicts(self, circuit: CompiledCircuit) -> List[Dict[int, Optional[int]]]:
        return [p.as_trits(circuit.input_ids) for p in self.patterns]

    def care_bit_fraction(self, circuit: CompiledCircuit) -> float:
        """Mean fraction of specified bits — the compaction headroom."""
        if not self.patterns:
            raise ValueError("empty test set")
        width = len(circuit.input_ids)
        return sum(p.specified_bits() for p in self.patterns) / (width * len(self.patterns))


#: Most single-bit draws one ``getrandbits`` call serves in
#: :func:`random_pattern_rails`, which bounds its temporaries to ~10 MB.
DRAW_SLICE = 1 << 20

#: Byte -> ``b"1"`` when its top bit is set, else ``b"0"``.
_TOP_BIT_CHAR = bytes(0x31 if byte & 0x80 else 0x30 for byte in range(256))
_CHAR_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")


def _single_bit_draws(rng: random.Random, draws: int) -> bytes:
    """``draws`` successive ``rng.getrandbits(1)`` results, from one call.

    The bits come back as ``b"0"``/``b"1"`` characters.  CPython fills
    ``getrandbits(32 * k)`` with k successive 32-bit Mersenne words,
    the first one least significant, and ``getrandbits(1)`` is the top
    bit of one word.  So bit 31 of word ``i`` is the ``i``-th
    single-bit draw, and the generator ends in the state the
    single-bit calls would leave.
    """
    if not draws:
        return b""
    words = rng.getrandbits(32 * draws).to_bytes(4 * draws, "little")
    return words[3::4].translate(_TOP_BIT_CHAR)


def random_pattern(
    input_ids: Sequence[int], rng: random.Random
) -> TestPattern:
    """A fully specified random pattern (one draw per input, in order)."""
    bits = _single_bit_draws(rng, len(input_ids)).translate(_CHAR_TO_BIT)
    return TestPattern(dict(zip(input_ids, bits)))


def random_pattern_rails(
    input_ids: Sequence[int],
    rng: random.Random,
    count: int,
    net_count: int,
) -> Tuple[List[int], List[int]]:
    """Draw ``count`` random patterns directly as packed dual rails.

    Returns flat ``(ones, zeros)`` lists sized for a whole circuit
    (``net_count`` entries), with bit ``k`` of input net ``n`` set in
    ``ones`` when pattern ``k`` drives ``n`` to 1 — exactly what
    ``pack_patterns_flat`` would produce for ``count`` successive
    :func:`random_pattern` calls, without materializing any per-pattern
    dict.

    RNG contract: the bits, and the state ``rng`` is left in, are those
    of ``count * len(input_ids)`` successive ``rng.getrandbits(1)``
    calls, patterns outermost and inputs in ``input_ids`` order, so a
    shared ``Random`` advances identically through this function and
    :func:`random_pattern`.  The draws are made ``DRAW_SLICE`` at a
    time, whole patterns per call.  ``tests/test_podem_kernel.py``
    checks the rails and the final state against the one-call-per-bit
    loop.
    """
    ones = [0] * net_count
    zeros = [0] * net_count
    width = len(input_ids)
    vals = [0] * width
    rows_per_slice = max(1, DRAW_SLICE // max(width, 1))
    for first in range(0, count, rows_per_slice):
        rows = min(rows_per_slice, count - first)
        # Draw r * width + c is pattern first + r on input c.  Reversed,
        # input c's draws start at width - 1 - c, last pattern first:
        # the order int(..., 2) reads as a packed word.
        drawn = _single_bit_draws(rng, rows * width)[::-1]
        vals = [
            value | int(drawn[width - 1 - column :: width], 2) << first
            for column, value in enumerate(vals)
        ]
    # Random patterns are fully specified, so the zeros rail is just the
    # complement of the ones rail over the batch width.
    full = (1 << count) - 1
    for net_id, value in zip(input_ids, vals):
        ones[net_id] = value
        zeros[net_id] = value ^ full
    return ones, zeros


def pattern_from_rails(
    input_ids: Sequence[int], ones: List[int], bit: int
) -> TestPattern:
    """Materialize packed pattern ``bit`` back into dict form.

    Only fully specified rails (every input bit set in exactly one
    rail) round-trip; the assignments dict lists inputs in ``input_ids``
    order, matching what :func:`random_pattern` builds.
    """
    mask = 1 << bit
    return TestPattern(
        {net_id: 1 if ones[net_id] & mask else 0 for net_id in input_ids}
    )
