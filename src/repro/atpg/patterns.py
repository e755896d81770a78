"""Test patterns and test sets.

A pattern assigns 0/1/X to the (pseudo-)primary inputs of one circuit;
internally assignments are keyed by compiled net id.  A test pattern
with X bits is *partial* (PODEM output, compaction input); filling
replaces the X bits deterministically before fault simulation and
delivery, which is exactly the point where the paper's "don't care
dummy bits" become real shifted bits.  A complete pattern is held as a
row of one ``0``/``1`` character per input (:class:`TestPattern`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .compiled import CompiledCircuit

#: ``0``/``1``/``-`` row characters <-> the values 0, 1 and X (2).
_X = 2
_VALUE_TO_CHAR = bytes.maketrans(b"\x00\x01\x02", b"01-")
_CHAR_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")


class TestPattern:
    """One test pattern: input net id -> 0/1; unlisted inputs are X.

    A pattern has one of two forms, and whether it is complete decides
    which:

    * a *partial* pattern (PODEM output, compaction) holds the dict of
      its care bits;
    * a *complete* pattern (random-phase keepers, every filled pattern,
      cache reads) holds a *row*: one ``0``/``1`` character per input
      over ``row_ids``, the circuit's ascending input ids.  It is the
      row the schema-2 cache entry stores, about one byte per test bit.

    :attr:`assignments` reads either form as a dict.  For a row it
    builds a new dict on every read and caches nothing, so loops read it
    once per pattern, never once per net.  Two rows over the same ids
    compare as rows; any other pair compares as dicts.
    """

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class
    __slots__ = ("_values", "row", "row_ids")

    def __init__(self, assignments: Optional[Dict[int, int]] = None):
        self._values = {} if assignments is None else assignments
        self.row: Optional[str] = None
        self.row_ids: Optional[Sequence[int]] = None

    @classmethod
    def from_row(cls, row_ids: Sequence[int], row: str) -> "TestPattern":
        """The complete pattern whose value on ``row_ids[i]`` is ``row[i]``."""
        pattern = cls.__new__(cls)
        pattern._values = None
        pattern.row = row
        pattern.row_ids = row_ids
        return pattern

    @property
    def assignments(self) -> Dict[int, int]:
        """Input net id -> 0/1 for every care bit."""
        if self.row is None:
            return self._values
        bits = self.row.encode("ascii").translate(_CHAR_TO_BIT)
        return dict(zip(self.row_ids, bits))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TestPattern):
            return NotImplemented
        if (
            self.row is not None
            and other.row is not None
            and (self.row_ids is other.row_ids or self.row_ids == other.row_ids)
        ):
            return self.row == other.row
        return self.assignments == other.assignments

    def __repr__(self) -> str:
        if self.row is not None:
            return f"TestPattern.from_row(<{len(self.row)} ids>, {self.row!r})"
        return f"TestPattern({self._values!r})"

    def specified_bits(self) -> int:
        """Number of care bits."""
        return len(self.row) if self.row is not None else len(self._values)

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

    def is_row_over(self, input_ids: Sequence[int]) -> bool:
        """Whether this is a row as long as ``input_ids`` (nothing to fill)."""
        return self.row is not None and len(self.row) == len(input_ids)

    def filled(self, input_ids: Sequence[int], rng: random.Random) -> "TestPattern":
        """Replace X bits with random values over the given input list.

        The result is a row over ``input_ids``.  X bits take successive
        ``rng.getrandbits(1)`` draws in ``input_ids`` order; a complete
        pattern draws nothing, and a row comes back as itself.
        """
        if self.is_row_over(input_ids):
            return self
        values = self.assignments
        chars = bytes(map(values.get, input_ids, repeat(_X))).translate(_VALUE_TO_CHAR)
        gaps = chars.count(b"-")
        if gaps:
            # Each X becomes a %c slot; the draws fill the slots in order.
            draws = _single_bit_draws(rng, gaps)
            chars = chars.replace(b"-", b"%c") % tuple(draws)
        return TestPattern.from_row(input_ids, chars.decode("ascii"))

    def as_trits(self, input_ids: Sequence[int]) -> Dict[int, Optional[int]]:
        """The dict form the simulators consume (None for X)."""
        values = self.assignments
        return {net_id: values.get(net_id) for net_id in input_ids}


def row_pattern(input_ids: Sequence[int], bits: Iterable[int]) -> TestPattern:
    """The complete pattern with 0/1 values ``bits`` in ``input_ids`` order."""
    row = bytes(bits).translate(_VALUE_TO_CHAR).decode("ascii")
    return TestPattern.from_row(input_ids, row)


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
    return TestPattern.from_row(
        input_ids, _single_bit_draws(rng, len(input_ids)).decode("ascii")
    )


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


def rows_from_rails(
    input_ids: Sequence[int], ones: List[int], count: int, bits: Sequence[int]
) -> List[TestPattern]:
    """Patterns ``bits`` of a ``count``-wide fully specified block, as rows.

    One transposition serves every kept pattern: each input's ``ones``
    rail becomes a ``count``-digit binary string (pattern ``count - 1``
    first), the strings are joined in ``input_ids`` order, and pattern
    ``b``'s row is every ``count``-th character from ``count - 1 - b``.
    """
    if not bits:
        return []
    spec = f"0{count}b"
    table = "".join([format(ones[net_id], spec) for net_id in input_ids])
    return [
        TestPattern.from_row(input_ids, table[count - 1 - bit::count])
        for bit in bits
    ]


def pack_rows(
    circuit: CompiledCircuit, rows: Sequence[str]
) -> Tuple[List[int], List[int]]:
    """Flat ones/zeros lists for complete patterns given as rows.

    The inverse of :func:`rows_from_rails`.  Each row holds one
    ``0``/``1`` character per input over ``circuit.input_ids``; row
    ``k`` becomes bit ``k``.  The rows are joined last first, so input
    ``c``'s column — every ``width``-th character from ``c`` — is its
    rail's binary digits, most significant first: one stepped slice and
    one ``int(column, 2)`` per input.  The zeros rail is the complement
    of the ones rail over the batch width.
    """
    ones = [0] * circuit.net_count
    zeros = [0] * circuit.net_count
    if rows:
        input_ids = circuit.input_ids
        width = len(input_ids)
        table = "".join(reversed(rows))
        full = (1 << len(rows)) - 1
        for column, net_id in enumerate(input_ids):
            value = int(table[column::width], 2)
            ones[net_id] = value
            zeros[net_id] = value ^ full
    return ones, zeros
