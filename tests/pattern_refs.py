"""Dict-based reference forms of the packed pattern transpositions.

The engine moves complete patterns as rows (``rows_from_rails`` cuts
them out of a block's rails, ``pack_rows`` packs them back into rails).
These two functions are the per-pattern dict forms those replaced; the
tests hold the row paths to them bit for bit.
"""

from typing import Dict, List, Sequence, Tuple

from repro.atpg.patterns import TestPattern


def pattern_from_rails(
    input_ids: Sequence[int], ones: List[int], bit: int
) -> TestPattern:
    """Packed pattern ``bit`` of fully specified rails, as a dict pattern."""
    mask = 1 << bit
    return TestPattern(
        {net_id: 1 if ones[net_id] & mask else 0 for net_id in input_ids}
    )


def pack_full_patterns_flat(
    circuit, patterns: Sequence[Dict[int, int]]
) -> Tuple[List[int], List[int]]:
    """Flat rails of fully specified dict patterns; pattern ``k`` is bit ``k``.

    Only the set bits are scattered; the zeros rail is the complement
    of the ones rail over the batch width.
    """
    ones = [0] * circuit.net_count
    zeros = [0] * circuit.net_count
    for bit, pattern in enumerate(patterns):
        mask = 1 << bit
        for net_id, value in pattern.items():
            if value:
                ones[net_id] |= mask
    full = (1 << len(patterns)) - 1
    for net_id in circuit.input_ids:
        zeros[net_id] = ones[net_id] ^ full
    return ones, zeros
