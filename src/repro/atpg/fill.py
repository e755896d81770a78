"""X-fill strategies for partial test patterns.

ATPG leaves most stimulus bits X; *something* must fill them before
delivery, and the choice is a real design lever:

* ``random`` — the default elsewhere in the package; maximizes the
  chance of incidental detections;
* ``zero`` / ``one`` — constant fill; long runs, so run-length
  compression collapses (the EDT-era observation);
* ``adjacent`` — repeat the previous specified value along the scan
  order; minimizes care-bit-to-fill transitions, the standard low-power
  fill (shift power tracks the number of transitions shifted through
  the chains).

:func:`shift_transitions` provides the weighted-switching-activity
proxy used to compare the strategies, and the fill study in the tests
pins the expected ordering: adjacent-fill minimizes transitions,
constant fill maximizes run-length compressibility, random fill
maximizes neither.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

from .compiled import CompiledCircuit
from .patterns import TestPattern, TestSet, row_pattern

FILL_STRATEGIES = ("random", "zero", "one", "adjacent")


def fill_pattern(
    pattern: TestPattern,
    input_ids: Sequence[int],
    strategy: str = "random",
    rng: Optional[random.Random] = None,
) -> TestPattern:
    """Fill one pattern's X bits over ``input_ids`` (scan order).

    The result is a row over ``input_ids``; a row comes back as itself.
    """
    if strategy not in FILL_STRATEGIES:
        raise ValueError(
            f"unknown fill strategy {strategy!r}; choose from {FILL_STRATEGIES}"
        )
    if pattern.is_row_over(input_ids):
        return pattern
    if strategy == "random":
        return pattern.filled(input_ids, rng or random.Random(0))
    values = pattern.assignments
    if strategy in ("zero", "one"):
        value = 0 if strategy == "zero" else 1
        bits = [values.get(net_id, value) for net_id in input_ids]
    else:  # adjacent
        bits = []
        previous = 0
        for net_id in input_ids:
            previous = values.get(net_id, previous)
            bits.append(previous)
    return row_pattern(input_ids, bits)


def fill_test_set(
    test_set: TestSet,
    circuit: CompiledCircuit,
    strategy: str = "random",
    seed: int = 0,
) -> TestSet:
    """Fill every pattern of a set with one strategy (one RNG overall)."""
    rng = random.Random(seed)
    return TestSet(
        circuit_name=test_set.circuit_name,
        patterns=[
            fill_pattern(pattern, circuit.input_ids, strategy, rng)
            for pattern in test_set.patterns
        ],
    )


def shift_transitions(
    test_set: TestSet, input_ids: Sequence[int]
) -> int:
    """Total adjacent-bit transitions across all stimulus streams.

    The standard proxy for scan shift power: every 0-to-1 or 1-to-0
    boundary in a serial load toggles every cell it passes through.
    X bits (unfilled patterns) are skipped conservatively.
    """
    total = 0
    for pattern in test_set.patterns:
        values = pattern.assignments
        previous: Optional[int] = None
        for net_id in input_ids:
            value = values.get(net_id)
            if value is None:
                continue
            if previous is not None and value != previous:
                total += 1
            previous = value
    return total


def fill_strategy_report(
    test_set: TestSet,
    circuit: CompiledCircuit,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Per-strategy transitions and run-length compressibility.

    Input ``test_set`` should be the *partial* (pre-fill) patterns; the
    report fills it each way and measures both costs, making the
    power-vs-compression-vs-coverage triangle concrete.
    """
    from .compression import compress_streams, pattern_streams

    report: Dict[str, Dict[str, float]] = {}
    for strategy in FILL_STRATEGIES:
        filled = fill_test_set(test_set, circuit, strategy, seed=seed)
        compression = compress_streams(
            strategy, pattern_streams(circuit, filled)
        )
        report[strategy] = {
            "transitions": float(shift_transitions(filled, circuit.input_ids)),
            "run_length_ratio": compression.run_length_ratio,
        }
    return report
