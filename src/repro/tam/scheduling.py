"""SOC test scheduling over a shared TAM budget.

Rectangle-packing schedulers in the style of the wrapper/TAM
co-optimization literature (Iyengar, Chakrabarty & Marinissen, DATE
2002; Islam/Karim/Babu's best-fit rectangle packers): each core's test
is a rectangle (TAM wires x cycles) and the scheduler assigns each core
a width and a start time so concurrent tests never exceed the total
width, minimizing makespan.

Three schedulers share the :class:`~repro.tam.types.Schedule` result
type:

* :func:`schedule_serial` — every core full-width, back to back (the
  Multiplexing architecture; the do-nothing baseline);
* :func:`schedule_greedy` — one fixed per-core width, longest test
  first on the earliest-free wires (shelf-style baseline);
* :func:`schedule_best_fit` — best-fit decreasing over each core's
  *Pareto-optimal* width candidates, ordered by normalized diagonal
  length, placing each test where it finishes earliest with the least
  created idle time.

All schedulers are deterministic and verify the width budget before
returning.  Errors are typed (:class:`~repro.errors.ConfigError` for
bad parameters, :class:`~repro.errors.ScheduleError` from
:meth:`~repro.tam.types.Schedule.verify`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

from ..errors import ConfigError
from .types import CoreTestSpec, ParetoPoint, Schedule, ScheduledTest, pareto_widths

#: Core name -> its Pareto staircase up to the TAM width, as
#: :func:`~repro.tam.types.pareto_widths` builds it.
Staircases = Mapping[str, Sequence[ParetoPoint]]

__all__ = [
    "Schedule",
    "ScheduledTest",
    "makespan_lower_bound",
    "schedule_best_fit",
    "schedule_greedy",
    "schedule_serial",
]


def _build_staircases(
    specs: Sequence[CoreTestSpec], tam_width: int
) -> Staircases:
    return {spec.name: pareto_widths(spec, tam_width) for spec in specs}


def schedule_serial(specs: Sequence[CoreTestSpec], tam_width: int) -> Schedule:
    """All cores full-width, back to back (Multiplexing architecture)."""
    if tam_width < 1:
        raise ConfigError(f"tam_width must be >= 1, got {tam_width}")
    tests = []
    clock = 0
    for spec in specs:
        duration = spec.test_time_cycles(tam_width)
        tests.append(ScheduledTest(spec.name, tam_width, clock, clock + duration))
        clock += duration
    schedule = Schedule(tam_width=tam_width, tests=tests)
    schedule.verify()
    return schedule


def schedule_greedy(
    specs: Sequence[CoreTestSpec],
    tam_width: int,
    preferred_width: int = 4,
) -> Schedule:
    """Concurrent scheduling: longest tests first, first idle wires win.

    Each core gets ``min(preferred_width, tam_width)`` wires; cores are
    placed longest-first at the earliest time where enough wires are
    simultaneously free — a shelf-style heuristic that is simple,
    deterministic, and respects the width budget exactly.
    """
    if tam_width < 1:
        raise ConfigError(f"tam_width must be >= 1, got {tam_width}")
    width = min(preferred_width, tam_width)
    if width < 1:
        raise ConfigError(f"preferred_width must be >= 1, got {preferred_width}")
    durations = {spec.name: spec.test_time_cycles(width) for spec in specs}
    ordered = sorted(specs, key=lambda s: -durations[s.name])
    # Track per-wire next-free time; a test takes the `width` wires that
    # free up earliest and starts when the last of them is free.
    wire_free = [0] * tam_width
    tests = []
    for spec in ordered:
        wires = sorted(range(tam_width), key=wire_free.__getitem__)[:width]
        start = max(wire_free[w] for w in wires)
        end = start + durations[spec.name]
        for w in wires:
            wire_free[w] = end
        tests.append(ScheduledTest(spec.name, width, start, end))
    schedule = Schedule(tam_width=tam_width, tests=tests)
    schedule.verify()
    return schedule


def schedule_best_fit(
    specs: Sequence[CoreTestSpec],
    tam_width: int,
    candidate_widths: Optional[Sequence[int]] = None,
    *,
    staircases: Optional[Staircases] = None,
) -> Schedule:
    """Best-fit-decreasing rectangle packing over Pareto width candidates.

    The bin-packing scheduler of the Islam/Karim/Babu line of papers,
    adapted to the wire-granular TAM model:

    1. each core's candidate rectangles are its Pareto-optimal
       (width, time) points up to ``tam_width`` (optionally intersected
       with ``candidate_widths``) — widths past a bottleneck chain are
       never considered because they buy no time;
    2. cores are ordered by decreasing *normalized diagonal length*
       ``sqrt((w/W)^2 + (t/T)^2)`` of their preferred (fastest)
       rectangle, so tests that are large on either axis place first,
       while small ones fill the gaps left behind;
    3. each core is placed *best-fit*: every candidate width is tried
       on the earliest-free wires and the one finishing earliest wins
       (ties broken toward less newly-created wire idle time, then the
       narrower width).

    Width safety is structural — placement assigns concrete wires, so
    the budget cannot be exceeded — and :meth:`Schedule.verify` checks
    it anyway.  ``staircases`` passes the cores' staircases when the
    caller already built them (a :class:`~repro.tam.problem.TamProblem`
    builds them once for the packer and its lower bound).
    """
    if tam_width < 1:
        raise ConfigError(f"tam_width must be >= 1, got {tam_width}")
    if not specs:
        return Schedule(tam_width=tam_width, tests=[])

    allowed = None
    if candidate_widths is not None:
        allowed = {w for w in candidate_widths if 1 <= w <= tam_width}
        if not allowed:
            raise ConfigError(
                f"no candidate width in {sorted(set(candidate_widths))} "
                f"fits a TAM of width {tam_width}"
            )

    if staircases is None:
        staircases = _build_staircases(specs, tam_width)
    candidates: Dict[str, Sequence[ParetoPoint]] = {}
    for spec in specs:
        staircase = staircases[spec.name]
        if allowed is not None:
            kept = [p for p in staircase if p.width in allowed]
            # A restricted width set may skip every staircase width; fall
            # back to the allowed widths themselves (still Pareto-pruned
            # by the best-fit choice below).
            staircase = kept or [
                ParetoPoint(width=w, test_time_cycles=spec.test_time_cycles(w))
                for w in sorted(allowed)
            ]
        candidates[spec.name] = staircase

    # Decreasing diagonal length of each core's fastest rectangle,
    # normalized by the TAM width and the longest fastest-time so both
    # axes weigh in; name-tied for determinism.
    time_scale = max(
        (candidates[spec.name][-1].test_time_cycles for spec in specs),
        default=0,
    ) or 1
    def diagonal(spec: CoreTestSpec) -> float:
        point = candidates[spec.name][-1]
        return math.sqrt(
            (point.width / tam_width) ** 2
            + (point.test_time_cycles / time_scale) ** 2
        )
    ordered = sorted(specs, key=lambda s: (-diagonal(s), s.name))

    wire_free = [0] * tam_width
    tests: List[ScheduledTest] = []
    for spec in ordered:
        best_key = None
        best_place = None
        # Wires sorted by next-free time once per core: for any width w
        # the w earliest-free wires minimize the start time (the max of
        # the w smallest free times).
        by_free = sorted(range(tam_width), key=wire_free.__getitem__)
        for point in candidates[spec.name]:
            wires = by_free[: point.width]
            start = wire_free[wires[-1]]
            end = start + point.test_time_cycles
            waste = sum(start - wire_free[w] for w in wires)
            key = (end, waste, point.width)
            if best_key is None or key < best_key:
                best_key = key
                best_place = (point, wires, start, end)
        assert best_place is not None  # candidates are never empty
        point, wires, start, end = best_place
        for w in wires:
            wire_free[w] = end
        tests.append(ScheduledTest(spec.name, point.width, start, end))
    schedule = Schedule(tam_width=tam_width, tests=tests)
    schedule.verify()
    return schedule


def makespan_lower_bound(
    specs: Sequence[CoreTestSpec],
    tam_width: int,
    *,
    staircases: Optional[Staircases] = None,
) -> int:
    """A simple lower bound no schedule at this width can beat.

    The larger of (a) the slowest core's best achievable time — some
    test must run that long — and (b) the total minimum rectangle area
    spread perfectly over all wires.  ``staircases`` passes the cores'
    staircases when the caller already built them.
    """
    if tam_width < 1:
        raise ConfigError(f"tam_width must be >= 1, got {tam_width}")
    if not specs:
        return 0
    if staircases is None:
        staircases = _build_staircases(specs, tam_width)
    best_times = []
    min_area = 0
    for spec in specs:
        staircase = staircases[spec.name]
        best_times.append(staircase[-1].test_time_cycles)
        min_area += min(point.area for point in staircase)
    return max(max(best_times), math.ceil(min_area / tam_width))
