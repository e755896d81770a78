"""The shared data vocabulary of the TAM layer.

Every :mod:`repro.tam` module used to define its own ad-hoc dataclasses;
this module consolidates the ones they all exchange — what a core's test
looks like (:class:`CoreTestSpec`), one useful (width, time) operating
point (:class:`ParetoPoint`), and a packed session schedule
(:class:`ScheduledTest` / :class:`Schedule`) — plus the common result
base (:class:`TamResult`) the per-module reports subclass.

:class:`TamResult` exists for one reason: the TAM layer's outputs feed
the sweep engine (:mod:`repro.sweeps`), whose aggregators and shard
journals consume flat JSON-able records.  ``as_record()`` is the single
bridge — every result type can flatten itself into such a record, so an
architecture comparison, an idle-bit report, and a co-optimization run
all stream through the same machinery.

Layering: this module imports only :mod:`repro.errors` and
:mod:`repro.tam.wrapper_design`, so every other ``repro.tam`` module can
depend on it without cycles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Sequence, Tuple

from ..errors import ConfigError, ScheduleError
from .wrapper_design import WrapperDesign, design_wrapper, wrapper_bottlenecks

_SCALARS = (int, float, str, bool, type(None))


class TamResult:
    """Base of the TAM layer's typed result hierarchy.

    Subclasses are dataclasses; the default :meth:`as_record` flattens
    their scalar fields (plus the class ``kind`` tag) into a JSON-able
    dict and subclasses extend it with their derived metrics — the
    record shape the sweep engine journals and aggregates.
    """

    kind: ClassVar[str] = "result"

    def as_record(self) -> Dict[str, Any]:
        """A flat JSON-able record of this result's scalar fields."""
        record: Dict[str, Any] = {"kind": self.kind}
        for field in dataclasses.fields(self):  # type: ignore[arg-type]
            value = getattr(self, field.name)
            if isinstance(value, _SCALARS):
                record[field.name] = value
        return record

    def summary(self) -> str:
        """One human-readable line (subclasses override)."""
        parts = ", ".join(
            f"{key}={value}" for key, value in self.as_record().items()
            if key != "kind"
        )
        return f"{self.kind}({parts})"


def _is_count(value: Any) -> bool:
    """An ``int`` (never a ``bool``) that is not negative."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


@dataclass(frozen=True)
class CoreTestSpec:
    """What TAM design needs to know about one core's test.

    Pattern, cell and chain-length counts must be non-negative ``int``
    values; anything else raises :class:`~repro.errors.ConfigError`.
    """

    name: str
    scan_chains: Sequence[int]
    input_cells: int
    output_cells: int
    patterns: int

    def __post_init__(self) -> None:
        for attr in ("input_cells", "output_cells", "patterns"):
            value = getattr(self, attr)
            if not _is_count(value):
                raise ConfigError(
                    f"core {self.name!r}: {attr} must be an int >= 0, "
                    f"got {value!r}"
                )
        if not all(_is_count(length) for length in self.scan_chains):
            raise ConfigError(
                f"core {self.name!r}: scan chain lengths must be ints >= 0, "
                f"got {list(self.scan_chains)!r}"
            )

    @property
    def total_scan(self) -> int:
        """Internal scan cells over all chains."""
        return sum(self.scan_chains)

    @property
    def useful_bits_per_pattern(self) -> int:
        """Care-capable bits per pattern, independent of TAM width."""
        return 2 * self.total_scan + self.input_cells + self.output_cells

    def wrapper(self, tam_width: int) -> WrapperDesign:
        """This core's LPT-balanced wrapper at ``tam_width`` wires."""
        return design_wrapper(
            self.name, self.scan_chains, self.input_cells,
            self.output_cells, tam_width,
        )

    def test_time_cycles(self, tam_width: int) -> int:
        """Shift-dominated test time at ``tam_width`` wires.

        Uses the closed-form bottleneck computation
        (:func:`repro.tam.wrapper_design.wrapper_bottlenecks`) instead
        of materializing the wrapper — same number, much cheaper, which
        is what lets the bin-packer enumerate Pareto staircases for
        every core of every ITC'02 SOC.
        """
        si, so = wrapper_bottlenecks(
            self.scan_chains, self.input_cells, self.output_cells, tam_width
        )
        return (1 + max(si, so)) * self.patterns + min(si, so)

    def shifted_bits(self, tam_width: int) -> int:
        """Delivered (idle-padded) bits of the whole test at this width."""
        si, so = wrapper_bottlenecks(
            self.scan_chains, self.input_cells, self.output_cells, tam_width
        )
        return self.patterns * tam_width * (si + so)


@dataclass(frozen=True)
class ParetoPoint:
    """One useful (width, test time) operating point for a core."""

    width: int
    test_time_cycles: int

    @property
    def area(self) -> int:
        """Wire-cycles of the test rectangle (bin-packing footprint)."""
        return self.width * self.test_time_cycles


def pareto_widths(spec: CoreTestSpec, max_width: int) -> List[ParetoPoint]:
    """The Pareto-optimal TAM widths of one core, ascending width.

    A width is kept only if it strictly beats every narrower width —
    the staircase effect of unsplittable internal scan chains: once the
    longest chain is alone on a wire, extra wires stop helping.

    The scan stops at the saturation width: every chain has a wire of
    its own (width >= chain count) and the scan cells plus the input or
    output cells fit under the longest chain (under one cell per wire
    for a core without scan).  Every wider wrapper has the same
    bottlenecks, so no wider width can join the staircase.
    """
    if max_width < 1:
        raise ConfigError(f"max_width must be >= 1, got {max_width}")
    chains = len(spec.scan_chains)
    floor = max(max(spec.scan_chains, default=0), 1)
    widest_path = spec.total_scan + max(spec.input_cells, spec.output_cells)
    points: List[ParetoPoint] = []
    best = None
    for width in range(1, max_width + 1):
        time = spec.test_time_cycles(width)
        if best is None or time < best:
            points.append(ParetoPoint(width=width, test_time_cycles=time))
            best = time
        if width >= chains and widest_path <= floor * width:
            break
    return points


def width_saturation(spec: CoreTestSpec, max_width: int = 64) -> int:
    """The width beyond which a core's test time stops improving."""
    return pareto_widths(spec, max_width)[-1].width


@dataclass(frozen=True)
class ScheduledTest:
    """One core's slot in the session schedule."""

    core: str
    width: int
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Schedule(TamResult):
    """A complete SOC test schedule."""

    kind: ClassVar[str] = "schedule"

    tam_width: int
    tests: List[ScheduledTest]

    @property
    def makespan(self) -> int:
        """Last test's end time; 0 for an empty schedule."""
        return max((test.end for test in self.tests), default=0)

    def utilization(self) -> float:
        """Occupied wire-cycles over the full width x makespan rectangle."""
        if not self.tests or self.makespan == 0 or self.tam_width == 0:
            return 0.0
        used = sum(test.width * test.duration for test in self.tests)
        return used / (self.tam_width * self.makespan)

    def verify(self) -> None:
        """Check the schedule's shape and its width budget at every instant.

        Raises :class:`~repro.errors.ScheduleError` (an
        ``AssertionError`` subclass, so legacy ``except AssertionError``
        handlers still catch it) on a non-positive TAM width, a
        zero-width or negative-width slot, a slot wider than the TAM,
        a slot ending before it starts, or any instant where the
        concurrent widths exceed the budget.
        """
        if self.tam_width < 1:
            raise ScheduleError(
                f"schedule needs tam_width >= 1, got {self.tam_width}"
            )
        for test in self.tests:
            if test.width < 1:
                raise ScheduleError(
                    f"core {test.core!r}: zero-width slot (width {test.width})"
                )
            if test.width > self.tam_width:
                raise ScheduleError(
                    f"core {test.core!r}: slot width {test.width} exceeds "
                    f"TAM width {self.tam_width}"
                )
            if test.end < test.start:
                raise ScheduleError(
                    f"core {test.core!r}: negative duration "
                    f"[{test.start}, {test.end})"
                )
        events: List[Tuple[int, int]] = []
        for test in self.tests:
            if test.duration == 0:
                continue  # zero-length slots occupy no instant
            events.append((test.start, test.width))
            events.append((test.end, -test.width))
        events.sort()
        active = 0
        for _time, delta in events:
            active += delta
            if active > self.tam_width:
                raise ScheduleError(
                    f"TAM width {self.tam_width} exceeded ({active} wires in use)"
                )

    def as_record(self) -> Dict[str, Any]:
        record = super().as_record()
        record["makespan"] = self.makespan
        record["utilization"] = self.utilization()
        record["tests"] = len(self.tests)
        return record

    def summary(self) -> str:
        return (
            f"{len(self.tests)} tests on {self.tam_width} wires: "
            f"makespan {self.makespan:,} cycles, "
            f"utilization {100 * self.utilization():.1f}%"
        )
