"""The unified wrapper/TAM co-optimization surface.

One problem type in, one result type out:

.. code-block:: python

    from repro.tam import TamProblem, cooptimize

    problem = TamProblem.from_benchmark("d695", tam_width=16)
    result = cooptimize(problem, scheduler="binpack", runtime=runtime)
    print(result.summary())

:class:`TamProblem` captures an instance (the cores' test specs and the
shared TAM width); :func:`cooptimize` runs one of the registered
schedulers (:data:`SCHEDULERS`) and returns a :class:`CoOptResult`
carrying the schedule, the per-core width assignment and the full
time/volume accounting; :func:`design_space` evaluates a whole width x
scheduler grid and :func:`pareto_front` prunes it to the non-dominated
(width, time, volume) points.

Scheduler guarantees: ``"binpack"`` is a *portfolio* — it runs the
best-fit rectangle packer (:func:`~repro.tam.scheduling.schedule_best_fit`)
and the greedy width-enumeration baseline and keeps the better
makespan, so its result is never worse than ``"greedy"`` for the same
problem and candidate widths.  Pure best-fit usually wins outright;
the portfolio turns "usually" into an invariant the experiment and CI
can assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ConfigError
from ..observability import get_tracer, register_counter
from .architectures import core_specs_from_soc
from .scheduling import (
    makespan_lower_bound,
    schedule_best_fit,
    schedule_greedy,
    schedule_serial,
)
from .types import CoreTestSpec, ParetoPoint, Schedule, TamResult, pareto_widths

TAM_COOPTIMIZATIONS = register_counter(
    "tam.cooptimizations", "wrapper/TAM co-optimizations solved"
)

#: Scheduler names accepted by :func:`cooptimize` (and the CLI flag).
SCHEDULERS: Tuple[str, ...] = ("serial", "greedy", "binpack")

#: The greedy width-enumeration candidates; the historical default, so
#: the greedy schedules (and the ``tam`` experiment) stay unchanged.
DEFAULT_CANDIDATE_WIDTHS: Tuple[int, ...] = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class TamProblem:
    """One wrapper/TAM co-optimization instance.

    The cores to schedule and the total TAM width they share.  Build
    directly from specs, or with :meth:`from_soc` /
    :meth:`from_benchmark` which derive the specs the same way the
    architecture studies do (balanced internal chains unless an explicit
    partition is given; the top core excluded).  ``tam_width`` must be
    an ``int`` (not a ``bool``) of at least 1.
    """

    cores: Tuple[CoreTestSpec, ...]
    tam_width: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "cores", tuple(self.cores))
        if not isinstance(self.tam_width, int) or isinstance(self.tam_width, bool):
            raise ConfigError(
                f"tam_width must be an int, got {self.tam_width!r}"
            )
        if self.tam_width < 1:
            raise ConfigError(f"tam_width must be >= 1, got {self.tam_width}")
        if not self.cores:
            raise ConfigError("no cores to schedule")
        names = [core.name for core in self.cores]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate core names in problem: {names}")

    @classmethod
    def from_soc(
        cls,
        soc,
        tam_width: int,
        scan_chains: Optional[Dict[str, List[int]]] = None,
        default_chain_count: int = 4,
    ) -> "TamProblem":
        """Derive the problem from an SOC description."""
        specs = core_specs_from_soc(
            soc, scan_chains=scan_chains, default_chain_count=default_chain_count
        )
        return cls(cores=tuple(specs), tam_width=tam_width)

    @classmethod
    def from_benchmark(
        cls,
        name: str,
        tam_width: int,
        default_chain_count: int = 4,
    ) -> "TamProblem":
        """Derive the problem from a shipped ITC'02 benchmark by name."""
        from ..itc02 import load

        return cls.from_soc(
            load(name), tam_width, default_chain_count=default_chain_count
        )

    @property
    def core_names(self) -> Tuple[str, ...]:
        return tuple(core.name for core in self.cores)

    def at_width(self, tam_width: int) -> "TamProblem":
        """The same cores under a different TAM budget."""
        return TamProblem(cores=self.cores, tam_width=tam_width)

    @cached_property
    def _staircases(self) -> Dict[str, List[ParetoPoint]]:
        """Each core's staircase, built once for this instance: the
        best-fit packer and :meth:`lower_bound` both read it."""
        return {
            core.name: pareto_widths(core, self.tam_width) for core in self.cores
        }

    def pareto_sets(self) -> Dict[str, List[ParetoPoint]]:
        """Each core's Pareto-optimal width staircase up to the TAM width."""
        return {name: list(points) for name, points in self._staircases.items()}

    def lower_bound(self) -> int:
        """A makespan no schedule of this problem can beat."""
        return makespan_lower_bound(
            self.cores, self.tam_width, staircases=self._staircases
        )

    def useful_bits(self) -> int:
        """Care-capable bits of the whole session (width-independent)."""
        return sum(
            core.patterns * core.useful_bits_per_pattern for core in self.cores
        )


@dataclass
class CoOptResult(TamResult):
    """A solved co-optimization: schedule, widths, and volume accounting.

    ``delivered_bits`` counts every shifted bit (idle padding included,
    the TDV a tester actually streams); ``useful_bits`` counts only the
    care-capable ones (the paper's metric).  The gap is the idle-bit
    cost of the width assignment.
    """

    kind: ClassVar[str] = "cooptimization"

    tam_width: int
    assigned_widths: Dict[str, int]
    schedule: Schedule
    scheduler: str = "greedy"
    useful_bits: int = 0
    delivered_bits: int = 0
    lower_bound: int = 0

    @property
    def makespan(self) -> int:
        return self.schedule.makespan

    @property
    def idle_bits(self) -> int:
        return self.delivered_bits - self.useful_bits

    @property
    def idle_fraction(self) -> float:
        if self.delivered_bits == 0:
            return 0.0
        return self.idle_bits / self.delivered_bits

    def utilization(self) -> float:
        return self.schedule.utilization()

    def as_record(self) -> Dict[str, Any]:
        record = super().as_record()
        record["makespan"] = self.makespan
        record["utilization"] = self.utilization()
        record["idle_fraction"] = self.idle_fraction
        record["cores"] = len(self.assigned_widths)
        return record

    def summary(self) -> str:
        return (
            f"{self.scheduler} @ {self.tam_width} wires: "
            f"makespan {self.makespan:,} cycles "
            f"(lower bound {self.lower_bound:,}), "
            f"TDV {self.delivered_bits:,} bits "
            f"({100 * self.idle_fraction:.1f}% idle)"
        )


def _greedy_enumeration(
    problem: TamProblem, candidate_widths: Optional[Sequence[int]]
) -> Optional[Schedule]:
    """Legacy width enumeration: one shared width, best makespan wins.

    Returns ``None`` when no candidate fits the TAM (the caller decides
    whether that is an error or just an empty portfolio arm).
    """
    widths = (
        DEFAULT_CANDIDATE_WIDTHS if candidate_widths is None else candidate_widths
    )
    best: Optional[Schedule] = None
    for width in widths:
        if width > problem.tam_width:
            continue
        schedule = schedule_greedy(
            problem.cores, problem.tam_width, preferred_width=width
        )
        if best is None or schedule.makespan < best.makespan:
            best = schedule
    return best


def _solve(
    problem: TamProblem,
    scheduler: str,
    candidate_widths: Optional[Sequence[int]],
) -> Schedule:
    if scheduler == "serial":
        return schedule_serial(problem.cores, problem.tam_width)
    if scheduler == "greedy":
        schedule = _greedy_enumeration(problem, candidate_widths)
        if schedule is None:
            raise ConfigError("no candidate width fits the TAM")
        return schedule
    if scheduler == "binpack":
        packed = schedule_best_fit(
            problem.cores, problem.tam_width, staircases=problem._staircases
        )
        baseline = _greedy_enumeration(problem, candidate_widths)
        # Portfolio: never worse than the greedy baseline, by construction.
        if baseline is not None and baseline.makespan < packed.makespan:
            return baseline
        return packed
    raise ConfigError(
        f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}"
    )


def cooptimize(
    problem: TamProblem,
    candidate_widths: Optional[Sequence[int]] = None,
    *,
    scheduler: str = "binpack",
    runtime=None,
) -> CoOptResult:
    """Solve one wrapper/TAM co-optimization problem.

    ``cooptimize(TamProblem(...), scheduler="binpack", runtime=runtime)``.
    ``candidate_widths`` feeds the greedy width-enumeration (and the
    binpack portfolio's baseline arm); the best-fit packer itself always
    works from the cores' full Pareto staircases.  Anything but a
    :class:`TamProblem` — such as the retired ``(specs, tam_width)``
    call shape — raises :class:`~repro.errors.ConfigError`.
    """
    if not isinstance(problem, TamProblem):
        raise ConfigError(
            f"cooptimize expects a TamProblem, got "
            f"{type(problem).__name__}; build one with "
            f"TamProblem(cores=..., tam_width=...)"
        )

    if runtime is not None:
        with runtime.activate():
            return _cooptimize_active(problem, scheduler, candidate_widths)
    return _cooptimize_active(problem, scheduler, candidate_widths)


def _cooptimize_active(
    problem: TamProblem,
    scheduler: str,
    candidate_widths: Optional[Sequence[int]],
) -> CoOptResult:
    tracer = get_tracer()
    with tracer.span(
        "tam.cooptimize",
        scheduler=scheduler,
        tam_width=problem.tam_width,
        cores=len(problem.cores),
    ):
        schedule = _solve(problem, scheduler, candidate_widths)
        assigned = {test.core: test.width for test in schedule.tests}
        delivered = sum(
            core.shifted_bits(assigned[core.name]) for core in problem.cores
        )
        tracer.count(TAM_COOPTIMIZATIONS)
        return CoOptResult(
            tam_width=problem.tam_width,
            assigned_widths=assigned,
            schedule=schedule,
            scheduler=scheduler,
            useful_bits=problem.useful_bits(),
            delivered_bits=delivered,
            lower_bound=problem.lower_bound(),
        )


def design_space(
    problem: TamProblem,
    tam_widths: Sequence[int],
    schedulers: Sequence[str] = ("greedy", "binpack"),
    candidate_widths: Optional[Sequence[int]] = None,
    *,
    runtime=None,
) -> List[CoOptResult]:
    """Evaluate a width x scheduler grid of one problem's cores.

    Width-major order, schedulers in the given order within each width —
    the deterministic flattening the sweep engine and the benchmarks
    both rely on.
    """
    results = []
    for width in tam_widths:
        sub = problem.at_width(width)
        for scheduler in schedulers:
            results.append(
                cooptimize(
                    sub,
                    scheduler=scheduler,
                    candidate_widths=candidate_widths,
                    runtime=runtime,
                )
            )
    return results


def pareto_front(results: Iterable[CoOptResult]) -> List[CoOptResult]:
    """The non-dominated (tam_width, makespan, delivered_bits) points.

    A result is dominated when another is no worse on all three axes
    and strictly better on at least one; survivors come back sorted by
    (tam_width, makespan, scheduler) for deterministic output.
    """
    pool = list(results)

    def dominates(a: CoOptResult, b: CoOptResult) -> bool:
        no_worse = (
            a.tam_width <= b.tam_width
            and a.makespan <= b.makespan
            and a.delivered_bits <= b.delivered_bits
        )
        strictly = (
            a.tam_width < b.tam_width
            or a.makespan < b.makespan
            or a.delivered_bits < b.delivered_bits
        )
        return no_worse and strictly

    front = [
        candidate
        for candidate in pool
        if not any(dominates(other, candidate) for other in pool)
    ]
    return sorted(front, key=lambda r: (r.tam_width, r.makespan, r.scheduler))
