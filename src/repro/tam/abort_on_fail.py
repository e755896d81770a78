"""Abort-on-fail test ordering under per-core fail probabilities.

Production testers stop at the first failing core, so the *expected*
test time depends on the order in which core tests run — the setting of
Larsson (ITC 2004) and Ingelsson et al. (ETS 2005), both cited by the
paper as scheduling benefits that modular testing enables and monolithic
testing forfeits (one flat test has nothing to reorder).

For a serial schedule the classic result is that ordering by descending
``p_i / t_i`` (fail rate per cycle) minimizes the expected time to the
first fail decision; this module implements the orderings and the exact
expectation so the claim is testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Sequence

from ..errors import ConfigError
from .architectures import CoreTestSpec, _wrapper
from .types import TamResult


@dataclass(frozen=True)
class FailProbability:
    """Probability that a core's test fails on a random defective-ish die."""

    name: str
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"core {self.name!r}: probability must be in [0, 1]"
            )


def expected_abort_time(
    ordered_specs: Sequence[CoreTestSpec],
    probabilities: Dict[str, float],
    tam_width: int,
) -> float:
    """Expected serial test time with abort-on-first-fail.

    A core's test always runs to completion before its verdict; the
    session stops after the first failing core.  With independent fail
    events, the expected time is ``sum_k t_k * prod_{j<k} (1 - p_j)``.
    """
    expected = 0.0
    survive = 1.0
    for spec in ordered_specs:
        time = _wrapper(spec, tam_width).test_time_cycles(spec.patterns)
        expected += survive * time
        survive *= 1.0 - probabilities[spec.name]
    return expected


def order_abort_aware(
    specs: Sequence[CoreTestSpec],
    probabilities: Dict[str, float],
    tam_width: int,
) -> List[CoreTestSpec]:
    """The p/t-ratio ordering (largest fail-rate-per-cycle first).

    Optimal for the serial abort-on-fail expectation by the classic
    exchange argument: swapping adjacent cores i, j changes the
    expectation by ``t_j p_i - t_i p_j`` (scaled by the survival prefix),
    so sorting by ``p/t`` descending is a local—and hence global—minimum.
    """
    def ratio(spec: CoreTestSpec) -> float:
        time = _wrapper(spec, tam_width).test_time_cycles(spec.patterns)
        return probabilities[spec.name] / time if time else float("inf")

    return sorted(specs, key=ratio, reverse=True)


def order_shortest_first(
    specs: Sequence[CoreTestSpec], tam_width: int
) -> List[CoreTestSpec]:
    """The naive fail-probability-blind baseline."""
    return sorted(
        specs,
        key=lambda spec: _wrapper(spec, tam_width).test_time_cycles(spec.patterns),
    )


@dataclass
class AbortOnFailStudy(TamResult):
    """Expected times under the candidate orderings, one SOC."""

    kind: ClassVar[str] = "abort_on_fail"

    tam_width: int
    pass_time: float  # full session (all cores pass)
    expected_naive: float
    expected_optimized: float

    @property
    def improvement(self) -> float:
        """Relative expected-time saving of the p/t ordering."""
        if self.expected_naive == 0:
            return 0.0
        return 1.0 - self.expected_optimized / self.expected_naive


def study(
    specs: Sequence[CoreTestSpec],
    probabilities: Dict[str, float],
    tam_width: int = 8,
) -> AbortOnFailStudy:
    """Compare the naive and optimized orderings on one SOC."""
    for spec in specs:
        if spec.name not in probabilities:
            raise KeyError(f"no fail probability for core {spec.name!r}")
    naive = order_shortest_first(specs, tam_width)
    optimized = order_abort_aware(specs, probabilities, tam_width)
    pass_time = float(
        sum(
            _wrapper(spec, tam_width).test_time_cycles(spec.patterns)
            for spec in specs
        )
    )
    return AbortOnFailStudy(
        tam_width=tam_width,
        pass_time=pass_time,
        expected_naive=expected_abort_time(naive, probabilities, tam_width),
        expected_optimized=expected_abort_time(optimized, probabilities, tam_width),
    )
