"""TAM and wrapper-design substrate (the paper's scoped-out dimension).

The public surface is the unified co-optimization API:

* :class:`TamProblem` — the instance (core test specs + TAM width),
  built directly or via ``TamProblem.from_soc`` /
  ``TamProblem.from_benchmark``;
* :func:`cooptimize` — solve it with one of :data:`SCHEDULERS`
  (``"serial"``, ``"greedy"``, ``"binpack"``), optionally under a
  :class:`~repro.runtime.session.Runtime` for tracing;
* :class:`CoOptResult` — schedule, per-core widths, and the full
  test-time / test-data-volume accounting;
* :func:`design_space` / :func:`pareto_front` — evaluate a width x
  scheduler grid and prune it to the non-dominated points.

Everything shares the typed result hierarchy rooted at
:class:`TamResult` (``Schedule``, ``ArchitectureResult``,
``IdleBitReport``, ``AbortOnFailStudy``, ``CoOptResult``), each
flattening to a JSON-able record via ``as_record()`` for the sweep
engine.
"""

from .abort_on_fail import (
    AbortOnFailStudy,
    FailProbability,
    expected_abort_time,
    order_abort_aware,
    order_shortest_first,
    study,
)
from .architectures import (
    ArchitectureResult,
    compare_architectures,
    core_specs_from_soc,
    daisychain_architecture,
    distribution_architecture,
    multiplexing_architecture,
)
from .idle_bits import IdleBitReport, idle_bit_report, idle_bit_sweep, useful_bits_check
from .problem import (
    DEFAULT_CANDIDATE_WIDTHS,
    SCHEDULERS,
    CoOptResult,
    TamProblem,
    cooptimize,
    design_space,
    pareto_front,
)
from .scheduling import (
    makespan_lower_bound,
    schedule_best_fit,
    schedule_greedy,
    schedule_serial,
)
from .types import (
    CoreTestSpec,
    ParetoPoint,
    Schedule,
    ScheduledTest,
    TamResult,
    pareto_widths,
    width_saturation,
)
from .wrapper_design import (
    WrapperChain,
    WrapperDesign,
    balanced_chain_lengths,
    design_wrapper,
    partition_scan_lengths,
    spread_level,
    wrapper_bottlenecks,
)

__all__ = [
    "AbortOnFailStudy",
    "ArchitectureResult",
    "CoOptResult",
    "CoreTestSpec",
    "DEFAULT_CANDIDATE_WIDTHS",
    "FailProbability",
    "IdleBitReport",
    "ParetoPoint",
    "SCHEDULERS",
    "Schedule",
    "ScheduledTest",
    "TamProblem",
    "TamResult",
    "WrapperChain",
    "WrapperDesign",
    "balanced_chain_lengths",
    "compare_architectures",
    "cooptimize",
    "core_specs_from_soc",
    "daisychain_architecture",
    "design_space",
    "design_wrapper",
    "distribution_architecture",
    "expected_abort_time",
    "idle_bit_report",
    "idle_bit_sweep",
    "makespan_lower_bound",
    "multiplexing_architecture",
    "order_abort_aware",
    "order_shortest_first",
    "pareto_front",
    "pareto_widths",
    "partition_scan_lengths",
    "schedule_best_fit",
    "schedule_greedy",
    "schedule_serial",
    "spread_level",
    "study",
    "useful_bits_check",
    "width_saturation",
    "wrapper_bottlenecks",
]
