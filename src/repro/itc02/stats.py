"""Descriptive statistics over the ITC'02 benchmark suite.

Characterizes each SOC along the axes the TDV analysis cares about —
scan population, terminal population, pattern-count spread, hierarchy —
and explains each SOC's Table 4 outcome from those inputs (the
"why does g12710 lose" question, answered quantitatively).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.analysis import pattern_count_variation
from ..core.tdv import summarize
from ..soc.model import Soc
from .benchmarks import BENCHMARK_NAMES, load


@dataclass(frozen=True)
class BenchmarkStats:
    """One SOC's structural profile."""

    name: str
    core_count: int  # functional cores
    hierarchical_cores: int
    total_scan_cells: int
    total_core_terminals: int  # functional-core I+O+2B
    pattern_min: int
    pattern_max: int
    pattern_variation: float
    terminals_per_scan_cell: float  # the g12710 indicator

    @property
    def io_dominated(self) -> bool:
        """True when terminals outnumber scan cells — the regime the
        paper identifies as g12710's reason for losing."""
        return self.terminals_per_scan_cell > 1.0


def soc_stats(soc: Soc) -> BenchmarkStats:
    functional = [core for core in soc if core.name != soc.top_name]
    total_terms = sum(core.io_terminals for core in functional)
    total_scan = sum(core.scan_cells for core in functional)
    counts = [core.patterns for core in functional]
    return BenchmarkStats(
        name=soc.name,
        core_count=len(functional),
        hierarchical_cores=sum(1 for core in functional if core.is_hierarchical),
        total_scan_cells=total_scan,
        total_core_terminals=total_terms,
        pattern_min=min(counts),
        pattern_max=max(counts),
        pattern_variation=pattern_count_variation(soc),
        terminals_per_scan_cell=(
            total_terms / total_scan if total_scan else float("inf")
        ),
    )


def suite_stats() -> List[BenchmarkStats]:
    """Profiles for all ten shipped benchmarks, Table-4 order."""
    return [soc_stats(load(name)) for name in BENCHMARK_NAMES]


def explain_outcome(soc: Soc) -> str:
    """A one-paragraph quantitative reading of an SOC's Table 4 row."""
    stats = soc_stats(soc)
    summary = summarize(soc)
    change = 100.0 * summary.modular_change_fraction
    lines = [
        f"{stats.name}: modular testing changes TDV by {change:+.1f}%.",
        f"Pattern counts span {stats.pattern_min:,}..{stats.pattern_max:,} "
        f"(normalized stdev {stats.pattern_variation:.2f}) over "
        f"{stats.core_count} cores, so the monolithic test tops off "
        f"{stats.total_scan_cells:,} scan cells to {stats.pattern_max:,} "
        f"patterns.",
        f"Isolation costs {stats.total_core_terminals:,} wrapper cells "
        f"({stats.terminals_per_scan_cell:.2f} per scan cell) — "
        + (
            "terminal-dominated, so the penalty can overwhelm the benefit."
            if stats.io_dominated
            else "scan-dominated, so the benefit dominates the penalty."
        ),
    ]
    return "\n".join(lines)


def suite_report() -> str:
    """The whole suite's profile as an aligned table."""
    from ..core.report import format_table

    rows = []
    for stats in suite_stats():
        rows.append([
            stats.name,
            stats.core_count,
            stats.hierarchical_cores,
            stats.total_scan_cells,
            stats.total_core_terminals,
            f"{stats.pattern_min:,}..{stats.pattern_max:,}",
            round(stats.pattern_variation, 2),
            "io" if stats.io_dominated else "scan",
        ])
    return format_table(
        ["SOC", "Cores", "Hier", "Scan cells", "Terminals", "Patterns",
         "NSD", "Dominated by"],
        rows,
    )
