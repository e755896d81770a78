"""Tables 3 and 4: the ITC'02 benchmark SOCs.

Table 3 recomputes the per-core TDV of the hierarchical SOC p34392
through Eq. 4/5 and confronts each row with the published value
(flagging the two rows the paper itself got inconsistent — see
DESIGN.md).  Table 4 evaluates all ten benchmark SOCs and reports every
column next to the published one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from ..runtime.session import Runtime

from ..core.analysis import pattern_count_variation
from ..core.report import format_table, percent
from ..core.tdv import TdvSummary, summarize
from ..itc02.benchmarks import BENCHMARK_NAMES, load
from ..itc02.paper_tables import (
    TABLE3_INCONSISTENT_CORES,
    TABLE3_P34392,
    TABLE3_SOC_TDV,
    TABLE4_BY_NAME,
    Table4Row,
)
from ..soc.hierarchy import core_tdv
from ..soc.model import Soc
from .registry import experiment


@dataclass
class Table3Result:
    """Recomputed vs published per-core TDV for p34392."""

    soc: Soc
    computed: Dict[str, int]
    published: Dict[str, int]

    @property
    def matching_cores(self) -> List[str]:
        return [name for name, value in self.computed.items()
                if self.published.get(name) == value]

    @property
    def mismatching_cores(self) -> List[str]:
        return [name for name, value in self.computed.items()
                if self.published.get(name) != value]

    @property
    def computed_total(self) -> int:
        return sum(self.computed.values())

    def render(self) -> str:
        rows = []
        for row in TABLE3_P34392:
            computed = self.computed[row.core]
            flag = "" if computed == row.tdv else "  <- paper-internal inconsistency"
            rows.append([row.core, row.patterns, computed, row.tdv, flag])
        rows.append(["SOC", "", self.computed_total, TABLE3_SOC_TDV, ""])
        return format_table(
            ["Core", "T", "TDV (Eq. 4/5)", "TDV (paper)", ""], rows,
            aligns=["l", "r", "r", "r", "l"],
        )


def table3(soc_name: str = "p34392") -> Table3Result:
    """Recompute the paper's Table 3 from the shipped p34392 data."""
    soc = load(soc_name)
    computed = {core.name: core_tdv(soc, core.name) for core in soc}
    published = {row.core: row.tdv for row in TABLE3_P34392}
    return Table3Result(soc=soc, computed=computed, published=published)


@dataclass
class Table4Result:
    """One SOC's measured Table 4 row, next to the published one."""

    soc: Soc
    summary: TdvSummary
    variation: float
    published: Table4Row

    @property
    def modular_percent(self) -> float:
        return 100.0 * self.summary.modular_change_fraction


def table4(names: List[str] = None) -> List[Table4Result]:
    """Evaluate every (or the named) Table 4 SOC."""
    results = []
    for name in names or BENCHMARK_NAMES:
        soc = load(name)
        results.append(
            Table4Result(
                soc=soc,
                summary=summarize(soc),
                variation=pattern_count_variation(soc),
                published=TABLE4_BY_NAME[name],
            )
        )
    return results


def render_table4(results: List[Table4Result]) -> str:
    rows = []
    for r in results:
        rows.append([
            r.soc.name,
            len(r.soc) - 1,
            f"{r.variation:.2f} ({r.published.norm_stdev:.2f})",
            f"{r.summary.tdv_monolithic:,} ({r.published.tdv_opt_mono:,})",
            f"{percent(r.summary.penalty_fraction)} ({r.published.penalty_percent:+.1f}%)",
            f"{percent(-r.summary.benefit_fraction)} ({r.published.benefit_percent:+.1f}%)",
            f"{r.summary.tdv_modular:,} ({r.published.tdv_modular:,})",
            f"{percent(r.summary.modular_change_fraction)} ({r.published.modular_percent:+.1f}%)",
        ])
    averages = _averages(results)
    rows.append([
        "Average", "", "",
        "",
        f"{averages['penalty']:+.1f}%",
        f"{averages['benefit']:+.1f}%",
        "",
        f"{averages['modular']:+.1f}%",
    ])
    return format_table(
        ["SOC", "Cores", "NSD (paper)", "TDVopt_mono (paper)",
         "Penalty (paper)", "Benefit (paper)", "TDVmodular (paper)",
         "Change (paper)"],
        rows,
    )


def _averages(results: List[Table4Result]) -> Dict[str, float]:
    n = len(results)
    return {
        "penalty": 100.0 * sum(r.summary.penalty_fraction for r in results) / n,
        "benefit": -100.0 * sum(r.summary.benefit_fraction for r in results) / n,
        "modular": 100.0 * sum(r.summary.modular_change_fraction for r in results) / n,
    }


# table3 and table4 share this one runner (group="itc02"), so ``all``
# prints the combined report exactly once.
@experiment("table3", order=30, group="itc02")
@experiment("table4", order=31, group="itc02")
def run(
    verbose: bool = True,
    seed: Optional[int] = None,
    runtime: Optional["Runtime"] = None,
) -> List[Table4Result]:
    """CLI entry point: Table 3 then Table 4.

    Both tables recompute the paper's equations over the shipped
    benchmark data — ``seed``/``runtime`` are accepted for entry-point
    uniformity and have no effect.
    """
    t3 = table3()
    results = table4()
    if verbose:
        print("Table 3: p34392 per-core TDV (Eq. 4/5 vs published)")
        print(t3.render())
        print(f"  {len(t3.matching_cores)}/{len(t3.computed)} rows bit-exact; "
              f"known inconsistencies: {TABLE3_INCONSISTENT_CORES}")
        print()
        print("Table 4: ITC'02 SOCs, measured (published)")
        print(render_table4(results))
        print("  Paper averages: penalty +10.1%, benefit -60.3%, modular -50.2%")
    return results
