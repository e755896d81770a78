"""Statistics tying TDV reduction to pattern-count variation.

Section 5.2 of the paper observes that the TDV reduction of modular
testing "is correlated to the normalized standard deviation of core
pattern counts" (Table 4, column 3), with g12710 (norm. stdev 0.18, the
only SOC where modular testing *loses*) and a586710 (1.95, a 99.3%
reduction) as the two extremes.  This module computes those statistics
plus the "pessimism factor" of Tables 1–2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..soc.model import Soc
from .tdv import TdvSummary, summarize


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on an empty sequence."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stdev(values: Sequence[float], ddof: int = 1) -> float:
    """Standard deviation with ``ddof`` delta degrees of freedom.

    Cross-checking Table 4 against the known d695 and g12710 pattern
    counts shows the paper used the *sample* standard deviation
    (``ddof=1``): g12710's counts (852, 1314, 1223, 1223) give 0.178
    with ``ddof=1`` (the paper rounds to 0.18) versus 0.154 with
    ``ddof=0``.
    """
    if len(values) <= ddof:
        raise ValueError(f"need more than {ddof} values for stdev with ddof={ddof}")
    mu = mean(values)
    return math.sqrt(sum((value - mu) ** 2 for value in values) / (len(values) - ddof))


def normalized_stdev(values: Sequence[float], ddof: int = 1) -> float:
    """Standard deviation divided by the mean (coefficient of variation).

    This is the paper's Table 4 column 3, computed over the pattern
    counts of an SOC's cores.
    """
    mu = mean(values)
    if mu == 0:
        raise ValueError("normalized stdev undefined for zero-mean values")
    return stdev(values, ddof=ddof) / mu


def pattern_count_variation(soc: Soc, include_top: bool = False, ddof: int = 1) -> float:
    """Normalized stdev of an SOC's core pattern counts.

    Table 4's "Cores" column and its variation statistic cover the
    functional cores only, so the default excludes the top-level glue
    core; pass ``include_top=True`` to keep it.
    """
    counts = [
        core.patterns
        for core in soc
        if include_top or core.name != soc.top_name
    ]
    if len(counts) <= ddof:
        return 0.0  # a single core has no pattern-count variation
    return normalized_stdev(counts, ddof=ddof)


def pessimism_factor(actual_monolithic_patterns: int, soc: Soc) -> float:
    """How far the Eq. 2 bound understates the real monolithic pattern count.

    Tables 1–2 report this indirectly: the actual/optimistic monolithic
    TDV ratio is 129K/51K ≈ 2.5x for SOC1 and 2.98M/1.43M ≈ 2.1x for
    SOC2.  Since both volumes share the per-pattern bit width, the ratio
    equals the pattern-count ratio computed here.
    """
    bound = soc.max_core_patterns
    if bound == 0:
        raise ValueError("SOC has no test patterns; pessimism factor undefined")
    return soc.monolithic_patterns(actual_monolithic_patterns) / bound


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length series."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("correlation needs at least two points")
    mx, my = mean(xs), mean(ys)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        raise ValueError("correlation undefined for a constant series")
    # Clamp float noise so perfectly correlated series return exactly +/-1.
    return max(-1.0, min(1.0, cov / math.sqrt(vx * vy)))


@dataclass(frozen=True)
class SocAnalysis:
    """One SOC's row in a Table-4-style comparison."""

    summary: TdvSummary
    pattern_variation: float

    @property
    def reduction_percent(self) -> float:
        """Percent TDV change of modular vs monolithic (negative = reduction)."""
        return 100.0 * self.summary.modular_change_fraction


def analyze(soc: Soc) -> SocAnalysis:
    """Summarize one SOC under the Table-4 conventions (optimistic T_mono)."""
    return SocAnalysis(
        summary=summarize(soc),
        pattern_variation=pattern_count_variation(soc),
    )


def reduction_variation_correlation(socs: Sequence[Soc]) -> float:
    """Correlation between pattern-count variation and TDV reduction.

    Reduction is taken as ``-modular_change_fraction`` so a positive
    correlation means "more variation, more reduction" — the paper's
    Section 5.2 observation.
    """
    analyses = [analyze(soc) for soc in socs]
    variations = [a.pattern_variation for a in analyses]
    reductions = [-a.summary.modular_change_fraction for a in analyses]
    return pearson_correlation(variations, reductions)


def rank_by_reduction(socs: Sequence[Soc]) -> List[SocAnalysis]:
    """SOCs ordered from largest TDV reduction to smallest."""
    return sorted(
        (analyze(soc) for soc in socs),
        key=lambda a: a.summary.modular_change_fraction,
    )
