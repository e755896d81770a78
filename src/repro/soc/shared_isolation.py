"""Shared (functional-cell) isolation — the paper's own relaxation.

Section 3: "we assume that cores are wrapped by using dedicated cells
on each core I/O.  While such an isolation scheme ensures full
isolation, it is nevertheless a pessimistic approach in terms of test
data volume.  The utilization of functional registers along with
dedicated cells may lead to reduced test data volume penalty."

This module models exactly that relaxation: a fraction of each core's
terminals is isolated by *reusing* existing functional/scan registers
that already carry a stimulus/response bit in the core's test, so only
the remaining terminals need dedicated wrapper cells.  The effective
isolation cost becomes

    ISOCOST_eff(P) = own_cells(P) + Σ_C child_cells(C)

with ``cells(X) = ceil((1 - sharing) * (I+O+2B)_X)``.  At ``sharing=0``
this is the paper's Eq. 5; at ``sharing=1`` isolation is free and the
modular benefit is pure.  The ablation charts how the Table-4 outcomes
move between those poles — in particular, how much sharing g12710
needs before modular testing wins there too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..core.tdv import tdv_monolithic
from .model import Soc


def shared_isocost(soc: Soc, core_name: str, sharing: float) -> int:
    """Eq. 5 with a fraction of terminals isolated by functional cells."""
    if not 0.0 <= sharing <= 1.0:
        raise ValueError(f"sharing must be in [0, 1], got {sharing}")
    parent = soc[core_name]
    cost = _dedicated_cells(parent.io_terminals, sharing)
    for child in soc.children_of(core_name):
        cost += _dedicated_cells(child.io_terminals, sharing)
    return cost


def _dedicated_cells(terminals: int, sharing: float) -> int:
    return math.ceil((1.0 - sharing) * terminals)


def tdv_modular_shared(soc: Soc, sharing: float) -> int:
    """Eq. 4 under partial functional-register isolation."""
    return sum(
        core.patterns
        * (core.scan_bits_per_pattern + shared_isocost(soc, core.name, sharing))
        for core in soc
    )


def tdv_penalty_shared(soc: Soc, sharing: float) -> int:
    """Eq. 7 under partial functional-register isolation."""
    return sum(
        core.patterns * shared_isocost(soc, core.name, sharing) for core in soc
    )


@dataclass(frozen=True)
class SharingPoint:
    """One SOC evaluated at one sharing fraction."""

    sharing: float
    tdv_modular: int
    tdv_penalty: int
    modular_change_fraction: float


def sharing_sweep(
    soc: Soc,
    fractions: Optional[List[float]] = None,
    monolithic_patterns: Optional[int] = None,
) -> List[SharingPoint]:
    """Modular TDV across the dedicated-to-shared isolation spectrum."""
    if fractions is None:
        fractions = [0.0, 0.25, 0.5, 0.75, 1.0]
    t_mono = soc.monolithic_patterns(monolithic_patterns)
    mono = tdv_monolithic(soc, t_mono)
    points = []
    for sharing in fractions:
        modular = tdv_modular_shared(soc, sharing)
        points.append(
            SharingPoint(
                sharing=sharing,
                tdv_modular=modular,
                tdv_penalty=tdv_penalty_shared(soc, sharing),
                modular_change_fraction=(modular - mono) / mono,
            )
        )
    return points


def breakeven_sharing(
    soc: Soc,
    tolerance: float = 1e-3,
    monolithic_patterns: Optional[int] = None,
) -> Optional[float]:
    """The sharing fraction where modular testing breaks even.

    Returns None when modular testing already wins at ``sharing=0``
    (most SOCs) or still loses at ``sharing=1`` (impossible unless the
    benefit itself is negative, which Eq. 8 forbids — kept for
    robustness).  For g12710 this locates the isolation quality the
    paper's pessimism hides.
    """
    def change(sharing: float) -> float:
        return sharing_sweep(
            soc, [sharing], monolithic_patterns=monolithic_patterns
        )[0].modular_change_fraction

    lo, hi = 0.0, 1.0
    f_lo, f_hi = change(lo), change(hi)
    if f_lo <= 0:
        return None  # already winning with fully dedicated cells
    if f_hi > 0:
        return None  # cannot win even with free isolation
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if change(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
