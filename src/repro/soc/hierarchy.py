"""Hierarchy-aware isolation cost (``ISOCOST``) computation.

Equation 5 of the paper: when a parent core ``P`` is tested, its own
wrapper is in InTest mode while the wrappers of its direct children are
in ExTest mode.  Per pattern this costs one bit per parent terminal
(``I + O + 2B`` of the parent) plus one bit per child terminal
(``I + O + 2B`` summed over direct children) — the wrapper cells that
must be controlled and observed around the logic under test.
"""

from __future__ import annotations

from typing import Dict

from .model import Soc


def isocost(soc: Soc, core_name: str, chip_pin_wrappers: bool = True) -> int:
    """Per-pattern isolation cost of testing one core (Eq. 5).

    ``ISOCOST_P = I_P + O_P + 2 B_P + sum_{C in Child(P)} (I_C + O_C + 2 B_C)``

    ``chip_pin_wrappers=False`` selects the convention of the paper's
    Tables 1 and 2, where the SOC *top* core's own terminals are chip
    pins — directly accessible from the ATE, hence needing no dedicated
    wrapper cells — and only the children's terminals are counted
    (Table 1's top row is exactly ``2 x 163``).  Table 3 appears to
    include the chip terminals, which Eq. 5 taken literally also does,
    so that remains the default.
    """
    parent = soc[core_name]
    if chip_pin_wrappers or core_name != soc.top_name:
        cost = parent.io_terminals
    else:
        cost = 0
    for child in soc.children_of(core_name):
        cost += child.io_terminals
    return cost


def isocost_table(soc: Soc, chip_pin_wrappers: bool = True) -> Dict[str, int]:
    """ISOCOST for every core of the SOC, keyed by core name."""
    return {
        core.name: isocost(soc, core.name, chip_pin_wrappers) for core in soc
    }


def core_test_bits_per_pattern(
    soc: Soc, core_name: str, chip_pin_wrappers: bool = True
) -> int:
    """Bits shifted per pattern when testing one core: ``2 S_P + ISOCOST_P``."""
    core = soc[core_name]
    return core.scan_bits_per_pattern + isocost(soc, core_name, chip_pin_wrappers)


def core_tdv(soc: Soc, core_name: str, chip_pin_wrappers: bool = True) -> int:
    """Test data volume of one core's stand-alone test (Eq. 4 summand)."""
    core = soc[core_name]
    return core.patterns * core_test_bits_per_pattern(
        soc, core_name, chip_pin_wrappers
    )


def wrapper_cell_count(soc: Soc, core_name: str) -> int:
    """Number of dedicated wrapper cells active while testing one core.

    One wrapper cell per parent terminal and per direct-child terminal;
    bidirectionals need a cell on each direction, hence the factor two in
    :func:`isocost`.  This equals ``ISOCOST`` because the paper assumes a
    dedicated cell on every core I/O (its stated pessimistic isolation
    scheme).
    """
    return isocost(soc, core_name)
