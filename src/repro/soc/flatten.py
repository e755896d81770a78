"""Flattening: the monolithic view of a modular SOC.

The paper's monolithic baseline tests the flattened design "with
isolation logic ripped out": one design whose terminals are the chip
I/Os and whose scan cells are the union of all core scan cells.
:func:`flatten` produces that single-core view so the Eq. 1/3 volumes
can be computed through exactly the same code path as any other core.
"""

from __future__ import annotations

from typing import Optional

from .model import Core, Soc


def flatten(soc: Soc, monolithic_patterns: Optional[int] = None) -> Soc:
    """Collapse an SOC into its single-core monolithic equivalent.

    The result has one core carrying the chip-level I/O of the original
    top, all scan cells of all cores, and a pattern count of
    ``monolithic_patterns`` (defaulting to the Eq. 2 lower bound — the
    optimistic monolithic test of Eq. 3).
    """
    top = soc.top
    patterns = soc.monolithic_patterns(monolithic_patterns)
    flat_core = Core(
        name=f"{soc.name}_flat",
        inputs=top.inputs,
        outputs=top.outputs,
        bidirs=top.bidirs,
        scan_cells=soc.total_scan_cells,
        patterns=patterns,
    )
    return Soc(f"{soc.name}_flat", [flat_core], top=flat_core.name)


def flat_bits_per_pattern(soc: Soc) -> int:
    """Per-pattern bit width of the flattened design (Eq. 1's first factor)."""
    return soc.chip_io_terminals + 2 * soc.total_scan_cells
