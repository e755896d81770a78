"""Idle-bit ablation: what the paper's useful-bits-only analysis omits.

Section 3: "We exclude the impact of the scan chain organization or the
test access mechanism from our analysis ... the comparative analysis
focuses on useful (non-idle) test data bits only."  This module puts
those idle bits back: for a given TAM width and chain organization it
computes the *delivered* (shifted) data volume of modular testing and of
the monolithic flattened test, so the modular-vs-monolithic comparison
can be checked for robustness against the abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional

from ..core.tdv import tdv_monolithic
from ..soc.model import Soc
from .architectures import core_specs_from_soc, _wrapper
from .types import TamResult
from .wrapper_design import balanced_chain_lengths


@dataclass
class IdleBitReport(TamResult):
    """Useful vs delivered volumes for both test styles at one TAM width."""

    kind: ClassVar[str] = "idle_bits"

    soc_name: str
    tam_width: int
    useful_modular: int
    delivered_modular: int
    useful_monolithic: int
    delivered_monolithic: int

    @property
    def modular_idle_fraction(self) -> float:
        if self.delivered_modular == 0:
            return 0.0
        return 1.0 - self.useful_modular / self.delivered_modular

    @property
    def monolithic_idle_fraction(self) -> float:
        if self.delivered_monolithic == 0:
            return 0.0
        return 1.0 - self.useful_monolithic / self.delivered_monolithic

    @property
    def useful_ratio(self) -> float:
        """Modular over monolithic, useful bits only (the paper's metric)."""
        return self.useful_modular / self.useful_monolithic

    @property
    def delivered_ratio(self) -> float:
        """Modular over monolithic, counting idle padding too."""
        return self.delivered_modular / self.delivered_monolithic

    def as_record(self) -> Dict[str, Any]:
        record = super().as_record()
        record["modular_idle_fraction"] = self.modular_idle_fraction
        record["monolithic_idle_fraction"] = self.monolithic_idle_fraction
        record["useful_ratio"] = self.useful_ratio
        record["delivered_ratio"] = self.delivered_ratio
        return record


def idle_bit_report(
    soc: Soc,
    tam_width: int,
    scan_chains: Optional[Dict[str, List[int]]] = None,
    monolithic_patterns: Optional[int] = None,
    monolithic_chain_count: Optional[int] = None,
) -> IdleBitReport:
    """Compare useful and delivered TDV for one SOC at one TAM width.

    Modular delivery: each core's wrapper is designed at the full TAM
    width (cores tested one at a time, others disconnected — the paper's
    assumption).  Monolithic delivery: the flattened design's scan cells
    are stitched into ``monolithic_chain_count`` chains (default: one
    per TAM wire) and every pattern shifts the longest chain's length on
    every wire.
    """
    specs = core_specs_from_soc(soc, scan_chains=scan_chains)
    useful_modular = 0
    delivered_modular = 0
    for spec in specs:
        design = _wrapper(spec, tam_width)
        useful_modular += spec.patterns * design.useful_bits_per_pattern()
        delivered_modular += spec.patterns * design.shifted_bits_per_pattern()

    t_mono = soc.monolithic_patterns(monolithic_patterns)
    chain_count = monolithic_chain_count or tam_width
    chains = balanced_chain_lengths(soc.total_scan_cells, chain_count)
    longest = max(chains) if chains else 0
    # Chip terminals are driven directly (no shift), so their bits are
    # useful in both accountings.
    useful_monolithic = tdv_monolithic(soc, t_mono)
    delivered_monolithic = t_mono * (
        soc.chip_io_terminals + 2 * chain_count * longest
    )
    return IdleBitReport(
        soc_name=soc.name,
        tam_width=tam_width,
        useful_modular=useful_modular,
        delivered_modular=delivered_modular,
        useful_monolithic=useful_monolithic,
        delivered_monolithic=delivered_monolithic,
    )


def idle_bit_sweep(
    soc: Soc,
    tam_widths: List[int],
    scan_chains: Optional[Dict[str, List[int]]] = None,
) -> List[IdleBitReport]:
    """The ablation series: idle-bit impact across TAM widths."""
    return [
        idle_bit_report(soc, width, scan_chains=scan_chains) for width in tam_widths
    ]


def useful_bits_check(soc: Soc) -> bool:
    """Sanity link between the TAM layer and the TDV model.

    At any TAM width, the *useful* modular bits summed over cores equal
    Eq. 4's per-core ``T * (2S + I + O + 2B)`` for leaf cores — wrapper
    design moves bits between chains but never creates or destroys care
    bits.  (Hierarchical parents add child ExTest cells on top, which
    the TAM layer models inside the parent's own spec.)
    """
    specs = core_specs_from_soc(soc)
    for spec in specs:
        core = soc[spec.name]
        # io_terminals already counts each bidir twice (one stimulus cell,
        # one response cell) — exactly how the wrapper spec models them.
        expected = core.scan_bits_per_pattern + core.io_terminals
        design = _wrapper(spec, 1)
        if design.useful_bits_per_pattern() != expected:
            return False
    return True
