"""Test data volume (TDV) model — Equations 1 through 8 of the paper.

The paper compares two ways of testing the same SOC:

* **Monolithic**: the design is flattened (isolation logic ripped out)
  and tested with one SOC-wide ATPG pattern set.  Every pattern carries a
  stimulus/response bit for every chip terminal and every scan cell
  (Eq. 1), and the pattern count is at least the maximum stand-alone
  pattern count over the cores (Eq. 2), which yields the *optimistic*
  monolithic volume of Eq. 3.
* **Modular**: every core is wrapped and tested stand-alone; each core's
  test pays its own scan bits plus the wrapper isolation cost (Eq. 4/5).

Equations 6–8 decompose the modular volume as the monolithic volume plus
an isolation *penalty* minus a pattern-count-variation *benefit*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..soc.hierarchy import core_tdv, isocost
from ..soc.model import Soc


def tdv_monolithic(soc: Soc, patterns: int) -> int:
    """Monolithic test data volume, Eq. 1.

    ``TDV_mono = (I_chip + O_chip + 2 B_chip + 2 S_chip) * T_mono``

    ``patterns`` is the pattern count of the flattened design's ATPG run
    (``T_mono``); it must satisfy the Eq. 2 lower bound, which the caller
    can check with :meth:`~repro.soc.model.Soc.monolithic_patterns`.
    """
    if patterns < 0:
        raise ValueError(f"monolithic pattern count must be >= 0, got {patterns}")
    return (soc.chip_io_terminals + 2 * soc.total_scan_cells) * patterns


def monolithic_pattern_lower_bound(soc: Soc) -> int:
    """Eq. 2: ``T_mono >= max_i T_i`` over all cores."""
    return soc.max_core_patterns


def tdv_monolithic_optimistic(soc: Soc) -> int:
    """Optimistic monolithic test data volume, Eq. 3.

    Uses the Eq. 2 lower bound as the monolithic pattern count.  The true
    monolithic volume is at least this large (the paper measures factors
    of 2.1x–2.5x more on its ATPG-backed SOCs).
    """
    return tdv_monolithic(soc, monolithic_pattern_lower_bound(soc))


def tdv_modular(soc: Soc, chip_pin_wrappers: bool = True) -> int:
    """Modular test data volume, Eq. 4.

    ``TDV_modular = sum_P T_P * (2 S_P + ISOCOST_P)``

    ``chip_pin_wrappers`` selects the top-core isolation convention; see
    :func:`repro.soc.hierarchy.isocost`.
    """
    return sum(core_tdv(soc, core.name, chip_pin_wrappers) for core in soc)


def tdv_modular_breakdown(soc: Soc, chip_pin_wrappers: bool = True) -> Dict[str, int]:
    """Per-core test data volume (the rightmost column of Tables 1–3)."""
    return {core.name: core_tdv(soc, core.name, chip_pin_wrappers) for core in soc}


def tdv_penalty(soc: Soc, chip_pin_wrappers: bool = True) -> int:
    """Isolation penalty of modular testing, Eq. 7.

    ``TDV_penalty = sum_A T_A * ISOCOST_A`` — the wrapper-cell bits that
    the monolithic test of the flattened design does not pay.
    """
    return sum(
        core.patterns * isocost(soc, core.name, chip_pin_wrappers) for core in soc
    )


def tdv_benefit(soc: Soc, monolithic_patterns: Optional[int] = None) -> int:
    """Pattern-count-variation benefit of modular testing, Eq. 8.

    ``TDV_benefit = sum_A (T_mono - T_A) * 2 S_A`` — the scan-load bits
    that the monolithic test wastes on cores whose stand-alone test needs
    fewer patterns than ``T_mono``.  With the Eq. 2 bound, every summand
    is non-negative.

    ``monolithic_patterns`` defaults to the Eq. 2 lower bound.
    """
    t_mono = soc.monolithic_patterns(monolithic_patterns)
    return sum((t_mono - core.patterns) * core.scan_bits_per_pattern for core in soc)


def chip_io_residual(soc: Soc, monolithic_patterns: Optional[int] = None) -> int:
    """The exact residual of the paper's Eq. 6 identity.

    Substituting Eqs. 1, 4, 7 and 8 shows

    ``TDV_mono + TDV_penalty - TDV_benefit
      = TDV_modular + (I_chip + O_chip + 2 B_chip) * T_mono``

    i.e. Eq. 6 over-counts the chip-level terminal bits, which both test
    styles pay per pattern.  The paper's Table 4 "benefit" column is
    identity-derived and therefore silently includes this term; see
    :mod:`repro.core.decomposition`.
    """
    t_mono = soc.monolithic_patterns(monolithic_patterns)
    return soc.chip_io_terminals * t_mono


@dataclass(frozen=True)
class TdvSummary:
    """All Section-4 quantities for one SOC, in one immutable record."""

    soc_name: str
    core_count: int
    monolithic_patterns: int
    tdv_monolithic: int
    tdv_modular: int
    tdv_penalty: int
    tdv_benefit: int
    chip_io_residual: int

    @property
    def reduction_ratio(self) -> float:
        """Monolithic over modular volume (2.87 for SOC1, 2.22 for SOC2)."""
        if self.tdv_modular == 0:
            raise ZeroDivisionError("modular TDV is zero")
        return self.tdv_monolithic / self.tdv_modular

    @property
    def modular_change_fraction(self) -> float:
        """Signed relative change of modular vs monolithic TDV.

        Negative values are reductions; this is the last column of
        Table 4 (e.g. -0.993 for a586710, +0.386 for g12710).
        """
        if self.tdv_monolithic == 0:
            raise ZeroDivisionError("monolithic TDV is zero")
        return (self.tdv_modular - self.tdv_monolithic) / self.tdv_monolithic

    @property
    def penalty_fraction(self) -> float:
        """Penalty relative to monolithic TDV (Table 4, column 5)."""
        return self.tdv_penalty / self.tdv_monolithic

    @property
    def benefit_fraction(self) -> float:
        """Benefit relative to monolithic TDV (Table 4, column 6)."""
        return self.tdv_benefit / self.tdv_monolithic


def summarize(
    soc: Soc,
    monolithic_patterns: Optional[int] = None,
    identity_consistent_benefit: bool = True,
    chip_pin_wrappers: bool = True,
) -> TdvSummary:
    """Compute every Section-4 quantity for one SOC.

    ``monolithic_patterns`` defaults to the optimistic Eq. 2 bound, which
    is what Table 4 uses; pass a measured ATPG count to reproduce the
    Tables 1–2 "Mono" rows.

    ``identity_consistent_benefit`` selects between the paper's Table 4
    convention (benefit derived from the Eq. 6 identity, i.e. including
    the chip-I/O residual) and the strict Eq. 8 value.
    """
    # One pass, one ISOCOST per core.  Eq. 8's sum over cores splits
    # into T_mono * 2 S_chip - sum_A T_A * 2 S_A, so it needs no T_mono
    # during the pass.  The per-equation functions above are the
    # reference this must equal.
    scan_cells = 0
    max_patterns = 0
    modular = 0
    penalty = 0
    scan_load = 0
    for core in soc:
        iso = isocost(soc, core.name, chip_pin_wrappers)
        scan_bits = core.scan_bits_per_pattern
        patterns = core.patterns
        scan_cells += core.scan_cells
        if patterns > max_patterns:
            max_patterns = patterns
        modular += patterns * (scan_bits + iso)
        penalty += patterns * iso
        scan_load += patterns * scan_bits
    if monolithic_patterns is None:
        t_mono = max_patterns
    else:
        t_mono = soc.monolithic_patterns(monolithic_patterns)
    chip_io = soc.chip_io_terminals
    residual = chip_io * t_mono
    benefit = 2 * scan_cells * t_mono - scan_load
    if identity_consistent_benefit:
        benefit += residual
    return TdvSummary(
        soc_name=soc.name,
        core_count=len(soc),
        monolithic_patterns=t_mono,
        tdv_monolithic=(chip_io + 2 * scan_cells) * t_mono,
        tdv_modular=modular,
        tdv_penalty=penalty,
        tdv_benefit=benefit,
        chip_io_residual=residual,
    )
