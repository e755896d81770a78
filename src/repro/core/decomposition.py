"""Penalty/benefit decomposition of modular TDV (Eq. 6) and its residual.

The paper writes ``TDV_modular = TDV_mono + TDV_penalty - TDV_benefit``
(Eq. 6).  Expanding Eqs. 1, 4, 7 and 8 shows the identity is exact only
up to the chip-level terminal bits, ``(I_chip + O_chip + 2B_chip) * T_mono``,
which both test styles pay per pattern.  Table 4 of the paper derives its
benefit column from the identity (so the residual is folded into the
benefit); Eq. 8 computed literally gives a slightly smaller benefit.
This module exposes both conventions and the exact residual so that every
table of the paper can be reproduced under its own convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..soc.hierarchy import isocost
from ..soc.model import Soc
from .tdv import (
    chip_io_residual,
    tdv_benefit,
    tdv_modular,
    tdv_monolithic,
    tdv_penalty,
)


@dataclass(frozen=True)
class CoreDecomposition:
    """Per-core contribution to the Eq. 6 decomposition."""

    core_name: str
    patterns: int
    scan_cells: int
    isocost: int
    penalty: int  # T_A * ISOCOST_A          (Eq. 7 summand)
    benefit: int  # (T_mono - T_A) * 2 S_A   (Eq. 8 summand)
    modular_tdv: int  # T_A * (2 S_A + ISOCOST_A)  (Eq. 4 summand)


@dataclass(frozen=True)
class Decomposition:
    """Full Eq. 6 decomposition for one SOC, under both benefit conventions."""

    soc_name: str
    monolithic_patterns: int
    tdv_monolithic: int
    tdv_modular: int
    penalty: int
    benefit_strict: int  # Eq. 8 literally
    benefit_identity: int  # Eq. 8 plus the chip-I/O residual (Table 4 convention)
    residual: int  # (I_chip + O_chip + 2 B_chip) * T_mono
    per_core: List[CoreDecomposition]

    def identity_error(self) -> int:
        """Exact error of Eq. 6 with the *strict* benefit.

        ``TDV_mono + penalty - benefit_strict - TDV_modular`` — always
        equals :attr:`residual` (a property test pins this down).
        """
        return self.tdv_monolithic + self.penalty - self.benefit_strict - self.tdv_modular

    def identity_holds(self) -> bool:
        """True when Eq. 6 balances exactly under the identity convention."""
        return (
            self.tdv_monolithic + self.penalty - self.benefit_identity == self.tdv_modular
        )


def decompose(
    soc: Soc,
    monolithic_patterns: Optional[int] = None,
    chip_pin_wrappers: bool = True,
) -> Decomposition:
    """Compute the full Eq. 6 decomposition for one SOC.

    ``chip_pin_wrappers`` selects the top-core isolation convention of
    :func:`repro.soc.hierarchy.isocost`.  The identity residual is the
    same under both conventions: dropping the chip-terminal wrapper cells
    lowers the penalty and the modular volume by the same
    ``T_top * (I+O+2B)_top`` bits, so :meth:`Decomposition.identity_error`
    still equals :attr:`Decomposition.residual` exactly.
    """
    t_mono = soc.monolithic_patterns(monolithic_patterns)
    per_core = []
    for core in soc:
        iso = isocost(soc, core.name, chip_pin_wrappers)
        per_core.append(
            CoreDecomposition(
                core_name=core.name,
                patterns=core.patterns,
                scan_cells=core.scan_cells,
                isocost=iso,
                penalty=core.patterns * iso,
                benefit=(t_mono - core.patterns) * core.scan_bits_per_pattern,
                modular_tdv=core.patterns * (core.scan_bits_per_pattern + iso),
            )
        )
    strict = tdv_benefit(soc, t_mono)
    residual = chip_io_residual(soc, t_mono)
    return Decomposition(
        soc_name=soc.name,
        monolithic_patterns=t_mono,
        tdv_monolithic=tdv_monolithic(soc, t_mono),
        tdv_modular=tdv_modular(soc, chip_pin_wrappers),
        penalty=tdv_penalty(soc, chip_pin_wrappers),
        benefit_strict=strict,
        benefit_identity=strict + residual,
        residual=residual,
        per_core=per_core,
    )


def penalty_by_core(soc: Soc, chip_pin_wrappers: bool = True) -> Dict[str, int]:
    """Eq. 7 summands keyed by core name."""
    return {
        core.name: core.patterns * isocost(soc, core.name, chip_pin_wrappers)
        for core in soc
    }


def benefit_by_core(soc: Soc, monolithic_patterns: Optional[int] = None) -> Dict[str, int]:
    """Eq. 8 summands keyed by core name."""
    t_mono = soc.monolithic_patterns(monolithic_patterns)
    return {
        core.name: (t_mono - core.patterns) * core.scan_bits_per_pattern for core in soc
    }
