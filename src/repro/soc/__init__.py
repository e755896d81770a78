"""SOC data model: cores, hierarchy, wrappers, flattening."""

from .diagram import hierarchy_depth, hierarchy_summary, hierarchy_tree
from .flatten import flat_bits_per_pattern, flatten
from .hierarchy import (
    core_tdv,
    core_test_bits_per_pattern,
    isocost,
    isocost_table,
    wrapper_cell_count,
)
from .model import Core, Soc, SocModelError, make_soc
from .shared_isolation import (
    SharingPoint,
    breakeven_sharing,
    shared_isocost,
    sharing_sweep,
    tdv_modular_shared,
    tdv_penalty_shared,
)
from .wrapper import (
    Wrapper,
    WrapperCell,
    WrapperCellKind,
    WrapperMode,
    isocost_from_wrappers,
    wrapper_area_cells,
)

__all__ = [
    "Core",
    "SharingPoint",
    "Soc",
    "SocModelError",
    "Wrapper",
    "WrapperCell",
    "WrapperCellKind",
    "WrapperMode",
    "core_tdv",
    "core_test_bits_per_pattern",
    "flat_bits_per_pattern",
    "flatten",
    "hierarchy_depth",
    "hierarchy_summary",
    "hierarchy_tree",
    "isocost",
    "isocost_from_wrappers",
    "isocost_table",
    "make_soc",
    "breakeven_sharing",
    "shared_isocost",
    "sharing_sweep",
    "tdv_modular_shared",
    "tdv_penalty_shared",
    "wrapper_area_cells",
    "wrapper_cell_count",
]
