"""Data model for modular SOCs.

The paper's test data volume analysis characterizes every module of a
system-on-chip by five integers: the number of functional inputs ``I``,
outputs ``O``, bidirectional ports ``B``, internal scan cells ``S``, and
the number of test patterns ``T`` its stand-alone test applies.  A module
may embed child modules, which yields the hierarchical cores of the
ITC'02 benchmarks (Figure 3 of the paper).

:class:`Core` captures one module; :class:`Soc` is a collection of cores
with a designated top level (core 0 in the ITC'02 convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..errors import ConfigError, ReproError


class SocModelError(ReproError, ValueError):
    """Raised when an SOC description is structurally invalid."""


@dataclass
class Core:
    """One module of an SOC, as seen by the TDV analysis.

    Parameters mirror the paper's notation (Section 4):

    ``inputs``
        Number of functional input terminals, :math:`I`.
    ``outputs``
        Number of functional output terminals, :math:`O`.
    ``bidirs``
        Number of bidirectional terminals, :math:`B`.  Each contributes
        both a stimulus and a response bit per pattern.
    ``scan_cells``
        Number of internal scan cells, :math:`S`.  Each contributes both
        a stimulus and a response bit per pattern.
    ``patterns``
        Number of test patterns of the core's stand-alone test,
        :math:`T`.
    ``children``
        Names of cores embedded directly inside this core (hierarchical
        cores).  When this core is tested in InTest mode, the wrappers of
        its children operate in ExTest mode, so the children's terminals
        must be controlled/observed as part of this core's test.
    """

    name: str
    inputs: int = 0
    outputs: int = 0
    bidirs: int = 0
    scan_cells: int = 0
    patterns: int = 0
    children: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise SocModelError("core name must be non-empty")
        for attr in ("inputs", "outputs", "bidirs", "scan_cells", "patterns"):
            value = getattr(self, attr)
            if not isinstance(value, int):
                raise SocModelError(
                    f"core {self.name!r}: {attr} must be an int, got {type(value).__name__}"
                )
            if value < 0:
                raise SocModelError(f"core {self.name!r}: {attr} must be >= 0, got {value}")
        if len(set(self.children)) != len(self.children):
            raise SocModelError(f"core {self.name!r}: duplicate child names")
        if self.name in self.children:
            raise SocModelError(f"core {self.name!r} cannot embed itself")

    @property
    def io_terminals(self) -> int:
        """Functional terminal bits per pattern: :math:`I + O + 2B`."""
        return self.inputs + self.outputs + 2 * self.bidirs

    @property
    def scan_bits_per_pattern(self) -> int:
        """Scan stimulus+response bits per pattern: :math:`2S`."""
        return 2 * self.scan_cells

    @property
    def is_hierarchical(self) -> bool:
        """True when this core directly embeds other cores."""
        return bool(self.children)

    def with_patterns(self, patterns: int) -> "Core":
        """Return a copy of this core with a different pattern count."""
        return Core(
            name=self.name,
            inputs=self.inputs,
            outputs=self.outputs,
            bidirs=self.bidirs,
            scan_cells=self.scan_cells,
            patterns=patterns,
            children=list(self.children),
        )


class Soc:
    """A system-on-chip: a named set of :class:`Core` objects plus a top level.

    The top-level core plays a double role, exactly as in the ITC'02
    benchmark format: its ``inputs``/``outputs``/``bidirs`` are the chip's
    external terminals, and its ``scan_cells``/``patterns`` describe the
    test of the top-level glue logic.
    """

    def __init__(self, name: str, cores: Sequence[Core], top: Optional[str] = None):
        if not cores:
            raise SocModelError(f"SOC {name!r} must contain at least one core")
        self.name = name
        self._cores: Dict[str, Core] = {}
        for core in cores:
            if core.name in self._cores:
                raise SocModelError(f"SOC {name!r}: duplicate core name {core.name!r}")
            self._cores[core.name] = core
        self.top_name = top if top is not None else cores[0].name
        if self.top_name not in self._cores:
            raise SocModelError(f"SOC {name!r}: top core {self.top_name!r} not present")
        self._validate_hierarchy()

    # -- container protocol -------------------------------------------------

    def __iter__(self) -> Iterator[Core]:
        return iter(self._cores.values())

    def __len__(self) -> int:
        return len(self._cores)

    def __contains__(self, name: str) -> bool:
        return name in self._cores

    def __getitem__(self, name: str) -> Core:
        try:
            return self._cores[name]
        except KeyError:
            raise KeyError(f"SOC {self.name!r} has no core named {name!r}") from None

    def __repr__(self) -> str:
        return f"Soc(name={self.name!r}, cores={len(self)}, top={self.top_name!r})"

    # -- structure ----------------------------------------------------------

    @property
    def top(self) -> Core:
        """The top-level core (chip I/O plus top-level glue logic)."""
        return self._cores[self.top_name]

    @property
    def cores(self) -> List[Core]:
        """All cores, in insertion order (top first in ITC'02 convention)."""
        return list(self._cores.values())

    def core_names(self) -> List[str]:
        return list(self._cores.keys())

    def children_of(self, name: str) -> List[Core]:
        """Direct children of the named core."""
        return [self._cores[child] for child in self[name].children]

    def parent_of(self, name: str) -> Optional[Core]:
        """The core that directly embeds ``name``, or None for roots."""
        self[name]  # raise KeyError for unknown cores
        for core in self:
            if name in core.children:
                return core
        return None

    def descendants_of(self, name: str) -> List[Core]:
        """All cores transitively embedded inside the named core."""
        result: List[Core] = []
        stack = list(self[name].children)
        while stack:
            child = self[stack.pop()]
            result.append(child)
            stack.extend(child.children)
        return result

    def roots(self) -> List[Core]:
        """Cores that are not embedded in any other core."""
        embedded = {child for core in self for child in core.children}
        return [core for core in self if core.name not in embedded]

    def depth_of(self, name: str) -> int:
        """Nesting depth of a core: 0 for roots, 1 for their children, ..."""
        depth = 0
        parent = self.parent_of(name)
        while parent is not None:
            depth += 1
            parent = self.parent_of(parent.name)
        return depth

    # -- aggregates used by the TDV formulas ---------------------------------

    @property
    def chip_io_terminals(self) -> int:
        """Chip-level terminal bits per pattern: :math:`I_{chip}+O_{chip}+2B_{chip}`."""
        return self.top.io_terminals

    @property
    def total_scan_cells(self) -> int:
        """Total scan cells over all cores, :math:`S_{chip}` of Eq. 1."""
        return sum(core.scan_cells for core in self)

    @property
    def max_core_patterns(self) -> int:
        """Maximum stand-alone pattern count over all cores (Eq. 2 bound)."""
        return max(core.patterns for core in self)

    def monolithic_patterns(self, patterns: Optional[int] = None) -> int:
        """``T_mono``: ``patterns``, or the Eq. 2 bound when None.

        Raises :class:`~repro.errors.ConfigError` when ``patterns`` is
        below the Eq. 2 lower bound :attr:`max_core_patterns`.
        """
        bound = self.max_core_patterns
        if patterns is None:
            return bound
        if patterns < bound:
            raise ConfigError(
                f"monolithic pattern count {patterns} violates the Eq. 2 "
                f"lower bound {bound}"
            )
        return patterns

    def pattern_counts(self) -> List[int]:
        """Stand-alone pattern counts of all cores, in insertion order."""
        return [core.patterns for core in self]

    # -- validation -----------------------------------------------------------

    def _validate_hierarchy(self) -> None:
        parents: Dict[str, str] = {}
        for core in self:
            for child in core.children:
                if child not in self._cores:
                    raise SocModelError(
                        f"SOC {self.name!r}: core {core.name!r} embeds "
                        f"unknown core {child!r}"
                    )
                if child in parents:
                    raise SocModelError(
                        f"SOC {self.name!r}: core {child!r} embedded by both "
                        f"{parents[child]!r} and {core.name!r}"
                    )
                parents[child] = core.name
        # Reject embedding cycles: every core must reach a root.
        for core in self:
            seen = {core.name}
            parent = parents.get(core.name)
            while parent is not None:
                if parent in seen:
                    raise SocModelError(
                        f"SOC {self.name!r}: embedding cycle through {parent!r}"
                    )
                seen.add(parent)
                parent = parents.get(parent)


def make_soc(name: str, cores: Iterable[Core], top: Optional[str] = None) -> Soc:
    """Convenience constructor accepting any iterable of cores."""
    return Soc(name, list(cores), top=top)
