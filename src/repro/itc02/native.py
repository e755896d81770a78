"""Tolerant reader for the native ITC'02 benchmark file dialect.

The published ITC'02 SOC Test Benchmark files are line-oriented module
blocks::

    SocName p34392
    TotalModules 20
    Module 0 'p34392'
        Level 0
        Inputs 32
        Outputs 27
        Bidirs 114
        TotalTests 1
        Test 1
            TamUse 1
            ScanUse 1
            Patterns 27
    Module 1 ...

Distribution copies differ in small ways (keyword spellings, optional
scan-chain length lists, comment styles), so this reader is *tolerant*:
recognized keys are listed in ``_MODULE_KEYS``/``_TEST_KEYS`` with their
aliases, unknown keys are skipped (collected in
:attr:`NativeSocFile.ignored_keys` for inspection), and hierarchy is
reconstructed from each module's ``Level`` by nesting order — module at
level L is embedded in the most recent module at level L-1, exactly the
p34392 structure.

Pattern counts follow the paper's selection: the first test with
``TamUse 1`` and ``ScanUse 1`` (falling back to the first test).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Union

from ..errors import SocFormatError
from ..soc.model import Core, Soc


class NativeFormatError(SocFormatError):
    """Raised when the file cannot be interpreted as ITC'02 data."""


_MODULE_KEYS = {
    "level": ("level",),
    "inputs": ("inputs", "totalinputs"),
    "outputs": ("outputs", "totaloutputs"),
    "bidirs": ("bidirs", "bidirectionals", "totalbidirs"),
    "scan_chains": ("totalscanchains", "scanchains"),
}

_TEST_KEYS = {
    "patterns": ("patterns", "totalpatterns", "testpatterns"),
    "tam_use": ("tamuse",),
    "scan_use": ("scanuse",),
}


@dataclass
class NativeTest:
    index: int
    patterns: int = 0
    tam_use: int = 1
    scan_use: int = 1


@dataclass
class NativeModule:
    index: int
    name: str = ""
    level: int = 0
    inputs: int = 0
    outputs: int = 0
    bidirs: int = 0
    scan_cells: int = 0
    scan_chain_lengths: List[int] = field(default_factory=list)
    tests: List[NativeTest] = field(default_factory=list)

    def selected_patterns(self) -> int:
        """The paper's test selection: first TamUse=1, ScanUse=1 test."""
        for test in self.tests:
            if test.tam_use == 1 and test.scan_use == 1:
                return test.patterns
        return self.tests[0].patterns if self.tests else 0


@dataclass
class NativeSocFile:
    """A parsed native-format file plus provenance details."""

    name: str
    modules: List[NativeModule]
    ignored_keys: Set[str] = field(default_factory=set)

    def to_soc(self) -> Soc:
        """Convert to the analysis model, reconstructing the hierarchy."""
        last_at_level: Dict[int, NativeModule] = {}
        children: Dict[int, List[str]] = {m.index: [] for m in self.modules}
        for module in self.modules:
            last_at_level[module.level] = module
            if module.level > 0:
                parent = last_at_level.get(module.level - 1)
                if parent is None:
                    raise NativeFormatError(
                        f"module {module.index} at level {module.level} has "
                        f"no preceding level-{module.level - 1} parent"
                    )
                children[parent.index].append(str(module.index))
        cores = [
            Core(
                name=str(module.index),
                inputs=module.inputs,
                outputs=module.outputs,
                bidirs=module.bidirs,
                scan_cells=module.scan_cells,
                patterns=module.selected_patterns(),
                children=children[module.index],
            )
            for module in self.modules
        ]
        roots = [m.index for m in self.modules if m.level == 0]
        if not roots:
            raise NativeFormatError(f"{self.name}: no level-0 (top) module")
        return Soc(self.name, cores, top=str(min(roots)))


_MODULE_RE = re.compile(r"^module\s+(\d+)(?:\s+'([^']*)')?", re.IGNORECASE)
_TEST_RE = re.compile(r"^test\s+(\d+)", re.IGNORECASE)


def parse_native(text: str) -> NativeSocFile:
    """Parse native ITC'02 text, tolerantly."""
    name: Optional[str] = None
    modules: List[NativeModule] = []
    ignored: Set[str] = set()
    module: Optional[NativeModule] = None
    test: Optional[NativeTest] = None

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split("//", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered.startswith("socname"):
            name = line.split(None, 1)[1].strip() if " " in line else ""
            continue
        if lowered.startswith("totalmodules"):
            continue  # informational; the module blocks are authoritative
        match = _MODULE_RE.match(line)
        if match:
            module = NativeModule(
                index=int(match.group(1)), name=match.group(2) or ""
            )
            modules.append(module)
            test = None
            continue
        match = _TEST_RE.match(line)
        if match and module is not None:
            test = NativeTest(index=int(match.group(1)))
            module.tests.append(test)
            continue
        key, *rest = line.split()
        key_lower = key.lower()
        values = rest
        if module is None:
            ignored.add(key_lower)
            continue
        if test is not None and _match_key(key_lower, _TEST_KEYS):
            field_name = _match_key(key_lower, _TEST_KEYS)
            setattr(test, field_name, _int(values, key, 0))
            continue
        field_name = _match_key(key_lower, _MODULE_KEYS)
        if field_name == "scan_chains":
            # "ScanChains <count> [len len ...]" or "TotalScanChains <count>"
            lengths = [_int([v], key, 0) for v in values[1:]]
            module.scan_chain_lengths = lengths
            if lengths:
                module.scan_cells = sum(lengths)
            continue
        if field_name == "level":
            module.level = _int(values, key, 0)
            if module.level < 0:
                raise NativeFormatError(
                    f"module {module.index}: Level must be >= 0, got {module.level}"
                )
        elif field_name:
            setattr(module, field_name, _int(values, key, 0))
        elif key_lower.startswith("scanchain"):
            # "ScanChain <i> <length>" per-chain form.
            if len(values) >= 2:
                length = _int(values[1:], key, 0)
                module.scan_chain_lengths.append(length)
                module.scan_cells += length
        else:
            ignored.add(key_lower)

    if name is None:
        raise NativeFormatError("missing SocName header")
    if not modules:
        raise NativeFormatError(f"{name}: no Module blocks found")
    return NativeSocFile(name=name, modules=modules, ignored_keys=ignored)


def _match_key(key: str, table: Dict[str, tuple]) -> Optional[str]:
    for field_name, aliases in table.items():
        if key in aliases:
            return field_name
    return None


def _int(values: List[str], key: str, default: int) -> int:
    if not values:
        return default
    try:
        return int(values[0])
    except ValueError:
        raise NativeFormatError(f"{key}: expected an integer, got {values[0]!r}")


def load_native_file(path: Union[str, Path]) -> NativeSocFile:
    return parse_native(Path(path).read_text())


def native_to_soc(text: str) -> Soc:
    """One-step convenience: native text to the analysis model."""
    return parse_native(text).to_soc()
