"""Every experiment's stdout, pinned byte for byte.

Each file under ``tests/golden/`` is the stdout of ``repro experiments
<name> --no-cache`` in a clean environment.  ``table4`` prints the same
combined ITC'02 report as ``table3``, so one file serves that group.
The experiments whose numbers come out of ATPG runs are also replayed
on the pure-Python kernel (``REPRO_NO_NUMPY=1``), which must print the
same bytes as the default backend.  The ``tam`` run also writes its
``--tam-front`` Pareto-front JSON, pinned by ``tam-front.json``.

A golden file changes only when an output change is intended.
Regenerate it with::

    PYTHONPATH=src python -m repro experiments <name> --no-cache \\
        > tests/golden/<name>.txt
    PYTHONPATH=src python -m repro experiments tam --no-cache \\
        --tam-front tests/golden/tam-front.json > tests/golden/tam.txt
"""

import os
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

#: One golden file per experiment output group, fastest first.
GOLDEN = (
    "cone-example",
    "table3",
    "correlation",
    "ablation",
    "table1",
    "population",
    "extensions",
    "table2",
    "tam",
)

#: The experiments that run ATPG, so their stdout depends on the kernel.
ATPG_BACKED = ("cone-example", "table1", "extensions", "table2")

CASES = [(name, "default") for name in GOLDEN] + [
    (name, "pure") for name in ATPG_BACKED
]


@pytest.mark.parametrize("name,kernel", CASES)
def test_experiment_stdout_matches_golden(
    name, kernel, monkeypatch, capsys, tmp_path
):
    for variable in list(os.environ):
        if variable.startswith("REPRO_"):
            monkeypatch.delenv(variable)
    if kernel == "pure":
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")

    argv = ["experiments", name, "--no-cache"]
    front = tmp_path / "tam-front.json"
    if name == "tam":
        argv += ["--tam-front", str(front)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN_DIR / f"{name}.txt").read_bytes()
    if name == "tam":
        assert front.read_bytes() == (GOLDEN_DIR / "tam-front.json").read_bytes()
