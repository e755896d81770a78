"""Every experiment's stdout, pinned byte for byte.

Each file under ``tests/golden/`` is the stdout of ``repro experiments
<name> --no-cache`` in a clean environment.  ``table4`` prints the same
combined ITC'02 report as ``table3``, so one file serves that group.
The experiments whose numbers come out of ATPG runs are also replayed
on the pure-Python kernel (``REPRO_NO_NUMPY=1``), which must print the
same bytes as the default backend.  The ``tam`` run also writes its
``--tam-front`` Pareto-front JSON, pinned by ``tam-front.json``.
The ATPG-backed experiments are also run against a fresh result cache
and rerun warm, on both kernels: what the cache serves must print the
same bytes.

A golden file changes only when an output change is intended.
Regenerate it with::

    PYTHONPATH=src python -m repro experiments <name> --no-cache \\
        > tests/golden/<name>.txt
    PYTHONPATH=src python -m repro experiments tam --no-cache \\
        --tam-front tests/golden/tam-front.json > tests/golden/tam.txt
"""

import os
import re
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


#: The runtime manifest line each ATPG-backed run prints on stderr.
MANIFEST = re.compile(r"\[runtime\] (\d+) ATPG jobs: (\d+) executed")


def clean_environment(monkeypatch):
    for variable in list(os.environ):
        if variable.startswith("REPRO_"):
            monkeypatch.delenv(variable)


@pytest.mark.parametrize("name,kernel", CASES)
def test_experiment_stdout_matches_golden(
    name, kernel, monkeypatch, capsys, tmp_path
):
    clean_environment(monkeypatch)
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


@pytest.mark.parametrize("name", ATPG_BACKED)
def test_warm_cache_replays_golden_stdout(name, monkeypatch, capsys, tmp_path):
    """Results served from the cache print the golden bytes too.

    One cold run fills a fresh cache directory; a warm rerun and a warm
    rerun on the pure kernel must print the same stdout and execute no
    ATPG job at all.
    """
    clean_environment(monkeypatch)
    golden = (GOLDEN_DIR / f"{name}.txt").read_bytes()
    argv = ["experiments", name, "--cache-dir", str(tmp_path / "cache")]
    executed = []
    for run in ("cold", "warm", "warm-pure"):
        if run == "warm-pure":
            monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == golden, run
        manifests = MANIFEST.findall(captured.err)
        assert manifests, run
        executed.append(sum(int(ran) for _, ran in manifests))
    assert executed[0] > 0
    assert executed[1:] == [0, 0]
