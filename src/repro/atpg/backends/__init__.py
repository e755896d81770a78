"""Kernel backend registry for the flat-array simulators.

A *backend* is a strategy object attached to each
:class:`~repro.atpg.compiled.CompiledCircuit` at build time.  It
decides how wide the engine packs pattern blocks (``lanes_for``): the
``numpy`` backend widens them to up to eight 64-bit words on larger
circuits, while the fault-simulation kernels themselves are the same
scalar code on every backend.  Every backend is
**bit-identical by construction** to the ``pure`` path: pattern
counts, fault coverage, detect masks, and cache fingerprints never
depend on the backend (``tests/test_backends.py`` enforces this
differentially), so selection is an execution detail, never part of a
run's identity.

Selection precedence: an explicit name (``AtpgConfig.backend``,
``CompiledCircuit(netlist, backend=...)``, ``--backend``) wins over the
``REPRO_BACKEND`` environment variable, which wins over the default
``auto`` (``numpy`` when importable, else ``pure``).  NumPy is an
optional dependency (``pip install repro[fast]``): when it is absent —
or masked with ``REPRO_NO_NUMPY=1``, which is how CI exercises the
fallback leg without a second environment — every resolution degrades
gracefully to ``pure``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from ...errors import ConfigError
from ...observability import register_counter

#: Environment variable naming the default backend (lowest-precedence
#: explicit selection; ``AtpgConfig.backend``/``backend=`` win over it).
BACKEND_ENV = "REPRO_BACKEND"

#: When set (to anything but "" or "0"), NumPy is treated as absent —
#: ``auto`` and even an explicit ``numpy`` request resolve to ``pure``.
#: This is how the CI fallback leg and the chaos tests simulate a
#: NumPy-less install inside an environment that has it.
NO_NUMPY_ENV = "REPRO_NO_NUMPY"

#: The names ``resolve_backend`` accepts (and the CLI offers).
BACKEND_CHOICES = ("auto", "pure", "numpy")

#: Per-backend run counters: the engine counts one per traced ATPG run,
#: so the CI telemetry artifact attributes throughput to a kernel.
BACKEND_RUNS = {
    "pure": register_counter("kernel.backend.pure", "ATPG runs on the pure backend"),
    "numpy": register_counter("kernel.backend.numpy", "ATPG runs on the numpy backend"),
}

_INSTANCES: Dict[str, object] = {}


def numpy_available() -> bool:
    """Whether the numpy backend can run (import works, not masked)."""
    if os.environ.get(NO_NUMPY_ENV, "").strip() not in ("", "0"):
        return False
    try:
        import numpy  # noqa: F401
    except Exception:
        return False
    return True


def _instance(name: str):
    backend = _INSTANCES.get(name)
    if backend is None:
        if name == "pure":
            from .pure import PureBackend

            backend = PureBackend()
        else:
            from .numpy_backend import NumpyBackend

            backend = NumpyBackend()
        _INSTANCES[name] = backend
    return backend


def resolve_backend(name: Optional[str] = None):
    """Resolve a backend request to a shared backend instance.

    ``None`` (or ``""``) means "not chosen explicitly": the
    ``REPRO_BACKEND`` environment variable applies, then ``auto``.
    ``auto`` picks ``numpy`` when available, else ``pure``; an explicit
    ``numpy`` request without NumPy also falls back to ``pure`` (the
    graceful-degradation contract — results are identical anyway).
    Unknown names raise :class:`~repro.errors.ConfigError`.
    """
    if not name:
        name = os.environ.get(BACKEND_ENV, "").strip() or "auto"
    if name not in BACKEND_CHOICES:
        raise ConfigError(
            f"unknown kernel backend {name!r}: choose from {', '.join(BACKEND_CHOICES)}"
        )
    if name == "auto":
        name = "numpy" if numpy_available() else "pure"
    elif name == "numpy" and not numpy_available():
        name = "pure"
    return _instance(name)


__all__ = [
    "BACKEND_CHOICES",
    "BACKEND_ENV",
    "BACKEND_RUNS",
    "NO_NUMPY_ENV",
    "numpy_available",
    "resolve_backend",
]
