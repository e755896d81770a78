"""The name of the one fault-simulation kernel.

The ATPG engine runs one kernel, the scalar Python-int code in
:mod:`repro.atpg.faultsim`; its pattern-block width comes from
:func:`repro.atpg.compiled.lanes_for`.  :func:`resolve_backend`
stays because ``perfbench`` resolves it in its set-up and prints its
``name`` in every run's provenance.
"""


class _Kernel:
    name = "pure"


_KERNEL = _Kernel()


def resolve_backend() -> _Kernel:
    """The shared kernel object; its ``name`` is ``"pure"``."""
    return _KERNEL
