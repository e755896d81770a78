"""The ``pure`` kernel backend: one-word pattern blocks.

This backend is the reference every other backend is differentially
pinned against.  Pattern blocks stay one 64-bit word wide; the fault
simulator's scalar kernels (:mod:`repro.atpg.faultsim`) are the same
on every backend.
"""

from __future__ import annotations


class PureBackend:
    """Strategy object for one-word pattern blocks.

    Stateless and shared process-wide (``resolve_backend`` hands out a
    singleton); instances pickle by class reference, so a
    :class:`~repro.atpg.compiled.CompiledCircuit` carrying one ships to
    job-level worker processes unchanged.
    """

    name = "pure"

    def lanes_for(self, circuit) -> int:
        """Pattern-block width in 64-bit words: always one."""
        return 1
