"""Roth's five-valued D-algebra for test generation.

Every signal in PODEM carries one of five values: 0, 1, X, D (good
machine 1 / faulty machine 0) or D̄ (good 0 / faulty 1).  The algebra is
exactly componentwise three-valued logic on the (good, faulty) pair;
the tables here are generated from that definition at import time, so
they cannot drift from :func:`repro.circuit.gates.evaluate_gate`.
"""

from __future__ import annotations

from typing import List, Tuple

from ..circuit.gates import GateType, Trit, evaluate_gate

# Value encoding (stable small ints; used as array indices everywhere).
ZERO = 0
ONE = 1
X = 2
D = 3  # good 1, faulty 0
DBAR = 4  # good 0, faulty 1

VALUE_NAMES = ("0", "1", "X", "D", "D'")

_COMPONENTS: Tuple[Tuple[Trit, Trit], ...] = (
    (0, 0),  # ZERO
    (1, 1),  # ONE
    (None, None),  # X
    (1, 0),  # D
    (0, 1),  # DBAR
)


def good_value(value: int) -> Trit:
    """The good-machine component (0/1/None)."""
    return _COMPONENTS[value][0]


def faulty_value(value: int) -> Trit:
    """The faulty-machine component (0/1/None)."""
    return _COMPONENTS[value][1]


def compose(good: Trit, faulty: Trit) -> int:
    """Five-valued value from its (good, faulty) components.

    Pairs with exactly one X component collapse to X — the D-algebra
    cannot represent half-known discrepancies.
    """
    if good is None or faulty is None:
        return X
    if good == faulty:
        return ONE if good else ZERO
    return D if good else DBAR


def is_faulted(value: int) -> bool:
    """True for D and D̄ — the fault effect is present."""
    return value in (D, DBAR)


def invert(value: int) -> int:
    return _NOT_TABLE[value]


def evaluate_gate5(gate_type: GateType, inputs: List[int]) -> int:
    """Five-valued gate evaluation (componentwise three-valued logic)."""
    good = evaluate_gate(gate_type, [good_value(v) for v in inputs])
    faulty = evaluate_gate(gate_type, [faulty_value(v) for v in inputs])
    return compose(good, faulty)


def _build_not_table() -> Tuple[int, ...]:
    table = []
    for value in range(5):
        good, faulty = _COMPONENTS[value]
        table.append(
            compose(
                None if good is None else 1 - good,
                None if faulty is None else 1 - faulty,
            )
        )
    return tuple(table)


def _build_binary_table(gate_type: GateType) -> Tuple[Tuple[int, ...], ...]:
    table = []
    for a in range(5):
        row = []
        for b in range(5):
            row.append(evaluate_gate5(gate_type, [a, b]))
        table.append(tuple(row))
    return tuple(table)


_NOT_TABLE = _build_not_table()
AND_TABLE = _build_binary_table(GateType.AND)
OR_TABLE = _build_binary_table(GateType.OR)
XOR_TABLE = _build_binary_table(GateType.XOR)
NOT_TABLE = _NOT_TABLE

# Componentwise machinery for exact wide-gate folding.  Folding the
# five-valued values pairwise through the binary tables is *lossy* for
# three or more inputs: AND(D, X, D') is ZERO componentwise (good
# 1&X&0 = 0, faulty 0&X&1 = 0) but the pairwise D&X already collapses
# to X, because the algebra cannot represent a half-known discrepancy.
# The exact fold therefore tracks the good and faulty three-valued
# components separately and composes once at the end.  Components use
# 0/1/2 with 2 as X.
_X3 = 2
GOOD_COMPONENT = tuple(_X3 if g is None else g for g, _ in _COMPONENTS)
FAULTY_COMPONENT = tuple(_X3 if f is None else f for _, f in _COMPONENTS)


def _table3(func) -> Tuple[Tuple[int, ...], ...]:
    def as_trit(value: int) -> Trit:
        return None if value == _X3 else value

    def from_trit(value: Trit) -> int:
        return _X3 if value is None else value

    return tuple(
        tuple(from_trit(func(as_trit(a), as_trit(b))) for b in range(3))
        for a in range(3)
    )


AND3 = _table3(lambda a, b: evaluate_gate(GateType.AND, [a, b]))
OR3 = _table3(lambda a, b: evaluate_gate(GateType.OR, [a, b]))
XOR3 = _table3(lambda a, b: evaluate_gate(GateType.XOR, [a, b]))
COMPOSE3 = tuple(
    tuple(
        compose(None if g == _X3 else g, None if f == _X3 else f)
        for f in range(3)
    )
    for g in range(3)
)


def fold_gate5(gate_type: GateType, inputs: List[int]) -> int:
    """Exact five-valued evaluation of a gate of any width.

    Componentwise: the good and faulty machines are folded separately
    in three-valued logic, then composed — see the note above
    :data:`GOOD_COMPONENT` for why pairwise five-valued folding would
    be wrong for wide gates.
    """
    if gate_type is GateType.BUF:
        return inputs[0]
    if gate_type is GateType.NOT:
        return NOT_TABLE[inputs[0]]
    if gate_type in (GateType.AND, GateType.NAND):
        table, identity = AND3, 1
    elif gate_type in (GateType.OR, GateType.NOR):
        table, identity = OR3, 0
    else:
        table, identity = XOR3, 0
    good = faulty = identity
    for value in inputs:
        good = table[good][GOOD_COMPONENT[value]]
        faulty = table[faulty][FAULTY_COMPONENT[value]]
    result = COMPOSE3[good][faulty]
    return NOT_TABLE[result] if gate_type.inverting else result
