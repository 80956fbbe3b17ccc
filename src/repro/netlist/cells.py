"""Combinational cell kinds and their evaluation semantics.

The cell library intentionally mirrors what a synthesis flow targeting a
standard-cell library (such as NanGate 45 nm) would emit: one- and two-input
gates plus a 2:1 multiplexer.  Word-level operators in :mod:`repro.hdl.ops`
elaborate into trees of these cells.
"""

from __future__ import annotations

from enum import IntEnum


class CellKind(IntEnum):
    """Identifier of a combinational cell's logic function.

    The integer values are used as indices into evaluation dispatch tables,
    so they must stay small and contiguous.
    """

    BUF = 0
    NOT = 1
    AND2 = 2
    OR2 = 3
    NAND2 = 4
    NOR2 = 5
    XOR2 = 6
    XNOR2 = 7
    #: ``out = b if s else a`` with input order ``(a, b, s)``.
    MUX2 = 8


CELL_KIND_NAMES = {kind: kind.name for kind in CellKind}

_INPUT_COUNT = {
    CellKind.BUF: 1,
    CellKind.NOT: 1,
    CellKind.AND2: 2,
    CellKind.OR2: 2,
    CellKind.NAND2: 2,
    CellKind.NOR2: 2,
    CellKind.XOR2: 2,
    CellKind.XNOR2: 2,
    CellKind.MUX2: 3,
}


def cell_input_count(kind: CellKind) -> int:
    """Return the number of input pins of a cell of the given *kind*."""
    return _INPUT_COUNT[CellKind(kind)]


def eval_cell(kind: CellKind, inputs) -> int:
    """Evaluate a single cell on scalar 0/1 *inputs* and return 0 or 1.

    This is the readable reference semantics; the simulators use
    :func:`eval_cell_word`, which must agree with it on every bit-plane (a
    property checked by the test suite).
    """
    kind = CellKind(kind)
    if kind is CellKind.BUF:
        return inputs[0] & 1
    if kind is CellKind.NOT:
        return (~inputs[0]) & 1
    if kind is CellKind.AND2:
        return inputs[0] & inputs[1] & 1
    if kind is CellKind.OR2:
        return (inputs[0] | inputs[1]) & 1
    if kind is CellKind.NAND2:
        return (~(inputs[0] & inputs[1])) & 1
    if kind is CellKind.NOR2:
        return (~(inputs[0] | inputs[1])) & 1
    if kind is CellKind.XOR2:
        return (inputs[0] ^ inputs[1]) & 1
    if kind is CellKind.XNOR2:
        return (~(inputs[0] ^ inputs[1])) & 1
    if kind is CellKind.MUX2:
        a, b, s = inputs[0] & 1, inputs[1] & 1, inputs[2] & 1
        return b if s else a
    raise ValueError(f"unknown cell kind: {kind!r}")


# Plain-int kinds: the word evaluator's dispatch compares ints, so callers
# pass a netlist's cell kind as stored, with no ``CellKind`` call per event.
(_BUF, _NOT, _AND2, _OR2, _NAND2, _NOR2, _XOR2, _XNOR2, _MUX2) = map(
    int, CellKind
)


def eval_cell_word(kind: int, inputs, mask: int = 1):
    """Evaluate one cell of *kind* on bit-plane words.

    Bit *k* of every input word carries an independent simulation lane
    (classic parallel fault simulation) and *mask* sets the active lanes:
    inversion is XOR with the mask, everything else is already bitwise.  On
    inputs with no bit outside *mask*, every plane of the result equals
    :func:`eval_cell` on that plane's bits and no bit outside *mask* is set.
    With the default ``mask=1`` the words are plain 0/1 values.  Words may
    be Python ints (the event simulator) or numpy arrays, one element per
    same-kind cell.
    """
    if kind == _BUF:
        return inputs[0]
    if kind == _NOT:
        return inputs[0] ^ mask
    if kind == _AND2:
        return inputs[0] & inputs[1]
    if kind == _OR2:
        return inputs[0] | inputs[1]
    if kind == _NAND2:
        return (inputs[0] & inputs[1]) ^ mask
    if kind == _NOR2:
        return (inputs[0] | inputs[1]) ^ mask
    if kind == _XOR2:
        return inputs[0] ^ inputs[1]
    if kind == _XNOR2:
        return inputs[0] ^ inputs[1] ^ mask
    if kind == _MUX2:
        a, b, s = inputs
        return (a & (s ^ mask)) | (b & s)
    raise ValueError(f"unknown cell kind: {kind!r}")
