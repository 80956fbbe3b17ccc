"""Hamming(38,32) single-error-correcting ECC.

The paper's register-file case study adds "optional single-error correction
ECC (without any double-error detection capabilities)".  This module provides
the gate-level encoder/corrector used by the ECC register file; the tests
check it against a pure-Python model (``tests/helpers.py``).

Layout: classic Hamming positions 1..38; parity bits sit at power-of-two
positions (1, 2, 4, 8, 16, 32), data bits fill the remaining positions in
ascending order.  The syndrome (XOR of position indices of flipped stored
bits) is zero for a clean word and equals the error position for any
single-bit error, which the corrector decodes back to a data-bit flip.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.hdl.ops import Bus, g_and, g_not, g_xor, reduce_xor
from repro.netlist.netlist import Netlist

DATA_BITS = 32
PARITY_BITS = 6
CODE_BITS = DATA_BITS + PARITY_BITS  # 38

#: Hamming position of each data bit (non-power-of-two positions in order).
DATA_POSITIONS: Tuple[int, ...] = tuple(
    pos for pos in range(1, 64) if pos & (pos - 1)
)[:DATA_BITS]


def build_encoder(nl: Netlist, data: Bus) -> Bus:
    """Parity-bit XOR trees; returns the 6-bit parity bus."""
    assert len(data) == DATA_BITS
    parity = []
    for j in range(PARITY_BITS):
        covered = [
            data[i] for i, pos in enumerate(DATA_POSITIONS) if pos & (1 << j)
        ]
        parity.append(reduce_xor(nl, covered))
    return parity


def build_corrector(nl: Netlist, code: Bus) -> Bus:
    """Syndrome decode + data correction; returns corrected 32-bit data."""
    assert len(code) == CODE_BITS
    data = code[:DATA_BITS]
    stored_parity = code[DATA_BITS:]
    syndrome: List[int] = []
    for j in range(PARITY_BITS):
        covered = [
            data[i] for i, pos in enumerate(DATA_POSITIONS) if pos & (1 << j)
        ]
        syndrome.append(g_xor(nl, reduce_xor(nl, covered), stored_parity[j]))
    corrected = []
    for i, pos in enumerate(DATA_POSITIONS):
        terms = [
            syndrome[j] if (pos >> j) & 1 else g_not(nl, syndrome[j])
            for j in range(PARITY_BITS)
        ]
        match = terms[0]
        for term in terms[1:]:
            match = g_and(nl, match, term)
        corrected.append(g_xor(nl, data[i], match))
    return corrected
