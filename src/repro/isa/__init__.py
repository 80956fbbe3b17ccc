"""RISC-V (RV32I/RV32E) ISA substrate.

Provides instruction encodings, a two-pass assembler and a disassembler.
The architectural reference ISS that co-verifies the gate-level IbexMini core
is a test oracle and lives with the tests (``tests/reference_iss.py``).
"""

from repro.isa.assembler import AssemblerError, Program, assemble
from repro.isa.disasm import disassemble
from repro.isa.encoding import encode

__all__ = [
    "AssemblerError",
    "Program",
    "assemble",
    "disassemble",
    "encode",
]
