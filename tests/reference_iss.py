"""Architectural reference ISS (instruction-set simulator): a test oracle.

Executes RV32I semantics directly, serving as the golden model:

- the gate-level IbexMini core is co-verified against it instruction by
  instruction;
- workload and generator tests use it to compute expected program output
  quickly.

The ISS shares the platform's MMIO conventions (an *output region* whose
stores constitute the program-visible output, and a *halt address* whose
store terminates execution) but takes them as constructor parameters so the
ISA layer stays independent of the SoC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.isa import encoding as enc


class TrapError(Exception):
    """Raised on an architectural trap (illegal instruction, bad access)."""


@dataclass
class ReferenceCPU:
    """A simple RV32I interpreter with byte-addressable memory."""

    memory_size: int = 1 << 16
    output_base: int = 0x10000000
    output_size: int = 0x1000
    halt_addr: int = 0x10001000
    rv32e: bool = True

    regs: List[int] = field(default_factory=lambda: [0] * 32)
    pc: int = 0
    memory: bytearray = field(default_factory=bytearray)
    #: program-visible output: ("store", offset, value) plus a final
    #: ("halt", exit_code) event
    output_log: List[Tuple] = field(default_factory=list)
    halted: bool = False
    exit_code: int = 0
    instret: int = 0

    def __post_init__(self) -> None:
        if not self.memory:
            self.memory = bytearray(self.memory_size)

    # ------------------------------------------------------------------
    def load_image(self, image: bytes, base: int = 0) -> None:
        """Copy a program image into memory at *base*."""
        if base + len(image) > len(self.memory):
            raise ValueError("image does not fit in memory")
        self.memory[base : base + len(image)] = image

    def _read(self, addr: int, size: int) -> int:
        if self.output_base <= addr < self.output_base + self.output_size:
            return 0  # MMIO reads as zero
        if addr == self.halt_addr:
            return 0
        if addr + size > len(self.memory):
            raise TrapError(f"load from unmapped address {addr:#x}")
        return int.from_bytes(self.memory[addr : addr + size], "little")

    def _write(self, addr: int, size: int, value: int) -> None:
        value &= (1 << (8 * size)) - 1
        if addr == self.halt_addr:
            self.halted = True
            self.exit_code = value
            self.output_log.append(("halt", value))
            return
        if self.output_base <= addr < self.output_base + self.output_size:
            self.output_log.append(("store", addr - self.output_base, value))
            return
        if addr + size > len(self.memory):
            raise TrapError(f"store to unmapped address {addr:#x}")
        self.memory[addr : addr + size] = value.to_bytes(size, "little")

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction."""
        if self.halted:
            return
        word = self._read(self.pc, 4)
        self.execute(word)
        self.instret += 1

    def run(self, max_instructions: int = 1_000_000) -> int:
        """Run until halt (returns the exit code) or raise on timeout."""
        for _ in range(max_instructions):
            if self.halted:
                return self.exit_code
            self.step()
        raise TrapError(f"program did not halt within {max_instructions} instructions")

    # ------------------------------------------------------------------
    def _reg_read(self, index: int) -> int:
        return self.regs[index]

    def _reg_write(self, index: int, value: int) -> None:
        self._check_reg(index)
        if index != 0:
            self.regs[index] = value & 0xFFFFFFFF

    def _check_reg(self, index: int) -> None:
        if self.rv32e and index >= 16:
            raise TrapError(f"register x{index} is not implemented on RV32E")

    def execute(self, word: int) -> None:
        """Execute the instruction *word* at the current PC."""
        opcode = enc.opcode_of(word)
        rd, rs1, rs2 = enc.rd_of(word), enc.rs1_of(word), enc.rs2_of(word)
        funct3, funct7 = enc.funct3_of(word), enc.funct7_of(word)
        next_pc = (self.pc + 4) & 0xFFFFFFFF

        if opcode == enc.OPCODE_LUI:
            self._reg_write(rd, enc.imm_u(word))
        elif opcode == enc.OPCODE_AUIPC:
            self._reg_write(rd, self.pc + enc.imm_u(word))
        elif opcode == enc.OPCODE_JAL:
            self._reg_write(rd, next_pc)
            next_pc = (self.pc + enc.imm_j(word)) & 0xFFFFFFFF
        elif opcode == enc.OPCODE_JALR:
            self._check_reg(rs1)
            target = (self._reg_read(rs1) + enc.imm_i(word)) & 0xFFFFFFFE
            self._reg_write(rd, next_pc)
            next_pc = target
        elif opcode == enc.OPCODE_BRANCH:
            self._check_reg(rs1)
            self._check_reg(rs2)
            if self._branch_taken(funct3, rs1, rs2):
                next_pc = (self.pc + enc.imm_b(word)) & 0xFFFFFFFF
        elif opcode == enc.OPCODE_LOAD:
            self._check_reg(rs1)
            addr = (self._reg_read(rs1) + enc.imm_i(word)) & 0xFFFFFFFF
            self._reg_write(rd, self._load(funct3, addr))
        elif opcode == enc.OPCODE_STORE:
            self._check_reg(rs1)
            self._check_reg(rs2)
            addr = (self._reg_read(rs1) + enc.imm_s(word)) & 0xFFFFFFFF
            size = {0: 1, 1: 2, 2: 4}.get(funct3)
            if size is None:
                raise TrapError(f"illegal store funct3={funct3}")
            self._write(addr, size, self._reg_read(rs2))
        elif opcode == enc.OPCODE_OP_IMM:
            self._check_reg(rs1)
            self._reg_write(rd, self._alu_imm(word, funct3))
        elif opcode == enc.OPCODE_OP:
            self._check_reg(rs1)
            self._check_reg(rs2)
            self._reg_write(rd, self._alu_reg(funct3, funct7, rs1, rs2))
        elif opcode == enc.OPCODE_SYSTEM:
            raise TrapError("ecall/ebreak executed (unsupported environment call)")
        else:
            raise TrapError(f"illegal instruction {word:#010x} at pc={self.pc:#x}")
        self.pc = next_pc

    def _branch_taken(self, funct3: int, rs1: int, rs2: int) -> bool:
        a, b = self._reg_read(rs1), self._reg_read(rs2)
        sa, sb = _to_signed(a), _to_signed(b)
        if funct3 == 0b000:
            return a == b
        if funct3 == 0b001:
            return a != b
        if funct3 == 0b100:
            return sa < sb
        if funct3 == 0b101:
            return sa >= sb
        if funct3 == 0b110:
            return a < b
        if funct3 == 0b111:
            return a >= b
        raise TrapError(f"illegal branch funct3={funct3}")

    def _load(self, funct3: int, addr: int) -> int:
        if funct3 == 0b000:
            return _sign_extend(self._read(addr, 1), 8)
        if funct3 == 0b001:
            return _sign_extend(self._read(addr, 2), 16)
        if funct3 == 0b010:
            return self._read(addr, 4)
        if funct3 == 0b100:
            return self._read(addr, 1)
        if funct3 == 0b101:
            return self._read(addr, 2)
        raise TrapError(f"illegal load funct3={funct3}")

    def _alu_imm(self, word: int, funct3: int) -> int:
        a = self._reg_read(enc.rs1_of(word))
        imm = enc.imm_i(word)
        if funct3 == 0b000:
            return a + imm
        if funct3 == 0b010:
            return 1 if _to_signed(a) < imm else 0
        if funct3 == 0b011:
            return 1 if a < (imm & 0xFFFFFFFF) else 0
        if funct3 == 0b100:
            return a ^ (imm & 0xFFFFFFFF)
        if funct3 == 0b110:
            return a | (imm & 0xFFFFFFFF)
        if funct3 == 0b111:
            return a & (imm & 0xFFFFFFFF)
        shamt = enc.rs2_of(word)
        funct7 = enc.funct7_of(word)
        if funct3 == 0b001 and funct7 == 0:
            return a << shamt
        if funct3 == 0b101 and funct7 == 0:
            return a >> shamt
        if funct3 == 0b101 and funct7 == 0b0100000:
            return _to_signed(a) >> shamt
        raise TrapError(f"illegal op-imm instruction {word:#010x}")

    def _alu_reg(self, funct3: int, funct7: int, rs1: int, rs2: int) -> int:
        a, b = self._reg_read(rs1), self._reg_read(rs2)
        shamt = b & 31
        if funct3 == 0b000 and funct7 == 0:
            return a + b
        if funct3 == 0b000 and funct7 == 0b0100000:
            return a - b
        if funct3 == 0b001 and funct7 == 0:
            return a << shamt
        if funct3 == 0b010 and funct7 == 0:
            return 1 if _to_signed(a) < _to_signed(b) else 0
        if funct3 == 0b011 and funct7 == 0:
            return 1 if a < b else 0
        if funct3 == 0b100 and funct7 == 0:
            return a ^ b
        if funct3 == 0b101 and funct7 == 0:
            return a >> shamt
        if funct3 == 0b101 and funct7 == 0b0100000:
            return _to_signed(a) >> shamt
        if funct3 == 0b110 and funct7 == 0:
            return a | b
        if funct3 == 0b111 and funct7 == 0:
            return a & b
        raise TrapError(f"illegal op instruction funct3={funct3} funct7={funct7}")


def _to_signed(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value & 0x80000000 else value


def _sign_extend(value: int, bits: int) -> int:
    mask = 1 << (bits - 1)
    return ((value ^ mask) - mask) & 0xFFFFFFFF


def run_program(
    image: bytes,
    max_instructions: int = 1_000_000,
    **cpu_kwargs,
) -> ReferenceCPU:
    """Convenience: load *image*, run to halt, and return the CPU."""
    cpu = ReferenceCPU(**cpu_kwargs)
    cpu.load_image(image)
    cpu.run(max_instructions)
    return cpu
