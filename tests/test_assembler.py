"""The two-pass assembler: directives, pseudo-instructions, diagnostics."""

import pytest

from reference_iss import run_program
from repro.isa.assembler import AssemblerError, assemble
from repro.isa.disasm import disassemble
from repro.isa.encoding import encode


def words(program):
    return [program.word_at(a) for a in range(0, program.size, 4)]


def test_basic_instructions():
    prog = assemble("add a0, a1, a2\nsub t0, t1, t2\n")
    assert words(prog)[0] == encode("add", rd=10, rs1=11, rs2=12)
    assert words(prog)[1] == encode("sub", rd=5, rs1=6, rs2=7)


def test_labels_and_branches():
    prog = assemble(
        """
        start:
            addi a0, x0, 1
        loop:
            addi a0, a0, 1
            bne a0, x0, loop
            j start
        """
    )
    assert prog.symbols["start"] == 0
    assert prog.symbols["loop"] == 4
    assert words(prog)[2] == encode("bne", rs1=10, rs2=0, imm=-4)
    assert words(prog)[3] == encode("jal", rd=0, imm=-12)


def test_load_store_operands():
    prog = assemble("lw a0, 8(sp)\nsw a1, -4(s0)\nlbu a2, 0(a3)\n")
    ws = words(prog)
    assert ws[0] == encode("lw", rd=10, rs1=2, imm=8)
    assert ws[1] == encode("sw", rs1=8, rs2=11, imm=-4)
    assert ws[2] == encode("lbu", rd=12, rs1=13, imm=0)


def test_li_small_and_large():
    prog = assemble("li a0, 42\nli a1, 0x12345678\nli a2, -1\n")
    ws = words(prog)
    assert ws[0] == encode("addi", rd=10, rs1=0, imm=42)
    # Large li expands to lui+addi; execute to verify the value.
    src = """
        li a0, 0x12345678
        li a1, -1
        li a2, 0xdeadbeef
        li t0, 0x10001000
        li t1, 0x10000000
        sw a0, 0(t1)
        sw a1, 4(t1)
        sw a2, 8(t1)
        sw x0, 0(t0)
    """
    cpu = run_program(assemble(src).image)
    assert cpu.output_log[0] == ("store", 0, 0x12345678)
    assert cpu.output_log[1] == ("store", 4, 0xFFFFFFFF)
    assert cpu.output_log[2] == ("store", 8, 0xDEADBEEF)


def test_la_forward_reference():
    prog = assemble(
        """
        la a0, data
        .align 2
        data: .word 99
        """
    )
    # la is always 8 bytes (lui+addi) so forward references resolve.
    assert prog.symbols["data"] == 8


@pytest.mark.parametrize(
    "pseudo,expected",
    [
        ("nop", encode("addi", rd=0, rs1=0, imm=0)),
        ("mv a0, a1", encode("addi", rd=10, rs1=11, imm=0)),
        ("not a0, a1", encode("xori", rd=10, rs1=11, imm=-1)),
        ("neg a0, a1", encode("sub", rd=10, rs1=0, rs2=11)),
        ("seqz a0, a1", encode("sltiu", rd=10, rs1=11, imm=1)),
        ("snez a0, a1", encode("sltu", rd=10, rs1=0, rs2=11)),
        ("ret", encode("jalr", rd=0, rs1=1, imm=0)),
        ("jr a0", encode("jalr", rd=0, rs1=10, imm=0)),
    ],
)
def test_pseudo_instructions(pseudo, expected):
    assert words(assemble(pseudo))[0] == expected


def test_branch_pseudos():
    prog = assemble(
        """
        target:
            beqz a0, target
            bnez a1, target
            bgt a0, a1, target
            ble a0, a1, target
        """
    )
    ws = words(prog)
    assert ws[0] == encode("beq", rs1=10, rs2=0, imm=0)
    assert ws[1] == encode("bne", rs1=11, rs2=0, imm=-4)
    assert ws[2] == encode("blt", rs1=11, rs2=10, imm=-8)
    assert ws[3] == encode("bge", rs1=11, rs2=10, imm=-12)


def test_call_uses_ra():
    prog = assemble("call fn\nnop\nfn: ret\n")
    assert words(prog)[0] == encode("jal", rd=1, imm=8)


def test_data_directives():
    prog = assemble(
        """
        .word 0x11223344, 5
        .half 0xBEEF
        .byte 1, 2, 3
        .asciz "ab"
        """
    )
    image = prog.image
    assert image[0:4] == bytes.fromhex("44332211")
    assert image[4:8] == (5).to_bytes(4, "little")
    assert image[8:10] == bytes.fromhex("EFBE")
    assert image[10:13] == b"\x01\x02\x03"
    assert image[13:16] == b"ab\0"


def test_align_and_space():
    prog = assemble(
        """
        .byte 1
        .align 2
        aligned: .word 7
        .space 8
        after: .word 9
        """
    )
    assert prog.symbols["aligned"] == 4
    assert prog.symbols["after"] == 16


def test_equ_constants():
    prog = assemble(
        """
        .equ BASE, 0x100
        lw a0, BASE(x0)
        """
    )
    assert words(prog)[0] == encode("lw", rd=10, rs1=0, imm=0x100)


def test_symbol_plus_offset():
    prog = assemble(
        """
        j target+4
        target:
            nop
            nop
        """
    )
    assert words(prog)[0] == encode("jal", rd=0, imm=8)


def test_rv32e_register_restriction():
    with pytest.raises(AssemblerError, match="out of range"):
        assemble("add a7, a0, a1")  # a7 = x17
    # ...but allowed in RV32I mode.
    prog = assemble("add a7, a0, a1", rv32e=False)
    assert words(prog)[0] == encode("add", rd=17, rs1=10, rs2=11)


def test_duplicate_label_rejected():
    with pytest.raises(AssemblerError, match="duplicate label"):
        assemble("x: nop\nx: nop\n")


def test_unknown_instruction_rejected():
    with pytest.raises(AssemblerError, match="unknown instruction"):
        assemble("frobnicate a0, a1")


def test_unknown_directive_rejected():
    with pytest.raises(AssemblerError, match="unknown directive"):
        assemble(".fancy 3")


def test_bad_register_message_has_line():
    with pytest.raises(AssemblerError, match=":2:"):
        assemble("nop\nadd q0, a0, a1\n")


def test_comments_stripped():
    prog = assemble("nop # trailing\n// full line\nnop\n")
    assert len(words(prog)) == 2


def test_label_with_code_on_same_line():
    prog = assemble("entry: nop\n")
    assert prog.symbols["entry"] == 0


def test_li_label_suggests_la():
    with pytest.raises(AssemblerError, match="use `la`"):
        assemble("li a0, somewhere\nsomewhere: nop\n")


def test_disassembler_roundtrip_smoke():
    prog = assemble(
        """
        addi a0, x0, 7
        lw a1, 4(a0)
        sw a1, 8(a0)
        beq a0, a1, 0
        jal x1, 0
        lui a2, 0x10
        sra a3, a1, a0
        """
    )
    for addr, word in enumerate(words(prog)):
        text = disassemble(word, addr * 4)
        assert not text.startswith(".word"), f"{word:#x} -> {text}"
