"""Reference ISS: per-instruction semantics and platform protocol."""

import pytest

from reference_iss import ReferenceCPU, TrapError, run_program
from repro.isa.assembler import assemble


def exec_snippet(body: str, max_instructions: int = 10000):
    src = (
        ".equ OUT, 0x10000000\n.equ HALT, 0x10001000\n"
        + body
        + "\nli t0, HALT\nsw x0, 0(t0)\n"
    )
    cpu = run_program(assemble(src).image, max_instructions=max_instructions)
    return cpu


def out_stores(cpu):
    return [e for e in cpu.output_log if e[0] == "store"]


def test_arithmetic_basics():
    cpu = exec_snippet(
        """
        li t1, OUT
        li a0, 7
        li a1, -3
        add a2, a0, a1
        sw a2, 0(t1)
        sub a2, a0, a1
        sw a2, 4(t1)
        """
    )
    assert out_stores(cpu) == [("store", 0, 4), ("store", 4, 10)]


def test_slt_family():
    cpu = exec_snippet(
        """
        li t1, OUT
        li a0, -1
        li a1, 1
        slt a2, a0, a1
        sw a2, 0(t1)
        sltu a2, a0, a1
        sw a2, 4(t1)
        slti a2, a0, 0
        sw a2, 8(t1)
        sltiu a2, a0, 1
        sw a2, 12(t1)
        """
    )
    assert [v for _, _, v in out_stores(cpu)] == [1, 0, 1, 0]


def test_shifts():
    cpu = exec_snippet(
        """
        li t1, OUT
        li a0, 0x80000001
        srli a2, a0, 4
        sw a2, 0(t1)
        srai a2, a0, 4
        sw a2, 4(t1)
        slli a2, a0, 1
        sw a2, 8(t1)
        li a1, 8
        sll a2, a0, a1
        sw a2, 12(t1)
        """
    )
    assert [v for _, _, v in out_stores(cpu)] == [
        0x08000000, 0xF8000000, 0x00000002, 0x00000100,
    ]


def test_logic_immediates():
    cpu = exec_snippet(
        """
        li t1, OUT
        li a0, 0xf0f0
        andi a2, a0, 0xff
        sw a2, 0(t1)
        ori a2, a0, 0xf
        sw a2, 4(t1)
        xori a2, a0, -1
        sw a2, 8(t1)
        """
    )
    assert [v for _, _, v in out_stores(cpu)] == [
        0xF0, 0xF0FF, 0xFFFF0F0F,
    ]


def test_load_store_sizes_and_sign_extension():
    cpu = exec_snippet(
        """
        li t1, OUT
        la a0, buf
        li a1, 0x818283FF
        sw a1, 0(a0)
        lb a2, 0(a0)
        sw a2, 0(t1)
        lbu a2, 0(a0)
        sw a2, 4(t1)
        lh a2, 2(a0)
        sw a2, 8(t1)
        lhu a2, 2(a0)
        sw a2, 12(t1)
        sb a1, 5(a0)
        lw a2, 4(a0)
        sw a2, 16(t1)
        sh a1, 8(a0)
        lw a2, 8(a0)
        sw a2, 20(t1)
        j done
        .align 2
        buf: .space 16
        done:
        """
    )
    assert [v for _, _, v in out_stores(cpu)] == [
        0xFFFFFFFF, 0xFF, 0xFFFF8182, 0x8182, 0x0000FF00, 0x000083FF,
    ]


def test_branches():
    cpu = exec_snippet(
        """
        li t1, OUT
        li a0, 5
        li a1, 5
        li a2, 0
        beq a0, a1, eq_taken
        li a2, 99
        eq_taken:
        sw a2, 0(t1)
        li a3, -1
        li a4, 1
        blt a3, a4, lt_taken
        j fail
        lt_taken:
        bltu a3, a4, fail    # unsigned: 0xffffffff not < 1
        bgeu a3, a4, geu_taken
        fail:
        li a2, 1
        sw a2, 4(t1)
        j end
        geu_taken:
        sw x0, 4(t1)
        end:
        """
    )
    assert [v for _, _, v in out_stores(cpu)] == [0, 0]


def test_jal_jalr_link_values():
    cpu = exec_snippet(
        """
        li t1, OUT
        jal ra, fn
        after:
        sw a0, 4(t1)
        j end
        fn:
        sw ra, 0(t1)
        li a0, 77
        ret
        end:
        """
    )
    stores = out_stores(cpu)
    # ra must equal the address of `after` (pc of jal + 4).
    assert stores[0][2] == cpu.instret * 0 + stores[0][2]  # structural
    assert stores[1] == ("store", 4, 77)


def test_lui_auipc():
    cpu = exec_snippet(
        """
        li t1, OUT
        lui a0, 0xABCDE
        sw a0, 0(t1)
        auipc a1, 0
        sw a1, 4(t1)
        """
    )
    stores = out_stores(cpu)
    assert stores[0][2] == 0xABCDE000
    assert stores[1][2] % 4 == 0  # a pc value


def test_x0_is_hardwired_zero():
    cpu = exec_snippet(
        """
        li t1, OUT
        li a0, 123
        add x0, a0, a0
        sw x0, 0(t1)
        """
    )
    assert out_stores(cpu)[0][2] == 0


def test_halt_code():
    src = """
    li t0, 0x10001000
    li a0, 42
    sw a0, 0(t0)
    """
    cpu = run_program(assemble(src).image)
    assert cpu.halted and cpu.exit_code == 42
    assert cpu.output_log[-1] == ("halt", 42)


def test_illegal_instruction_traps():
    cpu = ReferenceCPU()
    cpu.load_image(b"\xff\xff\xff\xff")
    with pytest.raises(TrapError, match="illegal instruction"):
        cpu.run()


def test_rv32e_rejects_high_registers():
    cpu = ReferenceCPU(rv32e=True)
    from repro.isa.encoding import encode

    cpu.load_image(encode("add", rd=20, rs1=1, rs2=2).to_bytes(4, "little"))
    with pytest.raises(TrapError, match="RV32E"):
        cpu.run()


def test_timeout_raises():
    src = "loop: j loop\n"
    cpu = ReferenceCPU()
    cpu.load_image(assemble(src).image)
    with pytest.raises(TrapError, match="did not halt"):
        cpu.run(max_instructions=100)


def test_mmio_reads_as_zero():
    cpu = exec_snippet(
        """
        li t1, OUT
        lw a0, 0(t1)
        addi a0, a0, 3
        sw a0, 0(t1)
        """
    )
    assert out_stores(cpu)[0][2] == 3


def test_ecall_traps():
    cpu = ReferenceCPU()
    cpu.load_image(assemble("ecall").image)
    with pytest.raises(TrapError, match="ecall"):
        cpu.run()
