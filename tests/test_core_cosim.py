"""Gate-level core co-simulation against the reference ISS.

The environments' observables use the same event format as the ISS output
log, so equality of the two is an end-to-end architectural check covering
fetch, decode, execute, memory, and writeback.
"""

import pytest

from reference_iss import run_program
from repro.isa.assembler import assemble

EPILOGUE = """
    li t0, 0x10001000
    li t1, 0
    sw t1, 0(t0)
"""


def cosim(system, body, max_cycles=20000):
    src = ".equ OUT, 0x10000000\n" + body + EPILOGUE
    program = assemble(src, "cosim")
    iss = run_program(program.image)
    result = system.run_program(program, max_cycles=max_cycles)
    assert result.halted, "core did not halt"
    assert result.observables == tuple(iss.output_log)
    return result


def test_straightline_arithmetic(system):
    cosim(
        system,
        """
        li t2, OUT
        li a0, 1000
        li a1, 321
        add a2, a0, a1
        sub a3, a0, a1
        xor a4, a2, a3
        and a5, a2, a3
        or  s0, a4, a5
        sw a2, 0(t2)
        sw a3, 4(t2)
        sw s0, 8(t2)
        """,
    )


def test_branches_and_loops(system):
    cosim(
        system,
        """
        li t2, OUT
        li a0, 0
        li a1, 0
        loop:
        add a1, a1, a0
        addi a0, a0, 1
        li a2, 12
        blt a0, a2, loop
        sw a1, 0(t2)
        """,
    )


def test_memory_access_patterns(system):
    cosim(
        system,
        """
        li t2, OUT
        la a0, buf
        li a1, 0x8199AAFF
        sw a1, 0(a0)
        sb a1, 5(a0)
        sh a1, 8(a0)
        lw a2, 0(a0)
        lb a3, 0(a0)
        lbu a4, 1(a0)
        lh a5, 2(a0)
        lhu s0, 2(a0)
        sw a2, 0(t2)
        sw a3, 4(t2)
        sw a4, 8(t2)
        sw a5, 12(t2)
        sw s0, 16(t2)
        j after
        .align 2
        buf: .space 16
        after:
        """,
    )


def test_function_calls(system):
    cosim(
        system,
        """
        li sp, 0xff00
        li t2, OUT
        li a0, 6
        call square
        sw a0, 0(t2)
        j end
        square:
        mv a1, a0
        li a2, 0
        sq_loop:
        add a2, a2, a0
        addi a1, a1, -1
        bnez a1, sq_loop
        mv a0, a2
        ret
        end:
        """,
    )


def test_jalr_indirect_jump(system):
    cosim(
        system,
        """
        li t2, OUT
        la a0, target
        jalr ra, a0, 0
        cont:
        sw a1, 0(t2)
        j end
        target:
        li a1, 55
        jr ra
        end:
        """,
    )


def test_shifts_and_compares(system):
    cosim(
        system,
        """
        li t2, OUT
        li a0, 0x80000001
        li a1, 7
        sll a2, a0, a1
        srl a3, a0, a1
        sra a4, a0, a1
        slt a5, a0, x0
        sltu s0, a0, x0
        sw a2, 0(t2)
        sw a3, 4(t2)
        sw a4, 8(t2)
        sw a5, 12(t2)
        sw s0, 16(t2)
        """,
    )


def test_lui_auipc(system):
    cosim(
        system,
        """
        li t2, OUT
        lui a0, 0xFEDCB
        auipc a1, 1
        sub a1, a1, a1
        sw a0, 0(t2)
        sw a1, 4(t2)
        """,
    )


def test_tight_branch_chains(system):
    """Back-to-back taken branches stress redirect/flush logic."""
    cosim(
        system,
        """
        li t2, OUT
        li a0, 0
        j a
        a: j b
        b: j c
        c: addi a0, a0, 1
        li a1, 3
        blt a0, a1, a
        sw a0, 0(t2)
        """,
    )


def test_load_use_sequences(system):
    cosim(
        system,
        """
        li t2, OUT
        la a0, data
        lw a1, 0(a0)
        addi a1, a1, 1
        lw a2, 4(a0)
        add a3, a1, a2
        sw a3, 0(t2)
        j end
        .align 2
        data: .word 41, 100
        end:
        """,
    )


def test_store_to_output_is_ordered(system):
    result = cosim(
        system,
        """
        li t2, OUT
        li a0, 1
        sw a0, 0(t2)
        li a0, 2
        sw a0, 4(t2)
        li a0, 3
        sw a0, 0(t2)
        """,
    )
    stores = [e for e in result.observables if e[0] == "store"]
    assert stores == [("store", 0, 1), ("store", 4, 2), ("store", 0, 3)]


def test_illegal_instruction_traps_as_due(system):
    program = assemble(".word 0xffffffff\n", "illegal")
    result = system.run_program(program, max_cycles=200)
    assert result.halted
    assert ("trap",) in result.observables


def test_trap_stops_forward_progress(system):
    # After the trap, the later store must never appear.
    src = """
    .word 0xffffffff
    li t0, 0x10000000
    li a0, 7
    sw a0, 0(t0)
    """
    result = system.run_program(assemble(src, "trapstop"), max_cycles=300)
    assert result.observables == (("trap",),)


def test_exit_code_propagates(system):
    src = """
    li t0, 0x10001000
    li a0, 99
    sw a0, 0(t0)
    """
    result = system.run_program(assemble(src, "exit99"), max_cycles=200)
    assert result.observables[-1] == ("halt", 99)


def test_ecc_system_runs_same_programs(ecc_system):
    cosim(
        ecc_system,
        """
        li t2, OUT
        li a0, 123
        li a1, 456
        add a2, a0, a1
        sw a2, 0(t2)
        """,
    )


@pytest.mark.parametrize("seed", range(4))
def test_constrained_random_programs(system, seed):
    """Pseudo-random arithmetic programs, co-simulated against the ISS."""
    import random

    rng = random.Random(seed)
    regs = ["a0", "a1", "a2", "a3", "a4", "a5", "s0", "s1"]
    lines = ["li t2, OUT"]
    for reg in regs:
        lines.append(f"li {reg}, {rng.randint(-2048, 2047)}")
    ops3 = ["add", "sub", "xor", "or", "and", "sll", "srl", "sra", "slt", "sltu"]
    for _ in range(60):
        op = rng.choice(ops3)
        rd, r1, r2 = (rng.choice(regs) for _ in range(3))
        if op in ("sll", "srl", "sra"):
            lines.append(f"andi t0, {r2}, 31")
            lines.append(f"{op} {rd}, {r1}, t0")
        else:
            lines.append(f"{op} {rd}, {r1}, {r2}")
    for i, reg in enumerate(regs):
        lines.append(f"sw {reg}, {4 * i}(t2)")
    cosim(system, "\n".join(lines) + "\n")
