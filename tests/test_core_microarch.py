"""Microarchitectural timing/behaviour of the execute stage and LSU flow."""

from repro.isa.assembler import assemble

HALT = "\nli t0, 0x10001000\nsw x0, 0(t0)\n"


def _cycles(system, body, max_cycles=2000):
    result = system.run_program(assemble(body + HALT, "m"), max_cycles=max_cycles)
    assert result.halted
    return result.cycles


def test_loads_cost_an_extra_cycle(system):
    nops = "\n".join(["nop"] * 20)
    base = _cycles(system, nops)
    with_loads = _cycles(
        system,
        "la a0, data\n" + "\n".join(["lw a1, 0(a0)"] * 10) + "\nj end\n"
        ".align 2\ndata: .word 7\nend:\n"
        + "\n".join(["nop"] * 8),
    )
    # 10 loads each take >= 2 cycles; the program must be measurably longer
    # than an equivalent nop-sled even accounting for the extra setup.
    assert with_loads > base + 8


def test_taken_branch_penalty(system):
    straight = _cycles(system, "\n".join(["nop"] * 30))
    # 10 taken jumps, same retired instruction count as 30 nops? Each `j`
    # flushes the prefetch buffer: expect a higher cycle count per instr.
    jumps = "\n".join(
        f"j l{i}\nl{i}: nop\nnop" for i in range(10)
    )
    jumping = _cycles(system, jumps)
    assert jumping > straight


def test_back_to_back_stores_ordering(system):
    src = """
    li t1, 0x10000000
    li a0, 1
    li a1, 2
    sw a0, 0(t1)
    sw a1, 0(t1)
    sw a0, 4(t1)
    """
    result = system.run_program(assemble(src + HALT, "s"), max_cycles=500)
    stores = [e for e in result.observables if e[0] == "store"]
    assert stores == [("store", 0, 1), ("store", 0, 2), ("store", 4, 1)]


def test_load_to_use_hazard_handled(system):
    """The consumer of a load must observe the loaded value (stall works)."""
    src = """
    li t1, 0x10000000
    la a0, data
    lw a1, 0(a0)
    addi a1, a1, 1
    sw a1, 0(t1)
    j end
    .align 2
    data: .word 41
    end:
    """
    result = system.run_program(assemble(src + HALT, "h"), max_cycles=500)
    assert ("store", 0, 42) in result.observables


def test_store_load_forward_through_memory(system):
    src = """
    li t1, 0x10000000
    la a0, buf
    li a1, 0x5A5A
    sw a1, 0(a0)
    lw a2, 0(a0)
    sw a2, 0(t1)
    j end
    .align 2
    buf: .space 4
    end:
    """
    result = system.run_program(assemble(src + HALT, "f"), max_cycles=500)
    assert ("store", 0, 0x5A5A) in result.observables


def test_jalr_to_unaligned_target_masks_bit0(system):
    """JALR clears bit 0 of the target per the ISA."""
    src = """
    li t1, 0x10000000
    la a0, target
    addi a0, a0, 1       # odd target; hardware must clear bit 0
    jalr ra, a0, 0
    j end
    target:
    li a1, 7
    sw a1, 0(t1)
    end:
    """
    result = system.run_program(assemble(src + HALT, "j"), max_cycles=500)
    assert ("store", 0, 7) in result.observables


def test_deep_call_chain_uses_stack(system):
    src = """
    li sp, 0xff00
    li t1, 0x10000000
    li a0, 5
    call down
    sw a0, 0(t1)
    j end
    down:
    addi sp, sp, -8
    sw ra, 0(sp)
    beqz a0, base
    addi a0, a0, -1
    call down
    addi a0, a0, 10
    base_ret:
    lw ra, 0(sp)
    addi sp, sp, 8
    ret
    base:
    li a0, 100
    j base_ret
    end:
    """
    result = system.run_program(assemble(src + HALT, "c"), max_cycles=2000)
    assert ("store", 0, 150) in result.observables


def test_busy_state_blocks_issue(system):
    """During a memory response cycle no second instruction may retire:
    cycle count for N dependent loads >= 2N."""
    body = "la a0, data\n" + "\n".join(["lw a1, 0(a0)"] * 12)
    body += "\nj end\n.align 2\ndata: .word 1\nend:\n"
    loads_cycles = _cycles(system, body)
    assert loads_cycles >= 24
