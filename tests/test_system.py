"""System-level pieces: memory environment, snapshots, fingerprints, stats."""

import pytest

from repro.isa.assembler import assemble
from repro.netlist.stats import structure_stats
from repro.soc import memmap
from repro.soc.system import MemoryEnvironment
from repro.workloads.beebs import load_benchmark


@pytest.fixture()
def env(strstr_program):
    environment = MemoryEnvironment(strstr_program)
    environment.reset()
    return environment


def test_reset_loads_image(env, strstr_program):
    assert bytes(env.mem[: strstr_program.size]) == strstr_program.image


def test_imem_fetch(env, strstr_program):
    inputs = env.step({"imem_req": 1, "imem_addr": 0}, cycle=0)
    assert inputs["imem_rvalid"] == 1
    assert inputs["imem_rdata"] == strstr_program.word_at(0)
    inputs = env.step({}, cycle=1)
    assert inputs["imem_rvalid"] == 0


def test_dmem_write_read_roundtrip(env):
    env.step(
        {"dmem_req": 1, "dmem_we": 1, "dmem_addr": 0x800,
         "dmem_wdata": 0xCAFEBABE, "dmem_be": 0b1111},
        cycle=0,
    )
    inputs = env.step(
        {"dmem_req": 1, "dmem_we": 0, "dmem_addr": 0x800}, cycle=1
    )
    assert inputs["dmem_rvalid"] == 1
    assert inputs["dmem_rdata"] == 0xCAFEBABE


def test_byte_enables_write_lanes(env):
    env.step(
        {"dmem_req": 1, "dmem_we": 1, "dmem_addr": 0x800,
         "dmem_wdata": 0x11223344, "dmem_be": 0b1111}, cycle=0,
    )
    env.step(
        {"dmem_req": 1, "dmem_we": 1, "dmem_addr": 0x800,
         "dmem_wdata": 0x0000AB00, "dmem_be": 0b0010}, cycle=1,
    )
    inputs = env.step({"dmem_req": 1, "dmem_we": 0, "dmem_addr": 0x800}, 2)
    assert inputs["dmem_rdata"] == 0x1122AB44


def test_output_region_logs_word_store(env):
    env.step(
        {"dmem_req": 1, "dmem_we": 1, "dmem_addr": memmap.OUTPUT_BASE + 8,
         "dmem_wdata": 77, "dmem_be": 0b1111}, cycle=0,
    )
    assert env.observables() == (("store", 8, 77),)


def test_output_region_logs_sub_word_stores(env):
    env.step(
        {"dmem_req": 1, "dmem_we": 1, "dmem_addr": memmap.OUTPUT_BASE,
         "dmem_wdata": 0xBEEF0000, "dmem_be": 0b1100}, cycle=0,
    )
    env.step(
        {"dmem_req": 1, "dmem_we": 1, "dmem_addr": memmap.OUTPUT_BASE + 4,
         "dmem_wdata": 0x00AB0000, "dmem_be": 0b0100}, cycle=1,
    )
    assert env.observables() == (("store", 2, 0xBEEF), ("store", 6, 0xAB))


def test_malformed_byte_enables_logged_raw(env):
    env.step(
        {"dmem_req": 1, "dmem_we": 1, "dmem_addr": memmap.OUTPUT_BASE,
         "dmem_wdata": 5, "dmem_be": 0b0101}, cycle=0,
    )
    assert env.observables()[0][0] == "store-raw"


def test_halt_protocol(env):
    env.step(
        {"dmem_req": 1, "dmem_we": 1, "dmem_addr": memmap.HALT_ADDR,
         "dmem_wdata": 3, "dmem_be": 0b1111}, cycle=0,
    )
    assert env.halted()
    assert env.exit_code == 3
    assert env.observables()[-1] == ("halt", 3)
    # After halting the environment goes quiet.
    inputs = env.step({"imem_req": 1, "imem_addr": 0}, cycle=1)
    assert inputs["imem_rvalid"] == 0


def test_trap_recorded_and_halts(env):
    env.step({"trap": 1}, cycle=0)
    assert env.halted()
    assert env.observables() == (("trap",),)


def test_mmio_reads_zero(env):
    inputs = env.step(
        {"dmem_req": 1, "dmem_we": 0, "dmem_addr": memmap.OUTPUT_BASE}, 0
    )
    assert inputs["dmem_rdata"] == 0


def test_snapshot_restore_roundtrip(env):
    env.step(
        {"dmem_req": 1, "dmem_we": 1, "dmem_addr": 0x900,
         "dmem_wdata": 1, "dmem_be": 0b1111}, cycle=0,
    )
    snap = env.snapshot()
    fp = env.fingerprint()
    env.step(
        {"dmem_req": 1, "dmem_we": 1, "dmem_addr": 0x900,
         "dmem_wdata": 2, "dmem_be": 0b1111}, cycle=1,
    )
    assert env.fingerprint() != fp
    env.restore(snap)
    assert env.fingerprint() == fp


def test_fingerprint_insensitive_to_write_order(env):
    snap = env.snapshot()
    env.step({"dmem_req": 1, "dmem_we": 1, "dmem_addr": 0x900,
              "dmem_wdata": 1, "dmem_be": 0b1111}, 0)
    env.step({"dmem_req": 1, "dmem_we": 1, "dmem_addr": 0x904,
              "dmem_wdata": 2, "dmem_be": 0b1111}, 1)
    fp_ab = env.fingerprint()
    env.restore(snap)
    env.step({"dmem_req": 1, "dmem_we": 1, "dmem_addr": 0x904,
              "dmem_wdata": 2, "dmem_be": 0b1111}, 0)
    env.step({"dmem_req": 1, "dmem_we": 1, "dmem_addr": 0x900,
              "dmem_wdata": 1, "dmem_be": 0b1111}, 1)
    assert env.fingerprint() == fp_ab


def test_fingerprint_reflects_value_not_just_address(env):
    snap = env.snapshot()
    env.step({"dmem_req": 1, "dmem_we": 1, "dmem_addr": 0x900,
              "dmem_wdata": 1, "dmem_be": 0b1111}, 0)
    fp1 = env.fingerprint()
    env.restore(snap)
    env.step({"dmem_req": 1, "dmem_we": 1, "dmem_addr": 0x900,
              "dmem_wdata": 9, "dmem_be": 0b1111}, 0)
    assert env.fingerprint() != fp1


# ----------------------------------------------------------------------
# System-level structure
# ----------------------------------------------------------------------
def test_structure_inventory(system):
    assert set(system.structures) == {"alu", "decoder", "regfile", "lsu", "prefetch"}
    for name in system.structures:
        assert len(system.structure_wires(name)) > 100


def test_logic_structures_have_no_state(system):
    nl = system.netlist
    assert nl.dffs_of_structure("core.alu") == []
    assert nl.dffs_of_structure("core.decoder") == []
    assert len(nl.dffs_of_structure("core.regfile")) == 15 * 32
    assert len(nl.dffs_of_structure("core.prefetch")) > 100


def test_ecc_increases_regfile_size(system, ecc_system):
    plain = len(system.structure_wires("regfile"))
    protected = len(ecc_system.structure_wires("regfile"))
    assert protected > plain
    nl = ecc_system.netlist
    assert len(nl.dffs_of_structure("core.regfile")) == 15 * 38


def test_clock_period_positive_and_cached(system):
    assert system.clock_period > 0
    assert system.sta is system.sta  # cached_property


def test_structure_stats_table(system):
    stats = structure_stats(system.netlist, system.structures)
    assert stats["alu"].num_wires == len(system.structure_wires("alu"))
    assert stats["regfile"].num_dffs == 480


def test_run_program_fresh_state_each_call(system):
    program = load_benchmark("libstrstr")
    first = system.run_program(program, max_cycles=5000)
    second = system.run_program(program, max_cycles=5000)
    assert first.cycles == second.cycles
    assert first.observables == second.observables


def test_oversized_image_rejected():
    big = assemble(".space 100000\nnop\n", "big")
    env = MemoryEnvironment(big)
    with pytest.raises(ValueError, match="larger than RAM"):
        env.reset()
