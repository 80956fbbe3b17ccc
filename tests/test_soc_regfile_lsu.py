"""Register file (plain + ECC) and LSU block-level tests."""

import numpy as np
import pytest

from repro.netlist.netlist import Netlist
from repro.netlist.validate import validate
from repro.sim.cyclesim import CycleSimulator
from repro.soc import ecc
from repro.soc.lsu import build_lsu
from repro.soc.regfile import build_regfile


def _regfile_netlist(use_ecc):
    nl = Netlist()
    ra1 = nl.add_input("ra1", 4)
    ra2 = nl.add_input("ra2", 4)
    wa = nl.add_input("wa", 4)
    wd = nl.add_input("wd", 32)
    we = nl.add_input("we", 1)
    with nl.scope("core"):
        outs = build_regfile(nl, ra1, ra2, wa, wd, we[0], use_ecc=use_ecc)
    nl.add_output("rd1", outs.rdata1)
    nl.add_output("rd2", outs.rdata2)
    validate(nl)
    nl.freeze()
    return nl


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "ecc"])
def rf(request):
    nl = _regfile_netlist(request.param)
    return request.param, nl, CycleSimulator(nl)


def _reset_state(sim):
    return np.array([d.init for d in sim.netlist.dffs], dtype=np.uint8)


def _clock(sim, state, inputs):
    """One clock edge outside any environment: settle *inputs* on *state*
    and return the state the DFFs latch."""
    sim.evaluate_combinational(inputs, state)
    return sim.values[[d.d for d in sim.netlist.dffs]].copy()


def _write(sim, state, addr, value):
    inputs = {"wa": addr, "wd": value, "we": 1, "ra1": 0, "ra2": 0}
    return _clock(sim, state, inputs)


def test_write_read_all_registers(rf):
    use_ecc, nl, sim = rf
    state = _reset_state(sim)
    values = {r: (0xA5A50000 + r * 0x1111) & 0xFFFFFFFF for r in range(1, 16)}
    for reg, value in values.items():
        state = _write(sim, state, reg, value)
    for reg, value in values.items():
        out = sim.evaluate_combinational(
            {"ra1": reg, "ra2": (reg + 1) % 16, "we": 0}, state
        )
        assert out["rd1"] == value, (use_ecc, reg)


def test_x0_reads_zero_and_ignores_writes(rf):
    use_ecc, nl, sim = rf
    state = _write(sim, _reset_state(sim), 0, 0xFFFFFFFF)
    out = sim.evaluate_combinational({"ra1": 0, "ra2": 0, "we": 0}, state)
    assert out["rd1"] == 0 and out["rd2"] == 0


def test_write_enable_gates_writes(rf):
    use_ecc, nl, sim = rf
    state = _write(sim, _reset_state(sim), 5, 123)
    # we=0: no state change even with write data applied
    next_state = _clock(
        sim, state, {"wa": 5, "wd": 999, "we": 0, "ra1": 5, "ra2": 0}
    )
    assert np.array_equal(next_state, state)


def test_both_read_ports_independent(rf):
    use_ecc, nl, sim = rf
    state = _write(sim, _reset_state(sim), 3, 333)
    state = _write(sim, state, 7, 777)
    out = sim.evaluate_combinational({"ra1": 3, "ra2": 7, "we": 0}, state)
    assert (out["rd1"], out["rd2"]) == (333, 777)


def test_ecc_regfile_corrects_any_single_storage_flip():
    """Flip each stored bit of a register: reads must still be correct."""
    nl = _regfile_netlist(True)
    sim = CycleSimulator(nl)
    base = _write(sim, _reset_state(sim), 4, 0xDEADBEEF)
    reg4 = [d for d in nl.dffs if d.name.startswith("core.regfile.x4[")]
    assert len(reg4) == ecc.CODE_BITS
    for dff in reg4:
        state = base.copy()
        state[dff.index] ^= 1
        out = sim.evaluate_combinational({"ra1": 4, "ra2": 4, "we": 0}, state)
        assert out["rd1"] == 0xDEADBEEF, dff.name
        assert out["rd2"] == 0xDEADBEEF, dff.name


def test_plain_regfile_exposes_single_storage_flip():
    nl = _regfile_netlist(False)
    sim = CycleSimulator(nl)
    base = _write(sim, _reset_state(sim), 4, 0xDEADBEEF)
    reg4 = [d for d in nl.dffs if d.name.startswith("core.regfile.x4[")]
    assert len(reg4) == 32
    state = base.copy()
    state[reg4[0].index] ^= 1
    out = sim.evaluate_combinational({"ra1": 4, "ra2": 0, "we": 0}, state)
    assert out["rd1"] == 0xDEADBEEF ^ 1


def test_ecc_regfile_double_flip_escapes():
    """Two stored-bit flips defeat SEC — the ACE-compounding mechanism."""
    nl = _regfile_netlist(True)
    sim = CycleSimulator(nl)
    base = _write(sim, _reset_state(sim), 4, 0xDEADBEEF)
    reg4 = [d for d in nl.dffs if d.name.startswith("core.regfile.x4[")]
    state = base.copy()
    state[reg4[0].index] ^= 1
    state[reg4[1].index] ^= 1
    out = sim.evaluate_combinational({"ra1": 4, "ra2": 0, "we": 0}, state)
    assert out["rd1"] != 0xDEADBEEF


# ----------------------------------------------------------------------
# LSU
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lsu_sim():
    nl = Netlist()
    issue = nl.add_input("issue", 1)
    is_store = nl.add_input("is_store", 1)
    addr = nl.add_input("addr", 32)
    wdata = nl.add_input("wdata", 32)
    funct3 = nl.add_input("funct3", 3)
    rdata_in = nl.add_input("dmem_rdata", 32)
    with nl.scope("core"):
        outs = build_lsu(
            nl, issue[0], is_store[0], addr, wdata, funct3, rdata_in
        )
    nl.add_output("req", outs.req_q)
    nl.add_output("we", outs.we_q)
    nl.add_output("addr_q", outs.addr_q)
    nl.add_output("wdata_q", outs.wdata_q)
    nl.add_output("be_q", outs.be_q)
    nl.add_output("rdata", outs.rdata)
    validate(nl)
    nl.freeze()
    return CycleSimulator(nl)


def _issue(lsu_sim, is_store, addr, wdata, funct3):
    return _clock(lsu_sim, _reset_state(lsu_sim), {
        "issue": 1, "is_store": is_store, "addr": addr,
        "wdata": wdata, "funct3": funct3, "dmem_rdata": 0,
    })


@pytest.mark.parametrize(
    "funct3,addr,wdata,be,stored",
    [
        (0b010, 0x100, 0x11223344, 0b1111, 0x11223344),       # sw
        (0b001, 0x100, 0x0000BEEF, 0b0011, 0x0000BEEF),       # sh low
        (0b001, 0x102, 0x0000BEEF, 0b1100, 0xBEEF0000),       # sh high
        (0b000, 0x101, 0x000000AB, 0b0010, 0x0000AB00),       # sb lane 1
        (0b000, 0x103, 0x000000AB, 0b1000, 0xAB000000),       # sb lane 3
    ],
)
def test_store_alignment_and_byte_enables(lsu_sim, funct3, addr, wdata, be, stored):
    state = _issue(lsu_sim, 1, addr, wdata, funct3)
    out = lsu_sim.evaluate_combinational({"issue": 0, "dmem_rdata": 0}, state)
    assert out["req"] == 1 and out["we"] == 1
    assert out["addr_q"] == addr & ~3
    assert out["be_q"] == be
    assert out["wdata_q"] == stored


@pytest.mark.parametrize(
    "funct3,addr,bus_word,expected",
    [
        (0b010, 0x200, 0x11223344, 0x11223344),   # lw
        (0b000, 0x201, 0x114283F4, 0xFFFFFF83),   # lb (negative byte)
        (0b100, 0x201, 0x114283F4, 0x00000083),   # lbu
        (0b001, 0x202, 0x91223344, 0xFFFF9122),   # lh (negative half)
        (0b101, 0x202, 0x91223344, 0x00009122),   # lhu
        (0b000, 0x203, 0x7F223344, 0x0000007F),   # lb positive, lane 3
    ],
)
def test_load_extraction(lsu_sim, funct3, addr, bus_word, expected):
    state = _issue(lsu_sim, 0, addr, 0, funct3)
    out = lsu_sim.evaluate_combinational(
        {"issue": 0, "dmem_rdata": bus_word}, state
    )
    assert out["req"] == 1 and out["we"] == 0
    assert out["rdata"] == expected


def test_req_clears_after_response_cycle(lsu_sim):
    state = _issue(lsu_sim, 0, 0x100, 0, 0b010)
    # One more cycle with issue=0: req_q must drop.
    state = _clock(lsu_sim, state, {"issue": 0, "dmem_rdata": 0})
    out = lsu_sim.evaluate_combinational({"issue": 0}, state)
    assert out["req"] == 0
