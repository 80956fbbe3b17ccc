"""Mini-Liberty library format and the built-in default library."""

import pytest

from repro.netlist.cells import CellKind
from repro.timing.liberty import (
    NANGATE45ISH,
    CellTiming,
    dump_library,
    parse_library,
)


def test_default_library_complete():
    for kind in CellKind:
        assert kind in NANGATE45ISH.cells
        timing = NANGATE45ISH.cells[kind]
        assert timing.intrinsic_ps > 0
        assert timing.load_ps_per_fanout >= 0


def test_cell_delay_includes_load():
    timing = CellTiming(intrinsic_ps=10.0, load_ps_per_fanout=2.0)
    assert timing.delay(1) == 12.0
    assert timing.delay(4) == 18.0
    # Zero fan-out still drives at least one equivalent load.
    assert timing.delay(0) == 12.0


def test_relative_speeds_sensible():
    """NAND faster than AND (an AND is NAND+INV); XOR slower than NAND."""
    c = NANGATE45ISH.cells
    assert c[CellKind.NAND2].intrinsic_ps < c[CellKind.AND2].intrinsic_ps
    assert c[CellKind.XOR2].intrinsic_ps > c[CellKind.NAND2].intrinsic_ps


def test_dump_parse_roundtrip():
    text = dump_library(NANGATE45ISH)
    parsed = parse_library(text)
    assert parsed.name == NANGATE45ISH.name
    assert parsed.dff_clk_to_q_ps == NANGATE45ISH.dff_clk_to_q_ps
    for kind in CellKind:
        assert parsed.cells[kind] == NANGATE45ISH.cells[kind]


def test_parse_custom_library():
    text = """
    library(test45) {
        dff { clk_to_q: 80; }
        cell(BUF)   { intrinsic: 20; load: 3; }
        cell(NOT)   { intrinsic: 10; load: 2; }
        cell(AND2)  { intrinsic: 30; load: 4; }
        cell(OR2)   { intrinsic: 31; load: 4; }
        cell(NAND2) { intrinsic: 15; load: 3; }
        cell(NOR2)  { intrinsic: 17; load: 3; }
        cell(XOR2)  { intrinsic: 45; load: 5; }
        cell(XNOR2) { intrinsic: 47; load: 5; }
        cell(MUX2)  { intrinsic: 55; load: 6; }
    }
    """
    lib = parse_library(text)
    assert lib.name == "test45"
    assert lib.dff_clk_to_q_ps == 80
    assert lib.cell_delay(CellKind.AND2, 2) == 30 + 2 * 4


def test_parse_missing_cell_rejected():
    text = "library(x) { cell(AND2) { intrinsic: 1; } }"
    with pytest.raises(ValueError, match="missing cells"):
        parse_library(text)


def test_parse_unknown_cell_rejected():
    text = "library(x) { cell(AND9) { intrinsic: 1; } }"
    with pytest.raises(ValueError, match="unknown cell kind"):
        parse_library(text)


def test_parse_no_library_block():
    with pytest.raises(ValueError, match="no library"):
        parse_library("cell(AND2) {}")


def test_parse_missing_intrinsic():
    text = "library(x) { cell(AND2) { load: 1; } }"
    with pytest.raises(ValueError, match="missing 'intrinsic'"):
        parse_library(text)
