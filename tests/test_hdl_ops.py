"""Word-level HDL operators: elaborate, simulate, compare with Python."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import comb_harness
from repro.hdl.ops import (
    Reg,
    adder,
    band,
    bnot,
    bor,
    bxor,
    const_bus,
    decoder,
    eq,
    g_and,
    g_mux,
    g_not,
    g_or,
    g_xor,
    gate_bus,
    lt_signed,
    lt_unsigned,
    muxn,
    onehot_mux,
    reduce_and,
    reduce_or,
    reduce_xor,
    shifter,
    sign_extend,
    subtractor,
    zero_extend,
)
from repro.netlist.netlist import CONST0, CONST1, Netlist

WORD = 8
MASK = (1 << WORD) - 1
u8 = st.integers(0, MASK)


def _binary_harness(fn, out_width=WORD):
    def build(nl):
        a = nl.add_input("a", WORD)
        b = nl.add_input("b", WORD)
        nl.add_output("y", fn(nl, a, b))

    return comb_harness(build)


@settings(max_examples=60)
@given(a=u8, b=u8)
def test_adder(a, b):
    def build(nl):
        x = nl.add_input("a", WORD)
        y = nl.add_input("b", WORD)
        total, carry = adder(nl, x, y)
        nl.add_output("y", total + [carry])

    sim = comb_harness(build)
    assert sim.evaluate_combinational({"a": a, "b": b})["y"] == a + b


@settings(max_examples=60)
@given(a=u8, b=u8)
def test_adder_with_carry_in(a, b):
    def build(nl):
        x = nl.add_input("a", WORD)
        y = nl.add_input("b", WORD)
        total, carry = adder(nl, x, y, cin=CONST1)
        nl.add_output("y", total + [carry])

    sim = comb_harness(build)
    assert sim.evaluate_combinational({"a": a, "b": b})["y"] == a + b + 1


@settings(max_examples=60)
@given(a=u8, b=u8)
def test_subtractor(a, b):
    def build(nl):
        x = nl.add_input("a", WORD)
        y = nl.add_input("b", WORD)
        diff, borrow = subtractor(nl, x, y)
        nl.add_output("d", diff)
        nl.add_output("c", [borrow])

    sim = comb_harness(build)
    out = sim.evaluate_combinational({"a": a, "b": b})
    assert out["d"] == (a - b) & MASK
    assert out["c"] == (1 if a >= b else 0)


@settings(max_examples=40)
@given(a=u8, b=u8)
def test_bitwise_ops(a, b):
    def build(nl):
        x = nl.add_input("a", WORD)
        y = nl.add_input("b", WORD)
        nl.add_output("and", band(nl, x, y))
        nl.add_output("or", bor(nl, x, y))
        nl.add_output("xor", bxor(nl, x, y))
        nl.add_output("not", bnot(nl, x))

    sim = comb_harness(build)
    out = sim.evaluate_combinational({"a": a, "b": b})
    assert out["and"] == a & b
    assert out["or"] == a | b
    assert out["xor"] == a ^ b
    assert out["not"] == (~a) & MASK


@settings(max_examples=40)
@given(a=u8, b=u8)
def test_comparisons(a, b):
    def build(nl):
        x = nl.add_input("a", WORD)
        y = nl.add_input("b", WORD)
        nl.add_output("eq", [eq(nl, x, y)])
        nl.add_output("ltu", [lt_unsigned(nl, x, y)])
        nl.add_output("lts", [lt_signed(nl, x, y)])

    sim = comb_harness(build)
    out = sim.evaluate_combinational({"a": a, "b": b})
    sa = a - 256 if a & 0x80 else a
    sb = b - 256 if b & 0x80 else b
    assert out["eq"] == (1 if a == b else 0)
    assert out["ltu"] == (1 if a < b else 0)
    assert out["lts"] == (1 if sa < sb else 0)


@settings(max_examples=40)
@given(a=u8, amount=st.integers(0, WORD - 1), mode=st.sampled_from(["sll", "srl", "sra"]))
def test_shifter(a, amount, mode):
    def build(nl):
        x = nl.add_input("a", WORD)
        amt = nl.add_input("amt", 3)
        nl.add_output("y", shifter(nl, x, amt, mode))

    sim = comb_harness(build)
    out = sim.evaluate_combinational({"a": a, "amt": amount})["y"]
    if mode == "sll":
        expected = (a << amount) & MASK
    elif mode == "srl":
        expected = a >> amount
    else:
        sa = a - 256 if a & 0x80 else a
        expected = (sa >> amount) & MASK
    assert out == expected


def test_shifter_bad_mode():
    nl = Netlist()
    a = nl.add_input("a", 4)
    amt = nl.add_input("amt", 2)
    with pytest.raises(ValueError, match="unknown shift mode"):
        shifter(nl, a, amt, "rol")


@settings(max_examples=30)
@given(sel=st.integers(0, 3), values=st.lists(u8, min_size=4, max_size=4))
def test_muxn(sel, values):
    def build(nl):
        s = nl.add_input("sel", 2)
        options = [const_bus(nl, v, WORD) for v in values]
        nl.add_output("y", muxn(nl, s, options))

    sim = comb_harness(build)
    assert sim.evaluate_combinational({"sel": sel})["y"] == values[sel]


def test_muxn_pads_options():
    def build(nl):
        s = nl.add_input("sel", 2)
        options = [const_bus(nl, v, 4) for v in (1, 2, 3)]  # only 3 of 4
        nl.add_output("y", muxn(nl, s, options))

    sim = comb_harness(build)
    assert sim.evaluate_combinational({"sel": 3})["y"] == 3  # clamped to last


@settings(max_examples=20)
@given(sel=st.integers(0, 7))
def test_decoder(sel):
    def build(nl):
        s = nl.add_input("sel", 3)
        nl.add_output("y", decoder(nl, s))

    sim = comb_harness(build)
    assert sim.evaluate_combinational({"sel": sel})["y"] == 1 << sel


@settings(max_examples=20)
@given(hot=st.integers(0, 3), values=st.lists(u8, min_size=4, max_size=4))
def test_onehot_mux(hot, values):
    def build(nl):
        onehot = nl.add_input("hot", 4)
        options = [const_bus(nl, v, WORD) for v in values]
        nl.add_output("y", onehot_mux(nl, onehot, options))

    sim = comb_harness(build)
    assert sim.evaluate_combinational({"hot": 1 << hot})["y"] == values[hot]


@settings(max_examples=30)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=9))
def test_reductions(bits):
    width = len(bits)
    word = sum(b << i for i, b in enumerate(bits))

    def build(nl):
        x = nl.add_input("x", width)
        nl.add_output("or", [reduce_or(nl, x)])
        nl.add_output("and", [reduce_and(nl, x)])
        nl.add_output("xor", [reduce_xor(nl, x)])

    sim = comb_harness(build)
    out = sim.evaluate_combinational({"x": word})
    assert out["or"] == int(any(bits))
    assert out["and"] == int(all(bits))
    assert out["xor"] == sum(bits) % 2


def test_extensions():
    def build(nl):
        x = nl.add_input("x", 4)
        nl.add_output("z", zero_extend(nl, x, 8))
        nl.add_output("s", sign_extend(nl, x, 8))

    sim = comb_harness(build)
    out = sim.evaluate_combinational({"x": 0b1010})
    assert out["z"] == 0b00001010
    assert out["s"] == 0b11111010


def test_constant_folding_creates_no_gates():
    nl = Netlist()
    a = nl.add_input("a", 1)[0]
    before = nl.num_cells
    assert g_and(nl, a, CONST0) == CONST0
    assert g_and(nl, a, CONST1) == a
    assert g_or(nl, a, CONST1) == CONST1
    assert g_xor(nl, a, CONST0) == a
    assert g_mux(nl, CONST1, CONST0, a) == a
    assert g_mux(nl, a, CONST0, CONST1) == a  # mux as wire
    assert nl.num_cells == before


def test_not_cache_shares_inverters():
    nl = Netlist()
    a = nl.add_input("a", 1)[0]
    assert g_not(nl, a) == g_not(nl, a)
    assert g_not(nl, g_not(nl, a)) != a  # no double-negation folding, but...
    # double inversion is still logically a, verified by simulation elsewhere


def test_gate_bus():
    def build(nl):
        x = nl.add_input("x", 4)
        en = nl.add_input("en", 1)
        nl.add_output("y", gate_bus(nl, x, en[0]))

    sim = comb_harness(build)
    assert sim.evaluate_combinational({"x": 0xF, "en": 0})["y"] == 0
    assert sim.evaluate_combinational({"x": 0xA, "en": 1})["y"] == 0xA


def test_reg_requires_single_connection():
    nl = Netlist()
    reg = Reg(nl, "r", 4)
    reg.set(const_bus(nl, 5, 4))
    with pytest.raises(ValueError, match="already connected"):
        reg.set(const_bus(nl, 1, 4))


def test_reg_width_mismatch():
    nl = Netlist()
    reg = Reg(nl, "r", 4)
    with pytest.raises(ValueError, match="width mismatch"):
        reg.set(const_bus(nl, 0, 3))


def test_bus_width_mismatch_rejected():
    nl = Netlist()
    a = nl.add_input("a", 4)
    b = nl.add_input("b", 5)
    with pytest.raises(ValueError, match="width mismatch"):
        band(nl, a, b)
