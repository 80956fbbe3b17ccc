"""Hamming(38,32) SEC: software model and gate-level implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import comb_harness, decode_word, encode_word
from repro.soc import ecc

u32 = st.integers(0, 0xFFFFFFFF)


def test_layout_constants():
    assert len(ecc.DATA_POSITIONS) == 32
    assert len(ecc.PARITY_POSITIONS) == 6
    assert set(ecc.DATA_POSITIONS).isdisjoint(ecc.PARITY_POSITIONS)
    assert max(ecc.DATA_POSITIONS) <= 63


@settings(max_examples=80)
@given(data=u32)
def test_clean_codeword_decodes_identically(data):
    code = encode_word(data)
    decoded, syndrome = decode_word(code)
    assert syndrome == 0
    assert decoded == data


@settings(max_examples=80)
@given(data=u32, bit=st.integers(0, ecc.CODE_BITS - 1))
def test_single_error_corrected(data, bit):
    """The paper's SEC property: any single stored-bit flip is corrected."""
    code = encode_word(data) ^ (1 << bit)
    decoded, syndrome = decode_word(code)
    assert syndrome != 0
    assert decoded == data


@settings(max_examples=40)
@given(
    data=u32,
    bits=st.sets(st.integers(0, ecc.CODE_BITS - 1), min_size=2, max_size=2),
)
def test_double_error_not_corrected(data, bits):
    """No DED: double errors mis-correct (or alias) — the compounding root.

    When at least one of the two flips hits a *data* bit, SEC can never
    recover the word (the syndrome points elsewhere).  Two parity-bit flips
    leave the data intact, which is also not a correction failure.
    """
    code = encode_word(data)
    for bit in bits:
        code ^= 1 << bit
    decoded, syndrome = decode_word(code)
    assert syndrome != 0  # SEC always sees *something*...
    if any(bit < ecc.DATA_BITS for bit in bits):
        assert decoded != data  # ...but the decode is wrong


@pytest.fixture(scope="module")
def encoder_sim():
    def build(nl):
        data = nl.add_input("d", 32)
        nl.add_output("p", ecc.build_encoder(nl, data))

    return comb_harness(build)


@pytest.fixture(scope="module")
def corrector_sim():
    def build(nl):
        code = nl.add_input("c", ecc.CODE_BITS)
        nl.add_output("d", ecc.build_corrector(nl, code))

    return comb_harness(build)


@settings(max_examples=40)
@given(data=u32)
def test_gate_encoder_matches_software(encoder_sim, data):
    parity = encoder_sim.evaluate_combinational({"d": data})["p"]
    assert parity == encode_word(data) >> 32


@settings(max_examples=40)
@given(data=u32, flip=st.integers(-1, ecc.CODE_BITS - 1))
def test_gate_corrector_matches_software(corrector_sim, data, flip):
    code = encode_word(data)
    if flip >= 0:
        code ^= 1 << flip
    hw = corrector_sim.evaluate_combinational({"c": code})["d"]
    sw, _ = decode_word(code)
    assert hw == sw
    # A single error (or none) is always corrected back to the original data.
    assert hw == data
