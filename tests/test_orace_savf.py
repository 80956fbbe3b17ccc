"""ORACE / OrDelayAVF, ACE compounding on the ECC register file, and sAVF."""

import pytest

from repro.core.orace import SetVerdict
from repro.core.savf import SAVFEngine


def test_set_verdict_classification():
    assert SetVerdict(group_ace=True, or_ace=False).compounding
    assert not SetVerdict(group_ace=True, or_ace=False).interference
    assert SetVerdict(group_ace=False, or_ace=True).interference
    assert not SetVerdict(group_ace=False, or_ace=True).compounding
    agree = SetVerdict(group_ace=True, or_ace=True)
    assert not agree.interference and not agree.compounding


def test_singleton_orace_equals_group_ace(strstr_engine):
    """For |S| = 1, ORACE and GroupACE coincide by definition."""
    session = strstr_engine.session
    cycle = session.sampled_cycles[0]
    checkpoint = session.checkpoint(cycle)
    verdict = session.orace.verdict(checkpoint, {11: 1})
    assert verdict.group_ace == verdict.or_ace


def test_single_ace_cached(strstr_engine):
    session = strstr_engine.session
    cycle = session.sampled_cycles[0]
    checkpoint = session.checkpoint(cycle)
    session.orace.single_ace(checkpoint, 9, 1)
    runs = session.telemetry.count("group_ace_runs")
    session.orace.single_ace(checkpoint, 9, 1)
    assert session.telemetry.count("group_ace_runs") == runs


def _reg_bits(system, reg, count):
    bits = [
        d.index for d in system.netlist.dffs
        if d.name.startswith(f"core.regfile.x{reg}[")
    ]
    assert bits, f"register x{reg} not found"
    return bits[:count]


def test_ecc_compounding_on_live_register(ecc_strstr_engine, ecc_system):
    """The paper's Table III mechanism: on the SEC-ECC register file a
    multi-bit storage error is GroupACE while no member is individually ACE
    (every single-bit error is corrected) — ACE compounding."""
    session = ecc_strstr_engine.session
    # x9 holds the live output-base pointer in libstrstr.
    bits = _reg_bits(ecc_system, 9, 2)
    compounding_seen = False
    for cycle in session.sampled_cycles:
        checkpoint = session.checkpoint(cycle)
        overrides = {
            b: int(checkpoint.dff_values[b]) ^ 1 for b in bits
        }
        group = session.group_ace.outcome_of_state_errors(
            checkpoint, overrides, at_next_boundary=False
        ).is_failure
        singles = [
            session.group_ace.outcome_of_state_errors(
                checkpoint, {b: v}, at_next_boundary=False
            ).is_failure
            for b, v in overrides.items()
        ]
        # SEC corrects every single-bit storage error: never individually ACE.
        assert not any(singles)
        if group:
            compounding_seen = True
    assert compounding_seen


def test_savf_zero_on_ecc_regfile(ecc_strstr_engine):
    """Fig. 10 / Observation 5: SEC ECC drives the register file sAVF to 0."""
    engine = SAVFEngine(ecc_strstr_engine.session)
    result = engine.run_structure("regfile", max_bits=40, seed=3)
    assert result.samples > 0
    assert result.savf == 0.0


def test_savf_positive_on_plain_regfile(system, strstr_engine):
    engine = SAVFEngine(strstr_engine.session)
    # Sample the architecturally hot registers (x9/x10/x11 are live pointers
    # in libstrstr) so a small sample still contains ACE bits.
    hot_bits = [
        d for d in system.netlist.dffs
        if d.name.startswith(("core.regfile.x9[", "core.regfile.x10["))
    ]
    result = engine.run_structure("regfile", max_bits=24, seed=3)
    # The uniform sample may or may not hit live state; assert on a
    # hand-picked hot sample instead for the positivity property.
    session = strstr_engine.session
    ace = 0
    for cycle in session.sampled_cycles:
        checkpoint = session.checkpoint(cycle)
        for dff in hot_bits[:8]:
            flipped = int(checkpoint.dff_values[dff.index]) ^ 1
            outcome = session.group_ace.outcome_of_state_errors(
                checkpoint, {dff.index: flipped}, at_next_boundary=False
            )
            ace += outcome.is_failure
    assert ace > 0
    assert result.samples == 24 * len(session.sampled_cycles)
    assert result.ace_count == result.sdc_count + result.due_count


def test_savf_rejects_logic_only_structures(strstr_engine):
    engine = SAVFEngine(strstr_engine.session)
    with pytest.raises(ValueError, match="no state elements"):
        engine.run_structure("alu")


def test_savf_sampling_bounds(strstr_engine):
    engine = SAVFEngine(strstr_engine.session)
    result = engine.run_structure("lsu", max_bits=10, seed=1)
    assert result.samples == 10 * len(strstr_engine.session.sampled_cycles)
    assert 0.0 <= result.savf <= 1.0
