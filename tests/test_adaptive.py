"""Adaptive precision-targeted campaigns and CI trustworthiness.

Uses a tiny Fibonacci workload (81 fault-free cycles) over the smallest ALU
sub-structure (``core.alu.cmp``, 146 wires) so a *full enumeration* of the
(wire, cycle) population is cheap: the brute-force DelayAVF is the ground
truth the sampled campaigns' confidence intervals are checked against.
"""

import pytest

from repro import api
from repro.core import campaign
from repro.core.campaign import CampaignConfig, DelayAVFEngine
from repro.isa.assembler import assemble
from repro.soc import memmap

STRUCTURE = "core.alu.cmp"
DELAY = 0.9

TINYFIB = f"""
    .org 0
    start:
        li a0, 0
        li a1, 1
        li a2, 8
        li a3, {memmap.OUTPUT_BASE}
    loop:
        add a4, a0, a1
        mv a0, a1
        mv a1, a4
        sw a1, 0(a3)
        addi a2, a2, -1
        bnez a2, loop
        li a5, {memmap.HALT_ADDR}
        sw a0, 0(a5)
    halt:
        j halt
"""

#: Laptop-instant sampled campaign: 24 wires x 8 cycles.
SAMPLED_CONFIG = CampaignConfig(
    cycle_count=8, max_wires=24, delay_fractions=(DELAY,),
    margin_cycles=80,
)


@pytest.fixture(scope="module")
def tinyfib():
    return assemble(TINYFIB, name="tinyfib")


@pytest.fixture(scope="module")
def true_delay_avf(system, tinyfib):
    """Brute-force ground truth: every wire at every post-warmup cycle."""
    config = CampaignConfig(
        cycle_count=None, cycle_fraction=1.0, max_wires=None,
        delay_fractions=(DELAY,), margin_cycles=80,
    )
    engine = DelayAVFEngine(system, tinyfib, config)
    result = engine.run_structure(STRUCTURE)
    wires = len(system.structure_wires(STRUCTURE))
    assert result.by_delay[DELAY].samples == wires * len(result.sampled_cycles)
    return result.delay_avf(DELAY)


def _engine(system, tinyfib, **overrides):
    import dataclasses

    config = dataclasses.replace(SAMPLED_CONFIG, **overrides)
    return DelayAVFEngine(system, tinyfib, config)


def test_bruteforce_avf_within_sampled_ci(system, tinyfib, true_delay_avf):
    """The acceptance criterion: the reported 95% CI covers the truth.

    The campaign samples *wires* and enumerates cycles (the paper's Fig. 7
    shape).  Sampling cycles instead would break the binomial coverage here:
    tinyfib's ACE injections cluster almost entirely at the output-commit
    cycle, and a sparse equally-spaced cycle grid either misses it entirely
    or over-weights it ~10x relative to the full population.
    """
    result = _engine(
        system, tinyfib, cycle_count=None, cycle_fraction=1.0, max_wires=24
    ).run_structure(STRUCTURE)
    ci = result.by_delay[DELAY].delay_avf_ci()
    assert ci.samples == result.by_delay[DELAY].samples
    assert ci.covers(true_delay_avf), (
        f"true DelayAVF {true_delay_avf} outside [{ci.lo}, {ci.hi}]"
    )


def test_adaptive_reaches_target(system, tinyfib):
    target = 0.02
    engine = _engine(system, tinyfib)
    result = engine.run_structure_adaptive(STRUCTURE, target)

    # Every reported interval meets the precision target.
    for delay_result in result.by_delay.values():
        assert delay_result.delay_avf_ci().half_width <= target
        assert delay_result.or_delay_avf_ci().half_width <= target
    assert result.telemetry.gauge("ci_half_width") <= target

    # The initial 24x8 wave cannot reach 0.02 alone, so refinement ran.
    assert result.telemetry.count("refinement_rounds") >= 1
    assert result.telemetry.count("extra_shards") >= 1

    # Zero duplicate injections: the evaluator ran exactly once per sample,
    # and the sample is a clean wires x cycles grid.
    total = sum(r.samples for r in result.by_delay.values())
    assert result.telemetry.count("injections") == total
    for delay_result in result.by_delay.values():
        keys = [(r.wire_index, r.cycle) for r in delay_result.records]
        assert len(keys) == len(set(keys))
        assert len(keys) == result.sampled_wires * len(result.sampled_cycles)

    # The refined estimate agrees with the refined interval's payload.
    summary = result.to_payload()["result"]["by_delay"][0]["summary"]
    assert summary["delay_avf_ci"]["samples"] == result.by_delay[DELAY].samples
    assert summary["delay_avf_ci"]["half_width"] <= target


def test_adaptive_stops_when_target_already_met(system, tinyfib):
    engine = _engine(system, tinyfib)
    result = engine.run_structure_adaptive(STRUCTURE, 0.2)
    assert result.telemetry.count("refinement_rounds") == 0
    assert result.telemetry.count("extra_shards") == 0
    # The initial wave is exactly a run_structure campaign.
    assert result.by_delay[DELAY].samples == 24 * 8


def test_adaptive_grows_cycles_when_wires_exhausted(system, tinyfib):
    # All 146 wires are sampled from the start, so precision can only come
    # from densifying the cycle sample (which forces the session to extend
    # its golden checkpoints mid-campaign).
    engine = _engine(system, tinyfib, max_wires=None, cycle_count=4)
    result = engine.run_structure_adaptive(STRUCTURE, 0.002)
    assert result.telemetry.count("refinement_rounds") >= 1
    assert len(result.sampled_cycles) > 4
    assert result.sampled_wires == len(system.structure_wires(STRUCTURE))
    for delay_result in result.by_delay.values():
        assert delay_result.delay_avf_ci().half_width <= 0.002
        keys = [(r.wire_index, r.cycle) for r in delay_result.records]
        assert len(keys) == len(set(keys))
        assert len(keys) == result.sampled_wires * len(result.sampled_cycles)
        # Refinement cycles actually produced records.
        new_cycles = set(result.sampled_cycles) - set(result.sampled_cycles[:4])
        assert new_cycles & {r.cycle for r in delay_result.records}


def test_adaptive_exhausts_population_and_stops(monkeypatch, system, tinyfib):
    # An unreachable target terminates by exhausting the population, and the
    # exhaustive refinement equals the brute-force campaign sample size.
    monkeypatch.setattr(campaign, "REFINE_MAX_ROUNDS", 20)
    monkeypatch.setattr(campaign, "REFINE_GROWTH", 8.0)
    engine = _engine(system, tinyfib, cycle_count=40, max_wires=None)
    result = engine.run_structure_adaptive(STRUCTURE, 1e-6)
    wires = len(system.structure_wires(STRUCTURE))
    usable = engine.session.total_cycles - campaign.WARMUP_CYCLES
    assert result.sampled_wires == wires
    assert len(result.sampled_cycles) == usable
    assert result.by_delay[DELAY].samples == wires * usable


def test_adaptive_rejects_bad_target(system, tinyfib):
    engine = _engine(system, tinyfib)
    with pytest.raises(ValueError):
        engine.run_structure_adaptive(STRUCTURE, 0.0)


def test_api_analyze_adaptive(tinyfib):
    try:
        result = api.analyze(
            STRUCTURE, tinyfib, config=SAMPLED_CONFIG, target_half_width=0.02
        )
    finally:
        api.shutdown()
    assert result.by_delay[DELAY].delay_avf_ci().half_width <= 0.02
    assert result.telemetry.count("refinement_rounds") >= 1
