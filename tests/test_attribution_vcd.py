"""Instruction attribution and VCD export."""

import io

import pytest

from repro.core.attribution import InstructionAttributor
from repro.isa.disasm import disassemble
from repro.sim.vcd import VcdWriter, dump_cycle_trace, dump_cycle_waveforms


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def test_debug_probes_exposed(system):
    assert set(system.debug_probes) >= {"head_valid", "head_pc", "head_instr"}
    assert len(system.debug_probes["head_pc"]) == 32
    assert len(system.debug_probes["head_instr"]) == 32


def test_context_matches_program_text(strstr_engine, strstr_program):
    attributor = InstructionAttributor(strstr_engine.session)
    seen_valid = 0
    for cycle in strstr_engine.session.sampled_cycles:
        context = attributor.context_of_cycle(cycle)
        if not context.valid:
            assert context.text == "<bubble>"
            continue
        seen_valid += 1
        # The fetched instruction must be the program word at that PC.
        assert context.instr == strstr_program.word_at(context.pc), hex(context.pc)
        assert context.text == disassemble(context.instr, context.pc)
    assert seen_valid > 0


def test_contexts_cached(strstr_engine):
    attributor = InstructionAttributor(strstr_engine.session)
    cycle = strstr_engine.session.sampled_cycles[0]
    assert attributor.context_of_cycle(cycle) is attributor.context_of_cycle(cycle)


def test_attribute_aggregates_by_pc(strstr_engine):
    result = strstr_engine.run_structure("alu", max_wires=8, seed=9)
    records = [
        r for per_delay in result.by_delay.values() for r in per_delay.records
    ]
    attributor = InstructionAttributor(strstr_engine.session)
    rows = attributor.attribute(records)
    assert sum(row.injections for row in rows) == len(records)
    assert all(0.0 <= row.delay_ace_rate <= 1.0 for row in rows)
    # Rows are sorted most-vulnerable first.
    failures = [row.failures for row in rows]
    assert failures == sorted(failures, reverse=True)


def test_attributor_requires_probes(strstr_engine):
    class NoProbes:
        debug_probes = {}

    session = strstr_engine.session
    original = session.system
    try:
        session.system = NoProbes()
        with pytest.raises(ValueError, match="debug probes"):
            InstructionAttributor(session)
    finally:
        session.system = original


# ----------------------------------------------------------------------
# VCD
# ----------------------------------------------------------------------
def test_vcd_header_and_changes(system):
    stream = io.StringIO()
    nets = system.debug_probes["head_pc"][:4]
    writer = VcdWriter(stream, system.netlist, nets)
    writer.emit(0, {net: 0 for net in nets})
    writer.emit(5, {nets[0]: 1})
    writer.emit(7, {nets[0]: 1})  # no change -> no emission
    text = stream.getvalue()
    assert "$timescale" in text and "$enddefinitions" in text
    assert text.count("$var wire 1 ") == 4
    assert "#5" in text and "#7" not in text


def test_dump_cycle_waveforms(strstr_engine):
    session = strstr_engine.session
    cycle = session.sampled_cycles[1]
    waves = session.waveforms(cycle)
    stream = io.StringIO()
    dump_cycle_waveforms(stream, session.system.netlist, waves)
    text = stream.getvalue()
    assert "$enddefinitions" in text
    assert "#0" in text
    # Some mid-cycle transition exists at a positive ps timestamp.
    assert any(
        line.startswith("#") and line != "#0" for line in text.splitlines()
    )


def test_dump_cycle_trace(system, strstr_program):
    stream = io.StringIO()
    nets = system.debug_probes["head_pc"][:8]
    cycles = dump_cycle_trace(stream, system, strstr_program, nets, max_cycles=50)
    assert cycles == 50
    text = stream.getvalue()
    assert text.count("$var") == 8
    assert "#1" in text
