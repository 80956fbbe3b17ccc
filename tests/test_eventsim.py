"""Timing-aware event simulator: settle-equivalence, injection, oracles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ScriptedEnv, frontier_walk_errors, random_circuit
from repro.netlist.cells import CellKind
from repro.netlist.netlist import Netlist, PinType, SinkPin, Wire
from repro.netlist.validate import validate
from repro.sim.cyclesim import CycleSimulator
from repro.sim.eventsim import SETTLE_MARGIN, EventSimulator, value_at
from repro.timing.liberty import NANGATE45ISH
from repro.timing.sta import StaticTiming


def _setup(seed):
    nl = random_circuit(seed, num_inputs=6, num_gates=70, num_dffs=6)
    sta = StaticTiming(nl, NANGATE45ISH)
    return nl, sta, EventSimulator(nl, sta), CycleSimulator(nl)


def test_value_at():
    changes = [(10.0, 1), (20.0, 0), (30.0, 1)]
    assert value_at(0, changes, 5.0) == 0
    assert value_at(0, changes, 10.0) == 1
    assert value_at(0, changes, 25.0) == 0
    assert value_at(0, changes, 1000.0) == 1
    assert value_at(1, [], 50.0) == 1


@pytest.mark.parametrize("seed", range(8))
def test_fault_free_final_matches_cycle_sim(seed):
    nl, sta, ev, sim = _setup(seed)
    script = [{"in": (i * 19 + seed) & 0x3F} for i in range(12)]
    env = ScriptedEnv(script)
    sim.reset(env)
    for _ in range(10):
        ckpt = sim.checkpoint()
        sim.step()
        waves = ev.simulate_cycle(ckpt.prev_settled, ckpt.dff_values, ckpt.input_values)
        assert np.array_equal(waves.final, sim.prev_settled)


@pytest.mark.parametrize("seed", range(6))
def test_resimulate_matches_bruteforce(seed):
    """The incremental cone re-simulation equals full faulty simulation."""
    nl, sta, ev, sim = _setup(seed)
    script = [{"in": (i * 13 + 7 * seed) & 0x3F} for i in range(8)]
    env = ScriptedEnv(script)
    sim.reset(env)
    wires = nl.all_wires()
    for cycle in range(6):
        ckpt = sim.checkpoint()
        sim.step()
        waves = ev.simulate_cycle(ckpt.prev_settled, ckpt.dff_values, ckpt.input_values)
        for wire in wires[:: max(1, len(wires) // 25)]:
            for frac in (0.3, 0.8):
                extra = frac * sta.clock_period
                incremental = ev.resimulate(waves, wire, extra)
                brute = ev.simulate_cycle_with_fault(
                    ckpt.prev_settled, ckpt.dff_values, ckpt.input_values,
                    wire, extra,
                )
                assert incremental == brute, (cycle, wire, frac)


@pytest.mark.parametrize("seed", range(6))
def test_resimulate_batch_matches_scalar(seed):
    """The shared-cone batched path is verdict-exact vs the reference walk."""
    nl, sta, ev, sim = _setup(seed)
    script = [{"in": (i * 17 + 3 * seed) & 0x3F} for i in range(8)]
    env = ScriptedEnv(script)
    sim.reset(env)
    wires = nl.all_wires()
    fractions = (0.2, 0.5, 0.8, 0.95)
    for cycle in range(5):
        ckpt = sim.checkpoint()
        sim.step()
        waves = ev.simulate_cycle(
            ckpt.prev_settled, ckpt.dff_values, ckpt.input_values
        )
        sample = wires[:: max(1, len(wires) // 30)]
        injections = [
            (wire, frac * sta.clock_period)
            for wire in sample
            for frac in fractions
        ]
        batched = ev.resimulate_batch(waves, injections)
        for (wire, extra), batch_errors in zip(injections, batched):
            reference = frontier_walk_errors(ev, waves, wire, extra)
            assert batch_errors == reference, (
                cycle,
                wire,
                extra,
            )
    assert ev.batch_resims > 0


def test_resimulate_batch_groups_share_cones():
    """Same-sink injections reuse one ConeIndex entry across batches."""
    nl, sta, ev, sim = _setup(3)
    env = ScriptedEnv([{"in": (i * 11 + 5) & 0x3F} for i in range(6)])
    sim.reset(env)
    sim.step()
    sim.step()
    ckpt = sim.checkpoint()
    sim.step()
    waves = ev.simulate_cycle(
        ckpt.prev_settled, ckpt.dff_values, ckpt.input_values
    )
    toggling = [
        w
        for w in nl.all_wires()
        if w.sink.pin_type is PinType.CELL_IN and waves.toggles(w.net)
    ]
    assert toggling
    wire = toggling[0]
    injections = [(wire, f * sta.clock_period) for f in (0.3, 0.6, 0.9)]
    ev.resimulate_batch(waves, injections)
    builds = ev.cone_index.builds
    assert builds >= 1
    # A second batch on the same sink must hit the cone cache, not rebuild.
    ev.resimulate_batch(waves, [(wire, 0.45 * sta.clock_period)])
    assert ev.cone_index.builds == builds
    assert ev.cone_index.hits >= 1


def test_non_toggling_source_yields_empty_set():
    nl, sta, ev, sim = _setup(1)
    env = ScriptedEnv([{"in": 0x15}])  # constant inputs
    sim.reset(env)
    sim.step()
    ckpt = sim.checkpoint()
    sim.step()
    waves = ev.simulate_cycle(ckpt.prev_settled, ckpt.dff_values, ckpt.input_values)
    for wire in nl.all_wires():
        if not waves.toggles(wire.net):
            assert ev.resimulate(waves, wire, 0.9 * sta.clock_period) == {}


def test_outport_wire_never_errors():
    nl, sta, ev, sim = _setup(2)
    env = ScriptedEnv([{"in": (i * 3) & 0x3F} for i in range(5)])
    sim.reset(env)
    ckpt = sim.checkpoint()
    sim.step()
    waves = ev.simulate_cycle(ckpt.prev_settled, ckpt.dff_values, ckpt.input_values)
    outport_wires = [
        w for w in nl.all_wires() if w.sink.pin_type is PinType.OUTPORT
    ]
    assert outport_wires
    for wire in outport_wires:
        assert ev.resimulate(waves, wire, 0.95 * sta.clock_period) == {}


def test_huge_delay_on_toggling_direct_dff_wire_errors():
    """A nearly-full-cycle delay on a toggling DFF input must corrupt it."""
    nl = Netlist()
    a = nl.add_input("a", 1)[0]
    inv = nl.add_cell(CellKind.NOT, [a])
    dff = nl.add_dff("r")
    nl.connect_d(dff, inv)
    nl.add_output("o", [dff.q])
    validate(nl)
    nl.freeze()
    sta = StaticTiming(nl, NANGATE45ISH)
    ev = EventSimulator(nl, sta)
    sim = CycleSimulator(nl)
    env = ScriptedEnv([{"a": 0}, {"a": 1}, {"a": 0}, {"a": 1}])
    sim.reset(env)
    sim.step()
    ckpt = sim.checkpoint()
    sim.step()
    waves = ev.simulate_cycle(ckpt.prev_settled, ckpt.dff_values, ckpt.input_values)
    assert waves.toggles(inv)
    wire = Wire(inv, SinkPin(PinType.DFF_D, dff.index, 0))
    errors = ev.resimulate(waves, wire, 0.99 * sta.clock_period)
    assert errors == {dff.index: int(waves.initial[inv])}


def test_small_delay_produces_no_error():
    """Delays that keep every path under the period never corrupt state."""
    nl, sta, ev, sim = _setup(4)
    script = [{"in": (i * 19) & 0x3F} for i in range(6)]
    env = ScriptedEnv(script)
    sim.reset(env)
    for _ in range(4):
        ckpt = sim.checkpoint()
        sim.step()
        waves = ev.simulate_cycle(ckpt.prev_settled, ckpt.dff_values, ckpt.input_values)
        for wire in nl.all_wires()[::7]:
            slack = sta.clock_period - sta.max_path_through(wire)
            if slack == float("inf") or slack <= 0:
                continue
            errors = ev.resimulate(waves, wire, slack * 0.5)
            assert errors == {}, (wire, slack)


def test_dynamic_subset_of_static():
    nl, sta, ev, sim = _setup(5)
    script = [{"in": (i * 23 + 1) & 0x3F} for i in range(8)]
    env = ScriptedEnv(script)
    sim.reset(env)
    for _ in range(6):
        ckpt = sim.checkpoint()
        sim.step()
        waves = ev.simulate_cycle(ckpt.prev_settled, ckpt.dff_values, ckpt.input_values)
        for wire in nl.all_wires()[::5]:
            for frac in (0.5, 0.9):
                extra = frac * sta.clock_period
                dyn = ev.resimulate(waves, wire, extra)
                static = sta.statically_reachable(wire, extra)
                assert set(dyn) <= static


def test_waveform_changes_are_time_ordered_and_toggling():
    nl, sta, ev, sim = _setup(6)
    env = ScriptedEnv([{"in": (i * 31) & 0x3F} for i in range(4)])
    sim.reset(env)
    ckpt = sim.checkpoint()
    sim.step()
    waves = ev.simulate_cycle(ckpt.prev_settled, ckpt.dff_values, ckpt.input_values)
    for net, changes in waves.changes.items():
        times = [t for t, _ in changes]
        assert times == sorted(times)
        seq = [int(waves.initial[net])] + [v for _, v in changes]
        assert all(a != b for a, b in zip(seq, seq[1:])), "non-toggle recorded"
        assert seq[-1] == int(waves.final[net])


def test_settled_source_skip_matches_bruteforce(strstr_engine):
    """Every injection the settled-source skip answers latches nothing.

    On sampled IbexMini cycles, cell-pin injections from all five structures
    run through the batch: the ones the skip answers at d = 0.5 / 0.9, one
    per wire built to settle two margins before capture (the tightest the
    skip may take), and one built to settle half a margin before it, which
    must still reach the cone pass.  Full faulty-cycle simulation is the
    oracle for all of them.
    """
    session = strstr_engine.session
    system = session.system
    ev, sta = system.event_sim, system.sta
    period = sta.clock_period
    rng = random.Random(5)
    structures = ("alu", "decoder", "regfile", "lsu", "prefetch")
    for cycle in session.sampled_cycles[:2]:
        waves = session.waveforms(cycle)
        ckpt = session.checkpoint(cycle)
        skipped, edge = [], []
        for structure in structures:
            wires = [
                wire for wire in system.structure_wires(structure)
                if wire.sink.pin_type is PinType.CELL_IN
                and wire.net in waves.changes
                and sta.max_path_through(wire) > float("-inf")
            ]
            for wire in rng.sample(wires, min(2, len(wires))):
                cell = wire.sink.owner
                settle = (
                    waves.changes[wire.net][-1][0] + sta.cell_delay[cell]
                    + sta.downstream[system.netlist.cell_outputs[cell]]
                )
                skipped += [
                    (wire, frac * period) for frac in (0.5, 0.9)
                    if ev.source_settles(waves, wire, frac * period)
                ]
                skipped.append((wire, period - 2 * SETTLE_MARGIN - settle))
                edge.append((wire, period - SETTLE_MARGIN / 2 - settle))
        for group, skip in ((skipped, True), (edge, False)):
            skips, lanes = ev.slack_skips, ev.batch_resims
            answers = ev.resimulate_batch(waves, group)
            assert ev.slack_skips - skips == (len(group) if skip else 0)
            assert ev.batch_resims - lanes == (0 if skip else len(group))
            for (wire, extra), errors in zip(group, answers):
                assert errors == ev.simulate_cycle_with_fault(
                    ckpt.prev_settled, ckpt.dff_values, ckpt.input_values,
                    wire, extra,
                ), (cycle, wire, extra)
