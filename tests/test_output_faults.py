"""Gate-output (whole-net) SDFs — §IV-A's 'additional wire x' model."""

import pytest

from helpers import ScriptedEnv, random_circuit
from repro.netlist.netlist import PinType, Wire
from repro.sim.cyclesim import CycleSimulator
from repro.sim.eventsim import EventSimulator
from repro.timing.liberty import NANGATE45ISH
from repro.timing.sta import StaticTiming


def _setup(seed):
    nl = random_circuit(seed, num_inputs=6, num_gates=70, num_dffs=6)
    sta = StaticTiming(nl, NANGATE45ISH)
    return nl, sta, EventSimulator(nl, sta), CycleSimulator(nl)


def _cycle_waves(nl, ev, sim, seed, cycles=5):
    script = [{"in": (i * 17 + seed) & 0x3F} for i in range(cycles + 2)]
    sim.reset(ScriptedEnv(script))
    result = []
    for _ in range(cycles):
        ckpt = sim.checkpoint()
        sim.step()
        result.append(
            (ckpt, ev.simulate_cycle(ckpt.prev_settled, ckpt.dff_values,
                                     ckpt.input_values))
        )
    return result


@pytest.mark.parametrize("seed", range(4))
def test_output_fault_is_union_bound_of_edge_faults(seed):
    """An output fault must corrupt at least what any single-edge fault on
    the same net corrupts with the same delay (same values latched), and
    its victims must lie within the union of per-edge static cones."""
    nl, sta, ev, sim = _setup(seed)
    for ckpt, waves in _cycle_waves(nl, ev, sim, seed):
        for net in list(waves.changes)[::3]:
            sinks = nl.fanout_of(net)
            for frac in (0.6, 0.9):
                extra = frac * sta.clock_period
                whole = ev.resimulate_output_fault(waves, net, extra)
                union_static = set()
                for sink in sinks:
                    if sink.pin_type is PinType.OUTPORT:
                        continue
                    union_static |= sta.statically_reachable(
                        Wire(net, sink), extra
                    )
                assert set(whole) <= union_static


def test_output_fault_equals_edge_fault_for_single_sink(seed=1):
    """For nets with exactly one sink the two fault models coincide."""
    nl, sta, ev, sim = _setup(seed)
    single_sink_nets = [
        net for net in range(nl.num_nets) if len(nl.fanout_of(net)) == 1
    ]
    checked = 0
    for ckpt, waves in _cycle_waves(nl, ev, sim, seed):
        for net in single_sink_nets:
            if not waves.toggles(net):
                continue
            (sink,) = nl.fanout_of(net)
            for frac in (0.5, 0.9):
                extra = frac * sta.clock_period
                edge = ev.resimulate_batch(waves, [(Wire(net, sink), extra)])[0]
                whole = ev.resimulate_output_fault(waves, net, extra)
                assert edge == whole, (net, frac)
                checked += 1
    assert checked > 0


def test_output_fault_non_toggling_is_empty(seed=2):
    nl, sta, ev, sim = _setup(seed)
    (_, waves), *_ = _cycle_waves(nl, ev, sim, seed, cycles=1)
    for net in range(nl.num_nets):
        if not waves.toggles(net):
            assert ev.resimulate_output_fault(waves, net, 0.9 * sta.clock_period) == {}


def test_wordline_output_fault_latches_stale_word(ecc_strstr_engine, ecc_system):
    """Fig. 11's scenario: a delayed write-enable (word-line) re-latches the
    old word — a multi-bit storage error whose every bit is individually
    correctable by SEC."""
    from repro.netlist.cells import CellKind
    from repro.netlist.netlist import DriverKind

    nl = ecc_system.netlist
    enable_counts = {}
    for dff in nl.dffs_of_structure("core.regfile"):
        kind, cell = nl.driver_of(dff.d)
        if kind == DriverKind.CELL and nl.cell_kinds[cell] == int(CellKind.MUX2):
            sel = nl.cell_inputs[cell][2]
            enable_counts[sel] = enable_counts.get(sel, 0) + 1
    wordlines = [n for n, c in enable_counts.items() if c >= 30]
    assert len(wordlines) == 15  # one per stored register

    session = ecc_strstr_engine.session
    multi_bit_sets = 0
    for cycle in session.sampled_cycles:
        waves = session.waveforms(cycle)
        for net in wordlines:
            if not waves.toggles(net):
                continue
            errors = ecc_system.event_sim.resimulate_output_fault(
                waves, net, 0.9 * ecc_system.clock_period
            )
            if len(errors) > 1:
                multi_bit_sets += 1
                # All victims are storage bits of the same register word.
                owners = {
                    nl.dffs[d].name.rsplit("[", 1)[0] for d in errors
                }
                assert len(owners) == 1, owners
    assert multi_bit_sets > 0


def test_output_fault_on_core_q_net(system, strstr_engine):
    """A near-period output fault on a toggling Q net must corrupt its own
    downstream latches when they re-latch late."""
    session = strstr_engine.session
    found = 0
    for cycle in session.sampled_cycles:
        waves = session.waveforms(cycle)
        for dff in system.netlist.dffs[::10]:
            if not waves.toggles(dff.q):
                continue
            errors = system.event_sim.resimulate_output_fault(
                waves, dff.q, 0.99 * system.clock_period
            )
            found += len(errors)
    assert found > 0
