"""Static timing analysis: arrivals, clock period, reachability."""

import random

import numpy as np
import pytest

from helpers import heap_walk_reachable, random_circuit
from repro.netlist.cells import CellKind
from repro.netlist.netlist import Netlist, PinType, SinkPin, Wire
from repro.netlist.validate import validate
from repro.timing.liberty import NANGATE45ISH, CellTiming, TimingLibrary
from repro.timing.sta import StaticTiming

#: A library with unit-ish delays for hand-computable tests.
FLAT = TimingLibrary(
    name="flat",
    cells={kind: CellTiming(100.0, 0.0) for kind in CellKind},
    dff_clk_to_q_ps=50.0,
)


def _chain(depth=4):
    """clk->q -> NOT -> NOT -> ... -> DFF.D, arrival = 50 + depth*100."""
    nl = Netlist()
    dff_in = nl.add_dff("src")
    nl.connect_d(dff_in, dff_in.q)
    net = dff_in.q
    nets = [net]
    for _ in range(depth):
        net = nl.add_cell(CellKind.NOT, [net])
        nets.append(net)
    dff_out = nl.add_dff("dst")
    nl.connect_d(dff_out, net)
    validate(nl)
    nl.freeze()
    return nl, nets, dff_out


def test_arrival_times_on_chain():
    nl, nets, _ = _chain(4)
    sta = StaticTiming(nl, FLAT)
    for depth, net in enumerate(nets):
        assert sta.arrival[net] == pytest.approx(50.0 + 100.0 * depth)


def test_clock_period_is_longest_reg_to_reg_path():
    nl, nets, _ = _chain(4)
    sta = StaticTiming(nl, FLAT)
    assert sta.clock_period == pytest.approx(50.0 + 400.0)


def test_downstream_on_chain():
    nl, nets, _ = _chain(4)
    sta = StaticTiming(nl, FLAT)
    # From net i the remaining delay to the endpoint is (4 - i) * 100.
    for depth, net in enumerate(nets):
        assert sta.downstream[net] == pytest.approx((4 - depth) * 100.0)


def test_max_path_through_wire():
    nl, nets, dff_out = _chain(4)
    sta = StaticTiming(nl, FLAT)
    # Every wire on the single chain sees the full critical path.
    for i in range(4):
        wire = Wire(nets[i], SinkPin(PinType.CELL_IN, i, 0))
        assert sta.max_path_through(wire) == pytest.approx(sta.clock_period)
    last = Wire(nets[4], SinkPin(PinType.DFF_D, dff_out.index, 0))
    assert sta.max_path_through(last) == pytest.approx(sta.clock_period)


def test_statically_reachable_threshold():
    nl, nets, dff_out = _chain(4)
    sta = StaticTiming(nl, FLAT)
    wire = Wire(nets[0], SinkPin(PinType.CELL_IN, 0, 0))
    # The path exactly equals the period; any positive delay breaks it.
    assert sta.statically_reachable(wire, 0.0) == set()
    assert sta.statically_reachable(wire, 1.0) == {dff_out.index}


def test_statically_reachable_respects_slack():
    nl = Netlist()
    src = nl.add_dff("src")
    nl.connect_d(src, src.q)
    # Long path: 4 gates; short path: 1 gate to a separate DFF.
    long = src.q
    for _ in range(4):
        long = nl.add_cell(CellKind.NOT, [long])
    short = nl.add_cell(CellKind.BUF, [src.q])
    d_long = nl.add_dff("d_long")
    d_short = nl.add_dff("d_short")
    nl.connect_d(d_long, long)
    nl.connect_d(d_short, short)
    validate(nl)
    nl.freeze()
    sta = StaticTiming(nl, FLAT)
    assert sta.clock_period == pytest.approx(450.0)
    # The Q->BUF wire of the short path has 300 ps of slack.
    buf_cell = nl.num_cells - 1
    wire = Wire(src.q, SinkPin(PinType.CELL_IN, buf_cell, 0))
    assert sta.statically_reachable(wire, 250.0) == set()
    assert sta.statically_reachable(wire, 350.0) == {d_short.index}
    # A delay on the shared Q net's long-path wire reaches only d_long
    # until it also exceeds the short path's slack.
    first_not = 0
    long_wire = Wire(src.q, SinkPin(PinType.CELL_IN, first_not, 0))
    assert sta.statically_reachable(long_wire, 100.0) == {d_long.index}


@pytest.mark.parametrize("seed", range(5))
def test_reachability_matches_exhaustive_path_walk(seed):
    """Cross-check the levelized sweep against a naive DFS enumeration."""
    nl = random_circuit(seed, num_inputs=4, num_gates=35, num_dffs=4)
    sta = StaticTiming(nl, NANGATE45ISH)

    def naive(wire, extra):
        # Walk all paths from the wire's sink, tracking exact delays.
        reached = set()
        start = sta.arrival[wire.net] + extra

        def walk(sink, t):
            if sink.pin_type is PinType.DFF_D:
                if t > sta.clock_period + 1e-9:
                    reached.add(sink.owner)
                return
            if sink.pin_type is PinType.OUTPORT:
                return
            cell = sink.owner
            t_out = t + sta.cell_delay[cell]
            for nxt in nl.fanout_of(nl.cell_outputs[cell]):
                walk(nxt, t_out)

        walk(wire.sink, start)
        return reached

    for wire in nl.all_wires()[::3]:
        for frac in (0.2, 0.6, 0.95):
            extra = frac * sta.clock_period
            assert sta.statically_reachable(wire, extra) == naive(wire, extra)


@pytest.mark.parametrize("ecc", (False, True))
def test_reach_sweep_matches_heap_walk_on_ibexmini(ecc, system, ecc_system):
    """The sweep equals the pruned path walk, set for set, at the slack edge.

    Samples wires of all five structures at several d and at each wire's
    exact slack threshold (``period - max_path_through``), one ulp either
    side of it and just past the comparison tolerance, and the same around
    the tolerance itself.
    """
    system = ecc_system if ecc else system
    sta = system.sta
    rng = random.Random(17)
    queries = []
    for structure in ("alu", "decoder", "regfile", "lsu", "prefetch"):
        for wire in rng.sample(system.structure_wires(structure), 40):
            queries += [(wire, frac * sta.clock_period) for frac in (0.1, 0.5, 0.9)]
            through = sta.max_path_through(wire)
            if through == float("-inf"):
                continue
            for edge in (sta.clock_period - through, sta.clock_period + 1e-9 - through):
                queries += [
                    (wire, edge), (wire, np.nextafter(edge, -np.inf)),
                    (wire, np.nextafter(edge, np.inf)), (wire, edge + 2e-9),
                ]
    swept = sta.statically_reachable_batch(queries)
    reached = 0
    for (wire, extra), got in zip(queries, swept):
        assert got == heap_walk_reachable(sta, wire, extra), (wire, extra)
        reached += bool(got)
    assert 0 < reached < len(queries)


def test_arrival_uses_fanout_load():
    nl = Netlist()
    a = nl.add_input("a", 1)[0]
    x = nl.add_cell(CellKind.NOT, [a])
    # Give x three sinks so its driver sees load 3.
    d1, d2, d3 = (nl.add_dff(f"d{i}") for i in range(3))
    for d in (d1, d2, d3):
        nl.connect_d(d, x)
    validate(nl)
    nl.freeze()
    sta = StaticTiming(nl, NANGATE45ISH)
    timing = NANGATE45ISH.cells[CellKind.NOT]
    expected = NANGATE45ISH.dff_clk_to_q_ps + timing.intrinsic_ps + 3 * timing.load_ps_per_fanout
    assert sta.arrival[x] == pytest.approx(expected)


def test_monotonic_reachability_in_delay(system):
    """Statically reachable sets only grow with the delay duration."""
    sta = system.sta
    wires = system.structure_wires("alu")[::200]
    for wire in wires:
        previous = set()
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            current = sta.statically_reachable(wire, frac * sta.clock_period)
            assert previous <= current
            previous = current
