"""Cross-module structural invariants (property tests on random circuits)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit
from repro.netlist.netlist import DriverKind, PinType
from repro.sim.levelize import compute_cell_levels, levelize
from repro.timing.liberty import NANGATE45ISH
from repro.timing.sta import StaticTiming


@pytest.mark.parametrize("seed", range(8))
def test_random_circuits_validate_and_levelize(seed):
    nl = random_circuit(seed, num_inputs=4, num_gates=50, num_dffs=5)
    levels = compute_cell_levels(nl)
    producer = {nl.cell_outputs[c]: c for c in range(nl.num_cells)}
    for cell in range(nl.num_cells):
        for net in nl.cell_inputs[cell]:
            src = producer.get(net)
            if src is not None:
                assert levels[src] < levels[cell]


@pytest.mark.parametrize("seed", range(6))
def test_every_wire_has_valid_endpoints(seed):
    nl = random_circuit(seed)
    for wire in nl.all_wires():
        kind, _ = nl.driver_of(wire.net)
        assert kind in (
            DriverKind.CONST, DriverKind.INPUT, DriverKind.CELL, DriverKind.DFF
        )
        if wire.sink.pin_type is PinType.CELL_IN:
            assert nl.cell_inputs[wire.sink.owner][wire.sink.pin] == wire.net
        elif wire.sink.pin_type is PinType.DFF_D:
            assert nl.dffs[wire.sink.owner].d == wire.net


@pytest.mark.parametrize("seed", range(6))
def test_arrival_respects_topology(seed):
    nl = random_circuit(seed)
    sta = StaticTiming(nl, NANGATE45ISH)
    for cell in range(nl.num_cells):
        out = nl.cell_outputs[cell]
        for net in nl.cell_inputs[cell]:
            assert sta.arrival[out] >= sta.arrival[net] + sta.cell_delay[cell] - 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_downstream_consistency(seed):
    """downstream[net] == max over sinks of the remaining delay."""
    nl = random_circuit(seed)
    sta = StaticTiming(nl, NANGATE45ISH)
    for net in range(nl.num_nets):
        best = float("-inf")
        for sink in nl.fanout_of(net):
            if sink.pin_type is PinType.DFF_D:
                best = max(best, 0.0)
            elif sink.pin_type is PinType.CELL_IN:
                out = nl.cell_outputs[sink.owner]
                if sta.downstream[out] != float("-inf"):
                    best = max(
                        best,
                        float(sta.cell_delay[sink.owner]) + float(sta.downstream[out]),
                    )
        assert sta.downstream[net] == pytest.approx(best) or (
            best == float("-inf") and sta.downstream[net] == float("-inf")
        )


@pytest.mark.parametrize("seed", range(4))
def test_max_path_through_bounded_by_clock_period(seed):
    """No wire's worst path exceeds the design's critical path."""
    nl = random_circuit(seed)
    sta = StaticTiming(nl, NANGATE45ISH)
    for wire in nl.all_wires():
        worst = sta.max_path_through(wire)
        if worst != float("-inf"):
            assert worst <= sta.clock_period + 1e-9


def test_core_wire_paths_bounded(system):
    sta = system.sta
    for name in system.structures:
        for wire in system.structure_wires(name)[::97]:
            worst = sta.max_path_through(wire)
            if worst != float("-inf"):
                assert worst <= sta.clock_period + 1e-9


@given(seed=st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_levelize_deterministic(seed):
    nl = random_circuit(seed % 10)
    a = levelize(nl)
    b = levelize(nl)
    assert a.num_levels == b.num_levels
    assert a.cell_levels == b.cell_levels
    assert len(a.fused_levels) == len(b.fused_levels)
    for x, y in zip(a.fused_levels, b.fused_levels):
        assert (x.gate_out == y.gate_out).all()
        assert (x.inv_sel == y.inv_sel).all()
        assert (x.mux_out == y.mux_out).all()
