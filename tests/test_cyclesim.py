"""Zero-delay cycle simulator: stepping, checkpoints, injection, fingerprints."""

import numpy as np

from helpers import ScriptedEnv, random_circuit
from repro.hdl.ops import Reg, adder, const_bus
from repro.netlist.netlist import Netlist
from repro.netlist.validate import validate
from repro.sim.cyclesim import CycleSimulator


def _counter_netlist(width=8):
    nl = Netlist()
    reg = Reg(nl, "count", width)
    inc, _ = adder(nl, reg.q, const_bus(nl, 1, width))
    reg.set(inc)
    nl.add_output("count", reg.q)
    validate(nl)
    nl.freeze()
    return nl


def test_counter_counts():
    sim = CycleSimulator(_counter_netlist())
    env = ScriptedEnv([{}])
    sim.reset(env)
    for expected in range(20):
        out = sim.step()
        assert out["count"] == expected


def test_run_respects_halt():
    sim = CycleSimulator(_counter_netlist())
    env = ScriptedEnv([{}], halt_at=7)
    result = sim.run(env, max_cycles=100)
    assert result.cycles == 7
    assert result.halted


def test_run_respects_max_cycles():
    sim = CycleSimulator(_counter_netlist())
    env = ScriptedEnv([{}])
    result = sim.run(env, max_cycles=13)
    assert result.cycles == 13
    assert not result.halted


def test_checkpoint_restore_reproduces_run():
    nl = random_circuit(42, num_inputs=4, num_gates=50, num_dffs=6)
    sim = CycleSimulator(nl)
    script = [{"in": (i * 7 + 3) & 0xF} for i in range(30)]
    env = ScriptedEnv(script)
    result = sim.run(env, max_cycles=30, checkpoint_cycles=[10], record_fingerprints=True)
    assert 10 in result.checkpoints
    final_state = sim.dff_values.copy()

    env2 = ScriptedEnv(script)
    sim2 = CycleSimulator(nl)
    sim2.restore(result.checkpoints[10], env2)
    # Scripted env is cycle-indexed via its own counter, restored in snapshot.
    for _ in range(20):
        sim2.step()
    assert np.array_equal(sim2.dff_values, final_state)


def test_fingerprints_deterministic():
    nl = random_circuit(11)
    script = [{"in": (i * 5 + 1) & 0x3F} for i in range(25)]
    runs = []
    for _ in range(2):
        sim = CycleSimulator(nl)
        result = sim.run(ScriptedEnv(script), max_cycles=25, record_fingerprints=True)
        runs.append(result.fingerprints)
    assert runs[0] == runs[1]
    assert len(runs[0]) == 25


def test_override_dffs_changes_state():
    sim = CycleSimulator(_counter_netlist())
    env = ScriptedEnv([{}])
    sim.reset(env)
    for _ in range(3):
        sim.step()
    sim.override_dffs({0: 1, 1: 0})  # force bit 0 of counter
    value = sim.step()["count"]
    assert value & 1 == 1


def test_evaluate_combinational():
    nl = Netlist()
    a = nl.add_input("a", 4)
    b = nl.add_input("b", 4)
    total, carry = adder(nl, a, b)
    nl.add_output("sum", total + [carry])
    validate(nl)
    nl.freeze()
    sim = CycleSimulator(nl)
    for x in range(16):
        for y in range(0, 16, 3):
            out = sim.evaluate_combinational({"a": x, "b": y})
            assert out["sum"] == x + y


def test_prev_settled_tracks_previous_cycle():
    nl = _counter_netlist()
    sim = CycleSimulator(nl)
    sim.reset(ScriptedEnv([{}]))
    sim.step()
    sim.step()
    # prev_settled holds the settled values of the *last completed* cycle.
    count_nets = nl.output_ports["count"]
    value = sum(int(sim.prev_settled[n]) << i for i, n in enumerate(count_nets))
    assert value == 1  # during cycle 1 the counter output read 1


def test_missing_input_port_defaults_to_zero():
    nl = Netlist()
    a = nl.add_input("a", 4)
    nl.add_output("echo", a)
    nl.freeze()
    sim = CycleSimulator(nl)
    out = sim.evaluate_combinational({})
    assert out["echo"] == 0
