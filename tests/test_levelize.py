"""Levelized evaluation plan: must match the naive fixed-point evaluator."""

import numpy as np
import pytest

from helpers import eval_batches, naive_settle, random_circuit
from repro.netlist.cells import CellKind
from repro.netlist.netlist import CONST0, CONST1, Netlist
from repro.sim.levelize import compute_cell_levels, levelize


def test_levels_respect_dependencies():
    nl = Netlist()
    a = nl.add_input("a", 1)[0]
    x = nl.add_cell(CellKind.NOT, [a])
    y = nl.add_cell(CellKind.NOT, [x])
    z = nl.add_cell(CellKind.AND2, [x, y])
    nl.freeze()
    levels = compute_cell_levels(nl)
    assert levels[0] == 0 and levels[1] == 1 and levels[2] == 2
    assert z  # silence lints


def test_loop_detected():
    nl = Netlist()
    a = nl.add_net("a")
    b = nl.add_cell(CellKind.NOT, [a])
    nl.add_cell(CellKind.NOT, [b], out=a)
    with pytest.raises(ValueError, match="loop"):
        compute_cell_levels(nl)


@pytest.mark.parametrize("seed", range(12))
def test_plan_matches_naive_evaluation(seed):
    nl = random_circuit(seed, num_inputs=5, num_gates=60, num_dffs=4)
    plan = levelize(nl)
    rng_state = (seed * 977 + 13) & 0xFFFF
    for trial in range(4):
        in_word = (rng_state >> trial) & 0x1F
        state = {net: (in_word >> i) & 1 for i, net in enumerate(nl.input_ports["in"])}
        for dff in nl.dffs:
            state[dff.q] = (rng_state >> (trial + dff.index)) & 1
        expected = naive_settle(nl, state)
        values = np.zeros(nl.num_nets, dtype=np.uint8)
        values[CONST1] = 1
        for net, value in state.items():
            values[net] = value
        plan.evaluate(values)
        for net, value in expected.items():
            assert int(values[net]) == value, nl.net_names[net]


def test_batches_group_by_kind_and_level():
    nl = random_circuit(3)
    plan = levelize(nl)
    seen = set()
    for batch in eval_batches(nl):
        assert len(batch.output_nets) > 0
        key = (batch.kind,)
        assert len({len(arr) for arr in batch.input_nets} | {len(batch.output_nets)}) == 1
        seen.add(key)
    assert plan.num_levels >= 1


def test_empty_netlist_plan():
    nl = Netlist()
    nl.add_input("a", 1)
    nl.freeze()
    plan = levelize(nl)
    assert eval_batches(nl) == []
    assert plan.fused_levels == ()
    values = np.zeros(nl.num_nets, dtype=np.uint8)
    plan.evaluate(values)  # no-op, no crash
