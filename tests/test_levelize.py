"""Levelized evaluation plan: must match the naive fixed-point evaluator."""

import itertools

import numpy as np
import pytest

from helpers import (
    eval_batches,
    evaluate_reference,
    naive_settle,
    random_circuit,
)
from repro.netlist.cells import CellKind, cell_input_count, eval_cell
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
    assert plan.num_levels == 0 and plan.levels == ()
    values = np.zeros(nl.num_nets, dtype=np.uint8)
    plan.evaluate(values)  # writes only the constant nets
    assert values.tolist() == [0, 1] + [0] * (nl.num_nets - 2)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint64])
@pytest.mark.parametrize("kind", list(CellKind))
def test_every_kind_matches_its_truth_table(kind, dtype):
    """A one-cell plan with input combination c in plane c: every plane
    equals :func:`eval_cell`, and no bit is set outside the mask."""
    nl = Netlist()
    pins = nl.add_input("in", cell_input_count(kind))
    out = nl.add_cell(kind, pins)
    nl.freeze()
    combos = list(itertools.product((0, 1), repeat=len(pins)))
    mask = (1 << len(combos)) - 1
    values = np.zeros(nl.num_nets, dtype=dtype)
    for pin, net in enumerate(pins):
        values[net] = sum(combo[pin] << c for c, combo in enumerate(combos))
    levelize(nl).evaluate(values, mask=mask)
    expected = sum(
        eval_cell(kind, combo) << c for c, combo in enumerate(combos)
    )
    assert int(values[out]) == expected


def test_stale_constant_nets_are_rewritten():
    """evaluate writes CONST0/CONST1 itself, whatever they held on entry."""
    nl = random_circuit(2, num_gates=120)
    assert any(CONST1 in pins for pins in nl.cell_inputs)
    plan = levelize(nl)
    rng = np.random.default_rng(2)
    for dtype, lanes in ((np.uint8, 1), (np.uint8, 5), (np.uint64, 64)):
        mask = (1 << lanes) - 1
        ref = rng.integers(0, 1 << 64, nl.num_nets, dtype=np.uint64)
        ref = (ref & np.uint64(mask)).astype(dtype)
        ref[CONST0], ref[CONST1] = 0, mask
        values = ref.copy()
        values[CONST0], values[CONST1] = mask, 0
        plan.evaluate(values, mask=mask)
        evaluate_reference(nl, ref, mask=mask)
        assert np.array_equal(values, ref), lanes


@pytest.mark.parametrize(
    "dtype, mask",
    [(np.uint8, 0), (np.uint8, 1 << 8), (np.uint64, 0), (np.uint64, 1 << 64)],
)
def test_mask_must_fit_the_word(dtype, mask):
    nl = random_circuit(0)
    values = np.zeros(nl.num_nets, dtype=dtype)
    with pytest.raises(ValueError, match="mask"):
        levelize(nl).evaluate(values, mask=mask)
