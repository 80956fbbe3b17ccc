"""The refilled GroupACE word: one queue per netlist, exact per injection.

``prefetch_spanning_multi`` runs each netlist's unresolved injections
through one packed word whose retired lanes take the next queued injection.
Every verdict must equal the tests' scalar reference
(``helpers.run_injected``, against a ``helpers.reference_run`` golden run),
at any width and with either injection boundary; a hung lane runs to the
same DUE budget as the reference run.
"""

import numpy as np
import pytest

from helpers import reference_run, run_injected
from repro.core.group_ace import (
    GroupAceAnalyzer,
    Outcome,
    prefetch_spanning_multi,
)
from repro.isa.assembler import assemble
from repro.workloads.beebs import load_benchmark

MARGIN = 40


@pytest.fixture(scope="module")
def two_workloads(system, strstr_program):
    """68 injections over two workloads of one netlist: more than any
    width, so every width refills.  The checkpoints sit near each
    program's end, where flips still give masked, SDC and DUE verdicts but
    every run is short."""
    rng = np.random.default_rng(3)
    ndff = system.netlist.num_dffs
    workloads = []
    for program, cycles in (
        (strstr_program, (700, 725)),
        (load_benchmark("libfibcall"), (1975, 2000)),
    ):
        golden = reference_run(
            system.netlist, system.make_env(program), 5000, cycles
        )
        items = []
        for cycle in cycles:
            checkpoint = golden.checkpoints[cycle]
            for k in range(17):
                bits = rng.choice(ndff, size=1 + k % 3, replace=False)
                items.append((checkpoint, {
                    int(b): int(checkpoint.dff_values[b]) ^ 1 for b in bits
                }))
        workloads.append((program, golden, items))
    return workloads


def _key(checkpoint, overrides, at_next_boundary):
    items = tuple(sorted(overrides.items()))
    return (checkpoint.cycle, at_next_boundary, items)


@pytest.mark.parametrize("at_next_boundary", (True, False))
def test_refilled_prefetch_equals_scalar_at_every_width(
    system, two_workloads, at_next_boundary
):
    expected = []
    for program, golden, items in two_workloads:
        scalar = GroupAceAnalyzer(system, program, golden, MARGIN)
        expected += [
            run_injected(scalar, c, o, at_next_boundary) for c, o in items
        ]
    assert {Outcome.MASKED, Outcome.SDC, Outcome.DUE} <= set(expected)
    for lanes in (1, 8, 63, 64):
        analyzers = [
            GroupAceAnalyzer(system, program, golden, MARGIN)
            for program, golden, _ in two_workloads
        ]
        prefetch_spanning_multi(
            [(a, items) for a, (_, _, items) in zip(analyzers, two_workloads)],
            at_next_boundary=at_next_boundary, lanes=lanes,
        )
        got = [
            a._cache[_key(c, o, at_next_boundary)]
            for a, (_, _, items) in zip(analyzers, two_workloads)
            for c, o in items
        ]
        assert got == expected, lanes
        owner = analyzers[0].telemetry
        assert owner.count("lane_batches") == 1, lanes
        assert owner.count("lane_refills") == len(expected) - lanes, lanes
        assert 0 < owner.count("lanes_filled") <= owner.count("lane_slots")
        for analyzer in analyzers:
            assert analyzer.telemetry.count("group_ace_runs") == len(
                two_workloads[0][2]
            ), lanes


def test_tight_loop_past_the_golden_end_is_due_at_the_budget(system):
    """A flag forced on sends the program into ``j spin`` instead of its
    halting store.  The packed lane spins to the DUE budget, as the
    reference run does, and the word stops with it; so does a per-record
    miss, a one-task word."""
    program = assemble(
        """
        li a2, 0
        li a0, 0
        li a1, 20
        loop:
        addi a0, a0, 1
        blt a0, a1, loop
        bnez a2, spin
        li t0, 0x10001000
        sw x0, 0(t0)
        spin:
        j spin
        """,
        "spin",
    )
    golden = reference_run(
        system.netlist, system.make_env(program), 2000, [10]
    )
    assert golden.halted
    checkpoint = golden.checkpoints[10]
    flag = next(
        d.index for d in system.netlist.dffs if d.name == "core.regfile.x12[0]"
    )
    overrides = {flag: 1}
    margin = 300
    budget_cycles = golden.cycles + margin - checkpoint.cycle

    scalar = GroupAceAnalyzer(system, program, golden, margin)
    assert run_injected(scalar, checkpoint, overrides, False) is Outcome.DUE

    packed = GroupAceAnalyzer(system, program, golden, margin)
    packed.prefetch(checkpoint, [overrides], at_next_boundary=False)
    assert packed._cache[_key(checkpoint, overrides, False)] is Outcome.DUE
    assert packed.telemetry.count("lanes_filled") == budget_cycles
    assert packed.telemetry.count("lane_slots") == budget_cycles

    missed = GroupAceAnalyzer(system, program, golden, margin)
    assert missed.outcome_of_state_errors(
        checkpoint, overrides, at_next_boundary=False
    ) is Outcome.DUE
    assert missed.telemetry.count("group_ace_runs") == 1
    assert missed.telemetry.count("lane_slots") == budget_cycles
