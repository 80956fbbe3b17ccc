"""Shared test utilities: tiny environments, harness builders, RNG circuits."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.netlist.cells import CellKind, cell_input_count, eval_cell_array
from repro.netlist.netlist import CONST0, CONST1, Netlist
from repro.netlist.validate import validate
from repro.sim.cyclesim import CycleSimulator, Environment
from repro.sim.levelize import compute_cell_levels


class ScriptedEnv(Environment):
    """Environment that feeds a fixed per-cycle script of input values."""

    def __init__(self, script: List[Dict[str, int]], halt_at: Optional[int] = None):
        self.script = script
        self.halt_at = halt_at
        self.cycle_count = 0
        self.seen_outputs: List[Dict[str, int]] = []

    def reset(self) -> Dict[str, int]:
        self.cycle_count = 0
        self.seen_outputs = []
        return self.script[0] if self.script else {}

    def step(self, outputs: Dict[str, int], cycle: int) -> Dict[str, int]:
        self.seen_outputs.append(dict(outputs))
        self.cycle_count += 1
        index = min(self.cycle_count, len(self.script) - 1) if self.script else 0
        return self.script[index] if self.script else {}

    def snapshot(self):
        return (self.cycle_count, list(self.seen_outputs))

    def restore(self, snap) -> None:
        self.cycle_count, seen = snap
        self.seen_outputs = list(seen)

    def fingerprint(self) -> int:
        return self.cycle_count

    def observables(self) -> Tuple:
        return ()

    def halted(self) -> bool:
        return self.halt_at is not None and self.cycle_count >= self.halt_at


def comb_harness(build: Callable[[Netlist], None]) -> CycleSimulator:
    """Build a netlist via *build* and wrap it in a simulator for
    :meth:`CycleSimulator.evaluate_combinational` unit tests."""
    nl = Netlist()
    build(nl)
    validate(nl)
    nl.freeze()
    return CycleSimulator(nl)


def random_circuit(
    seed: int,
    num_inputs: int = 6,
    num_gates: int = 40,
    num_dffs: int = 5,
) -> Netlist:
    """A random acyclic sequential circuit for property tests."""
    rng = random.Random(seed)
    nl = Netlist()
    inputs = nl.add_input("in", num_inputs)
    dffs = [nl.add_dff(f"r{i}", init=rng.randint(0, 1)) for i in range(num_dffs)]
    pool = list(inputs) + [d.q for d in dffs] + [CONST0, CONST1]
    kinds = [
        CellKind.NOT, CellKind.AND2, CellKind.OR2, CellKind.NAND2,
        CellKind.NOR2, CellKind.XOR2, CellKind.XNOR2, CellKind.MUX2,
        CellKind.BUF,
    ]
    for _ in range(num_gates):
        kind = rng.choice(kinds)
        ins = [rng.choice(pool) for _ in range(cell_input_count(kind))]
        pool.append(nl.add_cell(kind, ins))
    for dff in dffs:
        nl.connect_d(dff, rng.choice(pool))
    nl.add_output("out", [rng.choice(pool) for _ in range(4)])
    validate(nl)
    nl.freeze()
    return nl


def naive_settle(nl: Netlist, state: Dict[int, int]) -> Dict[int, int]:
    """Reference evaluator: iterate cell evaluation to a fixed point.

    *state* maps root nets (constants, inputs, DFF Q) to values; returns the
    settled value of every net.  Quadratic and tiny — the oracle for the
    levelized evaluator.
    """
    from repro.netlist.cells import eval_cell

    values = dict(state)
    values[CONST0] = 0
    values[CONST1] = 1
    remaining = set(range(nl.num_cells))
    while remaining:
        progressed = False
        for cell in sorted(remaining):
            ins = nl.cell_inputs[cell]
            if all(net in values for net in ins):
                values[nl.cell_outputs[cell]] = eval_cell(
                    nl.cell_kinds[cell], [values[n] for n in ins]
                )
                remaining.discard(cell)
                progressed = True
        if not progressed:
            raise AssertionError("combinational loop or missing roots")
    return values


@dataclass(frozen=True)
class EvalBatch:
    """A batch of same-kind cells whose inputs are all already computed."""

    kind: CellKind
    input_nets: Tuple[np.ndarray, ...]  #: one index array per input pin
    output_nets: np.ndarray


def eval_batches(netlist: Netlist) -> List[EvalBatch]:
    """The per-(level, kind) cell batches of *netlist*, in topological order:
    the per-kind view of the plan :func:`repro.sim.levelize.levelize` fuses."""
    levels = compute_cell_levels(netlist)
    grouped: Dict[Tuple[int, int], List[int]] = {}
    for cell, level in enumerate(levels):
        grouped.setdefault((level, netlist.cell_kinds[cell]), []).append(cell)
    batches: List[EvalBatch] = []
    for level in range(max(levels) + 1 if levels else 0):
        for kind in CellKind:
            cells = grouped.get((level, int(kind)))
            if not cells:
                continue
            input_nets = tuple(
                np.array(
                    [netlist.cell_inputs[c][pin] for c in cells], dtype=np.int64
                )
                for pin in range(len(netlist.cell_inputs[cells[0]]))
            )
            output_nets = np.array(
                [netlist.cell_outputs[c] for c in cells], dtype=np.int64
            )
            batches.append(EvalBatch(kind, input_nets, output_nets))
    return batches


def evaluate_reference(netlist: Netlist, values: np.ndarray, mask: int = 1) -> None:
    """Per-kind batch evaluation: the bit-exact oracle of the fused
    :meth:`repro.sim.levelize.EvalPlan.evaluate`."""
    for batch in eval_batches(netlist):
        ins = [values[idx] for idx in batch.input_nets]
        values[batch.output_nets] = eval_cell_array(batch.kind, *ins, mask=mask)


def heap_walk_reachable(sta, wire, extra_delay: float) -> Set[int]:
    """Reference statically reachable set: the pruned per-query path walk.

    Walks the fan-out of *wire*'s sink in (level, cell) order on a heap,
    keeping each cell's latest arrival over its pins and pruning every cell
    whose worst downstream continuation cannot violate the period.  One
    Python walk per (wire, d) — the oracle the levelized sweep
    (``StaticTiming.statically_reachable_batch``) must match bit for bit.
    """
    import heapq

    import numpy as np

    from repro.netlist.netlist import PinType

    netlist = sta.netlist
    threshold = sta.clock_period + 1e-9
    start = float(sta.arrival[wire.net]) + extra_delay
    reachable: Set[int] = set()
    cell_late: Dict[int, float] = {}
    frontier: List[Tuple[int, int]] = []

    def visit(sink, t: float) -> None:
        if sink.pin_type is PinType.DFF_D:
            if t > threshold:
                reachable.add(sink.owner)
            return
        if sink.pin_type is PinType.OUTPORT:
            return
        cell = sink.owner
        bound = sta.downstream[netlist.cell_outputs[cell]]
        if bound == -np.inf or t + sta.cell_delay[cell] + bound <= threshold:
            return
        previous = cell_late.get(cell)
        if previous is None:
            heapq.heappush(frontier, (sta.cell_levels[cell], cell))
            cell_late[cell] = t
        elif t > previous:
            cell_late[cell] = t

    visit(wire.sink, start)
    while frontier:
        _, cell = heapq.heappop(frontier)
        t_out = cell_late[cell] + float(sta.cell_delay[cell])
        for sink in netlist.fanout_of(netlist.cell_outputs[cell]):
            visit(sink, t_out)
    return reachable


def frontier_walk_errors(ev, waves, wire, extra_delay: float) -> Dict[int, int]:
    """Reference dynamically reachable set: one heap-frontier cone walk.

    Replays *wire*'s fan-out cone cell by cell in (level, cell) order with
    the source waveform shifted by *extra_delay*, stopping where a
    recomputed waveform converges with the fault-free one — no lanes, no
    word packing and no settled-source skip.  The oracle the event
    simulator's cone pass (``EventSimulator.resimulate`` /
    ``resimulate_batch``) must match exactly.
    """
    import heapq

    from repro.netlist.netlist import PinType
    from repro.sim.eventsim import _recompute_output, value_at

    netlist, sta = ev.netlist, ev.sta
    base = waves.changes.get(wire.net)
    sink = wire.sink
    if not base or sink.pin_type is PinType.OUTPORT:
        return {}
    period = sta.clock_period
    shifted = [(t + extra_delay, v) for t, v in base]
    if sink.pin_type is PinType.DFF_D:
        latched = value_at(int(waves.initial[wire.net]), shifted, period)
        golden = int(waves.final[wire.net])
        return {sink.owner: latched} if latched != golden else {}
    overrides = {(sink.owner, sink.pin): shifted}
    modified: Dict[int, list] = {}
    errors: Dict[int, int] = {}
    frontier = [(sta.cell_levels[sink.owner], sink.owner)]
    queued = {sink.owner}
    while frontier:
        _, cell = heapq.heappop(frontier)
        pin_waves = []
        for pin, in_net in enumerate(netlist.cell_inputs[cell]):
            wf = overrides.get((cell, pin))
            if wf is None:
                wf = modified.get(in_net, waves.changes.get(in_net, []))
            pin_waves.append((int(waves.initial[in_net]), wf))
        out_wf = _recompute_output(
            netlist.cell_kinds[cell], pin_waves, float(sta.cell_delay[cell])
        )
        out_net = netlist.cell_outputs[cell]
        if out_wf == waves.changes.get(out_net, []):
            continue  # converged with the fault-free waveform
        modified[out_net] = out_wf
        latched = value_at(int(waves.initial[out_net]), out_wf, period)
        for nxt in netlist.fanout_of(out_net):
            if nxt.pin_type is PinType.DFF_D:
                if latched != int(waves.final[out_net]):
                    errors[nxt.owner] = latched
                else:
                    errors.pop(nxt.owner, None)
            elif nxt.pin_type is PinType.CELL_IN and nxt.owner not in queued:
                queued.add(nxt.owner)
                heapq.heappush(frontier, (sta.cell_levels[nxt.owner], nxt.owner))
    return errors


def scalar_campaign_records(system, program, config, structure):
    """Per-record scalar reference of one structure campaign.

    Expands the plan the engine would (a fresh session's verified sampled
    cycles, the config's wire sample and delays) and evaluates every
    (cycle, wire, d) through :meth:`DelayAceEvaluator.evaluate` on that
    fresh session: no batch reach and no prefetch, so every dynamically
    reachable set comes from a one-lane cone pass and every GroupACE/ORACE
    verdict from the scalar ``GroupAceAnalyzer._run_injected``.  Returns
    ``({delay: records}, telemetry)``, the records in merge order.
    """
    from repro.core.campaign import CampaignSession
    from repro.core.plan import build_plan

    session = CampaignSession(system, program, config)
    session.verify_length()
    wires = system.structure_wires(structure)
    plan = build_plan(
        structure, program.name, wires, session.sampled_cycles, config
    )
    by_delay = {delay: [] for delay in plan.delay_fractions}
    for shard in plan.shards:
        waves = session.waveforms(shard.cycle)
        checkpoint = session.checkpoint(shard.cycle)
        for index in shard.wire_indices:
            for delay in shard.delay_fractions:
                by_delay[delay].append(session.evaluator.evaluate(
                    waves, checkpoint, wires[index], index, delay,
                    with_orace=config.compute_orace,
                ))
    return by_delay, session.telemetry


def scalar_savf(system, program, config, structure, max_bits, seed):
    """Per-bit scalar reference of one sAVF campaign.

    Flips every sampled state bit at every sampled cycle of a fresh session
    and asks :meth:`GroupAceAnalyzer.outcome_of_state_errors` one bit at a
    time, with no prefetch, so each verdict comes from the scalar
    ``_run_injected``.  Returns ``(SAVFResult, telemetry)``.
    """
    from repro.core.campaign import CampaignSession
    from repro.core.group_ace import Outcome
    from repro.core.results import SAVFResult
    from repro.core.sampling import sample_wires

    session = CampaignSession(system, program, config)
    session.verify_length()
    scope = system.structures.get(structure, structure)
    chosen = sample_wires(system.netlist.dffs_of_structure(scope), max_bits, seed)
    outcomes = []
    for cycle in session.sampled_cycles:
        checkpoint = session.checkpoint(cycle)
        for dff in chosen:
            flipped = int(checkpoint.dff_values[dff.index]) ^ 1
            outcomes.append(session.group_ace.outcome_of_state_errors(
                checkpoint, {dff.index: flipped}, at_next_boundary=False
            ))
    result = SAVFResult(
        structure=structure,
        benchmark=program.name,
        samples=len(outcomes),
        ace_count=sum(outcome.is_failure for outcome in outcomes),
        sdc_count=outcomes.count(Outcome.SDC),
        due_count=outcomes.count(Outcome.DUE),
    )
    return result, session.telemetry
