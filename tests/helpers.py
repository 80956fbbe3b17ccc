"""Shared test utilities: tiny environments, harness builders, RNG circuits,
and the brute-force reference models the fast paths are checked against.

The references share no kernel with the production simulators they check:
:class:`ReferenceCycleSim` (golden runs, :func:`reference_run`, and GroupACE
verdicts, :func:`run_injected`) settles through per-kind ``eval_cell_word``
batches rather than ``EvalPlan``, and :func:`frontier_walk_errors` walks a
fan-out cone cell by cell on ``eval_cell``.  Every golden and GroupACE
parity test takes its expected values from them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.group_ace import Outcome
from repro.netlist.cells import (
    CellKind,
    cell_input_count,
    eval_cell,
    eval_cell_word,
)
from repro.netlist.netlist import CONST0, CONST1, Netlist
from repro.netlist.validate import validate
from repro.sim.cyclesim import CycleSimulator
from repro.sim.levelize import compute_cell_levels
from repro.sim.packed import Checkpoint, Environment, RunResult
from repro.soc.ecc import DATA_BITS, DATA_POSITIONS, PARITY_BITS


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


#: id(netlist) -> (netlist, its batches); holding the netlist keeps its id
#: from being reused while the entry lives
_BATCHES: Dict[int, Tuple[Netlist, List[EvalBatch]]] = {}


def eval_batches(netlist: Netlist) -> List[EvalBatch]:
    """The per-(level, kind) cell batches of *netlist*, in topological order:
    the per-kind view of the levels :func:`repro.sim.levelize.levelize`
    builds.  Built once per netlist."""
    cached = _BATCHES.get(id(netlist))
    if cached is None:
        cached = _BATCHES[id(netlist)] = (netlist, _build_batches(netlist))
    return cached[1]


def _build_batches(netlist: Netlist) -> List[EvalBatch]:
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
    """Per-kind batch evaluation: the bit-exact oracle of the one-formula
    :meth:`repro.sim.levelize.EvalPlan.evaluate`."""
    for batch in eval_batches(netlist):
        ins = [values[idx] for idx in batch.input_nets]
        values[batch.output_nets] = eval_cell_word(batch.kind, ins, mask=mask)


class ReferenceCycleSim:
    """The tests' zero-delay cycle simulator: one run, no lanes, no plan.

    A cycle settles the DFF and input-port bits through
    :func:`evaluate_reference`, samples every output port bit by bit, lets
    the environment react, and latches the D pins.  The state fingerprint
    is the DFF bytes, the sorted input-port values and the environment's
    fingerprint: the definition ``PackedCycleSimulator.lane_fingerprint``
    must meet for a golden run to be comparable.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.q_nets = np.array([d.q for d in netlist.dffs], dtype=np.int64)
        self.d_nets = np.array([d.d for d in netlist.dffs], dtype=np.int64)
        self.values = np.zeros(netlist.num_nets, dtype=np.uint8)
        self.values[CONST1] = 1
        self.dff_values = self.values[self.q_nets]
        self.prev_settled = self.values.copy()
        self.inputs: Dict[str, int] = {}
        self.env: Optional[Environment] = None
        self.cycle = 0

    def reset(self, env: Environment) -> None:
        self.env = env
        self.dff_values = np.array(
            [d.init for d in self.netlist.dffs], dtype=np.uint8
        )
        self.inputs = dict(env.reset())
        self.cycle = 0
        self.settle()
        self.prev_settled = self.values.copy()

    def restore(self, checkpoint: Checkpoint, env: Environment) -> None:
        self.env = env
        env.restore(checkpoint.env_snapshot)
        self.dff_values = checkpoint.dff_values.copy()
        self.inputs = dict(checkpoint.input_values)
        self.prev_settled = checkpoint.prev_settled.copy()
        self.cycle = checkpoint.cycle

    def settle(self) -> None:
        self.values[self.q_nets] = self.dff_values
        for name, nets in self.netlist.input_ports.items():
            word = self.inputs.get(name, 0)
            for bit, net in enumerate(nets):
                self.values[net] = (word >> bit) & 1
        evaluate_reference(self.netlist, self.values)

    def outputs(self) -> Dict[str, int]:
        values = self.values
        return {
            name: sum(int(values[net]) << bit for bit, net in enumerate(nets))
            for name, nets in self.netlist.output_ports.items()
        }

    def step(self) -> Dict[str, int]:
        self.settle()
        outputs = self.outputs()
        self.inputs = dict(self.env.step(outputs, self.cycle))
        self.prev_settled = self.values.copy()
        self.dff_values = self.values[self.d_nets]
        self.cycle += 1
        return outputs

    def override(self, overrides: Dict[int, int]) -> None:
        for index, value in overrides.items():
            self.dff_values[index] = value & 1

    def fingerprint(self) -> int:
        inputs_key = tuple(sorted(self.inputs.items()))
        return hash(
            (self.dff_values.tobytes(), inputs_key, self.env.fingerprint())
        )

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(
            cycle=self.cycle,
            dff_values=self.dff_values.copy(),
            input_values=dict(self.inputs),
            env_snapshot=self.env.snapshot(),
            prev_settled=self.prev_settled.copy(),
        )


def reference_run(
    netlist: Netlist, env: Environment, max_cycles: int, checkpoint_cycles=()
) -> RunResult:
    """The reference golden run, recorded as the production golden loop
    records one: a fingerprint and a packed DFF row at the start of every
    cycle, a checkpoint at each of *checkpoint_cycles*, until the
    environment halts or *max_cycles* pass."""
    sim = ReferenceCycleSim(netlist)
    sim.reset(env)
    wanted = set(checkpoint_cycles)
    run = RunResult(cycles=0, halted=False, observables=())
    states = []
    for _ in range(max_cycles):
        run.fingerprints.append(sim.fingerprint())
        states.append(sim.dff_values)
        if sim.cycle in wanted:
            run.checkpoints[sim.cycle] = sim.checkpoint()
        sim.step()
        if env.halted():
            break
    run.cycles = sim.cycle
    run.halted = env.halted()
    run.observables = env.observables()
    run.dff_rows = np.packbits(np.stack(states), axis=1)
    return run


def run_injected(
    analyzer, checkpoint: Checkpoint, overrides: Dict[int, int],
    at_next_boundary: bool = True,
) -> Outcome:
    """The reference GroupACE verdict of one injection: one scalar run.

    Restores *checkpoint* on a :class:`ReferenceCycleSim` (after one
    fault-free step with *at_next_boundary*), forces *overrides*, and runs
    against *analyzer*'s golden run: masked, or SDC if the output so far
    differs, once the state's fingerprint meets the golden one of the same
    cycle; DUE at the budget (golden length + margin); after a halt,
    masked, DUE on a trap, or SDC.
    """
    golden = analyzer.golden
    env = analyzer.system.make_env(analyzer.program)
    sim = ReferenceCycleSim(analyzer.system.netlist)
    sim.restore(checkpoint, env)
    if at_next_boundary:
        sim.step()
    sim.override(overrides)
    budget = golden.cycles + analyzer.margin_cycles
    while True:
        cycle = sim.cycle
        if (
            cycle < len(golden.fingerprints)
            and sim.fingerprint() == golden.fingerprints[cycle]
        ):
            produced = env.observables()
            if produced == golden.observables[: len(produced)]:
                return Outcome.MASKED
            return Outcome.SDC
        if cycle >= budget:
            return Outcome.DUE
        sim.step()
        if env.halted():
            break
    produced = env.observables()
    if produced == golden.observables:
        return Outcome.MASKED
    if any(event and event[0] == "trap" for event in produced):
        return Outcome.DUE
    return Outcome.SDC


def seed_verdict(
    analyzer, checkpoint: Checkpoint, overrides: Dict[int, int],
    at_next_boundary: bool = True,
) -> Outcome:
    """Put the reference verdict of one query into *analyzer*'s memo (one
    :func:`run_injected`, counted as ``reference_runs``), so the analyzer
    answers it without an injected run of its own."""
    items = tuple(sorted(overrides.items()))
    key = (checkpoint.cycle, at_next_boundary, items)
    outcome = analyzer._cache.get(key)
    if outcome is None:
        outcome = run_injected(
            analyzer, checkpoint, overrides, at_next_boundary
        )
        analyzer._cache[key] = outcome
        analyzer.telemetry.incr("reference_runs")
    return outcome


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


def _recompute_output(kind, pin_waves, delay: float) -> list:
    """Output waveform of one cell under transport-delay semantics: the
    scalar kernel of :func:`frontier_walk_errors`, on :func:`eval_cell`.

    *pin_waves* holds each input pin's ``(initial value, changes)``.
    """
    current = [initial for initial, _ in pin_waves]
    last = eval_cell(kind, current)
    events = []
    for pin, (_, wf) in enumerate(pin_waves):
        for t, v in wf:
            events.append((t, pin, v))
    events.sort()
    out = []
    i = 0
    count = len(events)
    while i < count:
        t = events[i][0]
        while i < count and events[i][0] == t:
            _, pin, v = events[i]
            current[pin] = v
            i += 1
        value = eval_cell(kind, current)
        if value != last:
            out.append((t + delay, value))
            last = value
    return out


def frontier_walk_errors(ev, waves, wire, extra_delay: float) -> Dict[int, int]:
    """Reference dynamically reachable set: one heap-frontier cone walk.

    Replays *wire*'s fan-out cone cell by cell in (level, cell) order with
    the source waveform shifted by *extra_delay*, stopping where a
    recomputed waveform converges with the fault-free one — no lanes, no
    word packing and no settled-source skip, and every cell evaluated by
    :func:`_recompute_output` on :func:`eval_cell`.  The oracle the event
    simulator's cone pass (``EventSimulator.resimulate_batch``) must match
    exactly.
    """
    import heapq

    from repro.netlist.netlist import PinType
    from repro.sim.eventsim import value_at

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
    fresh session, with no prefetch.  Each injection's memo entries are
    seeded first: its dynamically reachable set from
    :func:`frontier_walk_errors` rather than the cone pass, and the verdict
    of every GroupACE query the evaluator then asks (the set, and for ORACE
    its single-bit members up to the first failing one) from
    :func:`run_injected`, so the session runs no injected run of its own.
    Returns ``({delay: records}, telemetry)``, the records in merge order.
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
    period = system.clock_period
    analyzer = session.group_ace
    for shard in plan.shards:
        waves = session.waveforms(shard.cycle)
        checkpoint = session.checkpoint(shard.cycle)
        for index in shard.wire_indices:
            wire = wires[index]
            for delay in shard.delay_fractions:
                errors = frontier_walk_errors(
                    system.event_sim, waves, wire, delay * period
                )
                waves.resim_cache[(wire, delay)] = errors
                if errors:
                    seed_verdict(analyzer, checkpoint, errors)
                if config.compute_orace and len(errors) > 1:
                    for dff, value in errors.items():
                        if seed_verdict(
                            analyzer, checkpoint, {dff: value}
                        ).is_failure:
                            break
                by_delay[delay].append(session.evaluator.evaluate(
                    waves, checkpoint, wire, index, delay,
                    with_orace=config.compute_orace,
                ))
    assert session.telemetry.count("group_ace_runs") == 0
    return by_delay, session.telemetry


def assert_resolved_in_batches(telemetry) -> None:
    """A cold campaign's sets came from its batched pass, not record by record.

    Every toggling, statically reachable record must find its set in the
    memo the batched pass filled: a per-record memo miss is re-simulated
    as a one-query batch through the same kernel and would give the same
    records, so only the counters tell the two apart.  Some cone word must
    also have carried two or more lanes (one query at a time, every word is
    a one-lane word at full occupancy).  ``resim_cache_hits`` counts each
    record once, on the per-record path, whatever batch found the memo
    first; ``batch_resims`` counts only this campaign's re-simulations, so
    this holds for a campaign whose records came from no record cache and
    whose queries no earlier run resolved.
    """
    lookups = (
        telemetry.count("injections")
        - telemetry.count("static_unreachable")
        - telemetry.count("toggle_skips")
    )
    assert lookups > 0
    assert telemetry.count("resim_cache_hits") == lookups
    assert telemetry.count("batch_resims") == lookups
    assert telemetry.count("packed_cone_lanes") > telemetry.count(
        "packed_cone_words"
    )


def scalar_savf(system, program, config, structure, max_bits, seed):
    """Per-bit scalar reference of one sAVF campaign.

    Flips every sampled state bit at every sampled cycle of a fresh session
    and asks :meth:`GroupAceAnalyzer.outcome_of_state_errors` one bit at a
    time, with no prefetch, each verdict seeded from :func:`run_injected`.
    Returns ``(SAVFResult, telemetry)``.
    """
    from repro.core.campaign import CampaignSession
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
            overrides = {dff.index: int(checkpoint.dff_values[dff.index]) ^ 1}
            seed_verdict(session.group_ace, checkpoint, overrides, False)
            outcomes.append(session.group_ace.outcome_of_state_errors(
                checkpoint, overrides, at_next_boundary=False
            ))
    result = SAVFResult(
        structure=structure,
        benchmark=program.name,
        samples=len(outcomes),
        ace_count=sum(outcome.is_failure for outcome in outcomes),
        sdc_count=outcomes.count(Outcome.SDC),
        due_count=outcomes.count(Outcome.DUE),
    )
    assert session.telemetry.count("group_ace_runs") == 0
    return result, session.telemetry


def encode_word(data: int) -> int:
    """Software Hamming(38,32) model: encode 32-bit *data* into a 38-bit
    codeword (data low, parity high), for checking :mod:`repro.soc.ecc`."""
    parity = 0
    for j in range(PARITY_BITS):
        p = 0
        for i, pos in enumerate(DATA_POSITIONS):
            if pos & (1 << j):
                p ^= (data >> i) & 1
        parity |= p << j
    return (data & 0xFFFFFFFF) | (parity << DATA_BITS)


def decode_word(code: int) -> Tuple[int, int]:
    """Decode a 38-bit codeword; returns ``(corrected_data, syndrome)``."""
    syndrome = 0
    for j in range(PARITY_BITS):
        s = (code >> (DATA_BITS + j)) & 1
        for i, pos in enumerate(DATA_POSITIONS):
            if pos & (1 << j):
                s ^= (code >> i) & 1
        syndrome |= s << j
    data = code & 0xFFFFFFFF
    if syndrome in DATA_POSITIONS:
        data ^= 1 << DATA_POSITIONS.index(syndrome)
    return data, syndrome
