"""Timing-aware transport-delay event-driven simulator.

This implements the *timing-aware step* of the paper's two-step methodology
(Section V-B): determining which state elements latch an incorrect value — the
**dynamically reachable set** — when a small delay fault is injected on one
wire during one cycle.

Key structure (mirroring the paper's §V-C optimizations):

- :meth:`EventSimulator.simulate_cycle` runs a *fault-free* event-driven
  simulation of a single cycle once, recording per-net waveforms.  This is
  shared by every injection performed at that cycle.
- :meth:`EventSimulator.resimulate_batch` answers any number of same-cycle
  injections, one as well as many.  Each injection replays only the fan-out
  cone of its faulted wire with the source waveform shifted by the extra
  delay ``d``, stopping wherever the recomputed waveform matches the
  fault-free one, and reports the state elements whose latched value
  differs from the fault-free next state.  A non-toggling source or an
  output-port sink latches nothing, and a direct DFF.D sink latches the
  shifted waveform itself; neither needs a cone.  Before any cone work the
  *settled-source skip* (:meth:`EventSimulator.source_settles`) answers an
  injection whose shifted source settles, through its sink cell's worst
  downstream path, before the capture edge: it latches nothing (counted in
  ``slack_skips``).
- The rest are grouped by faulted sink cell.  A :class:`ConeIndex` owned by
  the simulator precomputes each sink's transitive fan-out cone in
  levelized evaluation order once per netlist, and one *cone pass* walks
  the shared cone once, gathering each cell's fault-free input slices a
  single time while evaluating every independent injection (different
  delay fractions of the same wire, or different wires into the same sink
  cell) as its own *lane*.  Lanes never share recomputed values —
  transport-delay glitch semantics mean a larger delay may legally
  *shrink* the reachable set, so no monotonicity shortcut is sound — only
  the structure walk and the fault-free waveform slices are shared.
- Inside a cone pass, the lanes dirty at one cell are *word-packed*
  (classic parallel fault simulation, up to :data:`MAX_LANES` bit-planes
  of a Python int): the merged event stream over the union of the lanes'
  input-event times is applied to packed pin words — shared fault-free pin
  events once with a multi-lane mask, per-lane private waveforms on their
  own plane — and :func:`repro.netlist.cells.eval_cell_word` evaluates the
  cell once per distinct event time instead of once per lane.  A lane's
  output bit can only change at that lane's own input-event times (planes
  are disjoint), so extracting each lane's change-subsequence reproduces
  the per-lane waveform bit-exactly, transport-delay glitches included.  A
  lone dirty lane is a one-plane word of the same kernel.

Transport-delay semantics are used: a cell's output waveform is its logic
function applied to the input waveforms, shifted by the cell's propagation
delay (no inertial pulse filtering), so glitches propagate — including the
paper's observation that a *larger* delay can occasionally shrink the
dynamically reachable set by re-latching a correct value.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from typing import TYPE_CHECKING

from repro.netlist.cells import eval_cell, eval_cell_word
from repro.netlist.netlist import Netlist, PinType, Wire
from repro.sim.packed import MAX_LANES

# Memoized lazy import: a top-level ``from repro.core import tracing`` here
# would re-enter repro.core's eager package init while *this* module is still
# initializing (repro.sim -> eventsim -> repro.core -> campaign -> eventsim),
# so the tracing module is resolved on first use instead.
_tracing = None


def _trace():
    global _tracing
    if _tracing is None:
        from repro.core import tracing as _module

        _tracing = _module
    return _tracing

if TYPE_CHECKING:  # avoid a circular import; only needed for annotations
    from repro.timing.sta import StaticTiming

#: A waveform: time-ordered (time, value) committed changes within a cycle.
Waveform = List[Tuple[float, int]]

#: Changes occurring at most this far past the ideal edge are still captured
#: (guards against float round-off on the critical path, where the fault-free
#: arrival equals the clock period by construction).
_CAPTURE_EPS = 1e-9

_INF = float("inf")

#: How far before the capture edge a shifted source must settle to be
#: skipped: far above float round-off and :data:`_CAPTURE_EPS`.
SETTLE_MARGIN = 1e-6

#: Shared read-only empty waveform (avoids allocating one per untouched pin).
_NO_CHANGES: Waveform = []

@dataclass
class CycleWaveforms:
    """Fault-free waveforms of one cycle.

    ``initial`` holds each net's value just before the clock edge (the
    previous cycle's settled values); ``final`` holds the settled values at
    the end of the cycle; ``changes`` holds the committed transitions of
    every net that toggles.
    """

    cycle: int
    initial: np.ndarray
    final: np.ndarray
    changes: Dict[int, Waveform]
    #: memo for injection results computed against these waveforms, keyed by
    #: (wire, extra delay) — owned by callers (e.g. DynamicReachability)
    resim_cache: Dict = field(default_factory=dict, repr=False, compare=False)

    def toggles(self, net: int) -> bool:
        """Whether *net* transitions at all during this cycle."""
        return net in self.changes


def value_at(initial: int, changes: Waveform, time: float) -> int:
    """Value of a waveform at sampling time *time* (changes at <= time apply).

    Change lists are time-ordered, so the applicable change is found by
    bisection rather than a linear scan.
    """
    idx = bisect_right(changes, (time + _CAPTURE_EPS, _INF))
    return changes[idx - 1][1] if idx else initial


@dataclass(frozen=True)
class _Cone:
    """A transitive fan-out cone frozen in levelized evaluation order."""

    cells: Tuple[int, ...]  #: cone cells sorted by (topological level, index)
    pos: Dict[int, int]  #: cell -> position in ``cells``


class ConeIndex:
    """Per-root fan-out cones with their levelized evaluation order.

    The cone of a faulted sink is a static property of the netlist, so it is
    computed once per root set and reused by every re-simulation (any cycle,
    any delay) that starts there — the structure-sharing insight: queries
    change, the cone does not.  ``hits`` / ``builds`` feed the campaign
    telemetry's ``cone_index_hits`` counter.
    """

    def __init__(
        self,
        netlist: Netlist,
        sta: "StaticTiming",
        fanout_cells: List[List[Tuple[int, int]]],
    ):
        self._netlist = netlist
        self._sta = sta
        self._fanout_cells = fanout_cells
        self._cones: Dict[Tuple[int, ...], _Cone] = {}
        self.hits = 0
        self.builds = 0

    def cone(self, roots: Tuple[int, ...]) -> _Cone:
        """The union fan-out cone of the *roots* cells (roots included)."""
        cached = self._cones.get(roots)
        if cached is not None:
            self.hits += 1
            return cached
        self.builds += 1
        with _trace().span("sim.cone_build", cat="sim", roots=len(roots)):
            netlist = self._netlist
            fanout_cells = self._fanout_cells
            seen = set(roots)
            stack = list(roots)
            while stack:
                cell = stack.pop()
                for nxt, _pin in fanout_cells[netlist.cell_outputs[cell]]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            levels = self._sta.cell_levels
            cells = tuple(sorted(seen, key=lambda c: (levels[c], c)))
            cone = _Cone(cells=cells, pos={c: p for p, c in enumerate(cells)})
            self._cones[roots] = cone
            return cone


class _Lane:
    """One independent injection evaluated during a shared cone pass."""

    __slots__ = ("overrides", "modified", "errors")

    def __init__(self, overrides: Dict[Tuple[int, int], Waveform]):
        self.overrides = overrides  #: (cell, pin) -> shifted source waveform
        self.modified: Dict[int, Waveform] = {}  #: net -> recomputed waveform
        self.errors: Dict[int, int] = {}  #: dff -> erroneous latched value


class EventSimulator:
    """Transport-delay event-driven simulation of single cycles."""

    def __init__(self, netlist: Netlist, sta: "StaticTiming"):
        if not netlist.frozen:
            netlist.freeze()
        self.netlist = netlist
        self.sta = sta
        self._fanout_cells: List[List[Tuple[int, int]]] = []
        self._fanout_dffs: List[List[int]] = []
        for net in range(netlist.num_nets):
            cells = []
            dffs = []
            for sink in netlist.fanout_of(net):
                if sink.pin_type is PinType.CELL_IN:
                    cells.append((sink.owner, sink.pin))
                elif sink.pin_type is PinType.DFF_D:
                    dffs.append(sink.owner)
            self._fanout_cells.append(cells)
            self._fanout_dffs.append(dffs)
        self.cone_index = ConeIndex(netlist, sta, self._fanout_cells)
        #: injections evaluated as cone-pass lanes
        self.batch_resims = 0
        #: word-packed cell evaluations inside cone passes
        self.packed_cone_words = 0
        #: dirty lanes evaluated through those packed words
        self.packed_cone_lanes = 0
        #: pack capacity of those words (sum of pack sizes; the occupancy
        #: gauge is ``packed_cone_lanes / packed_cone_lane_slots``)
        self.packed_cone_lane_slots = 0
        #: injections the settled-source skip answered without a cone lane
        self.slack_skips = 0

    # ------------------------------------------------------------------
    # Fault-free cycle simulation
    # ------------------------------------------------------------------
    def simulate_cycle(
        self,
        prev_settled: np.ndarray,
        dff_values: np.ndarray,
        input_values: Dict[str, int],
        cycle: int = 0,
    ) -> CycleWaveforms:
        """Event-simulate one fault-free cycle and record all waveforms.

        *prev_settled* are the settled net values of the previous cycle;
        *dff_values* / *input_values* give the state driven out at the clock
        edge of this cycle.
        """
        netlist = self.netlist
        values: List[int] = prev_settled.astype(np.uint8).tolist()
        changes: Dict[int, Waveform] = {}
        clk_to_q = self.sta.library.dff_clk_to_q_ps
        heap: List[Tuple[float, int, int, int]] = []
        seq = 0
        for dff in netlist.dffs:
            new = int(dff_values[dff.index]) & 1
            if new != values[dff.q]:
                heap.append((clk_to_q, seq, dff.q, new))
                seq += 1
        for name, nets in netlist.input_ports.items():
            word = input_values.get(name, 0)
            for bit, net in enumerate(nets):
                new = (word >> bit) & 1
                if new != values[net]:
                    heap.append((clk_to_q, seq, net, new))
                    seq += 1
        heapq.heapify(heap)
        cell_inputs = netlist.cell_inputs
        cell_kinds = netlist.cell_kinds
        cell_outputs = netlist.cell_outputs
        cell_delay = self.sta.cell_delay
        while heap:
            t = heap[0][0]
            updates: Dict[int, int] = {}
            while heap and heap[0][0] == t:
                _, _, net, value = heapq.heappop(heap)
                updates[net] = value
            affected: Dict[int, None] = {}
            for net, value in updates.items():
                if value == values[net]:
                    continue
                values[net] = value
                changes.setdefault(net, []).append((t, value))
                for cell, _pin in self._fanout_cells[net]:
                    affected[cell] = None
            for cell in affected:
                out_value = eval_cell_word(
                    cell_kinds[cell], [values[n] for n in cell_inputs[cell]]
                )
                heapq.heappush(
                    heap,
                    (t + float(cell_delay[cell]), seq, cell_outputs[cell], out_value),
                )
                seq += 1
        return CycleWaveforms(
            cycle=cycle,
            initial=prev_settled.copy(),
            final=np.array(values, dtype=np.uint8),
            changes=changes,
        )

    # ------------------------------------------------------------------
    # Incremental faulty re-simulation
    # ------------------------------------------------------------------
    def source_settles(
        self, waves: CycleWaveforms, wire: Wire, extra_delay: float
    ) -> bool:
        """Whether an SDF on pin *p* of cell *c* provably latches nothing.

        Under transport delay every DFF samples *p* only at instants at or
        after ``period - (cell_delay[c] + downstream[out(c)])``; a shifted
        source whose last change comes :data:`SETTLE_MARGIN` before that
        holds the fault-free final value wherever it is sampled.
        """
        base = waves.changes.get(wire.net)
        sink = wire.sink
        if not base or sink.pin_type is not PinType.CELL_IN:
            return False
        sta, cell = self.sta, sink.owner
        bound = sta.cell_delay[cell] + sta.downstream[self.netlist.cell_outputs[cell]]
        return base[-1][0] + extra_delay + bound <= sta.clock_period - SETTLE_MARGIN

    def resimulate_batch(
        self,
        waves: CycleWaveforms,
        injections: Sequence[Tuple[Wire, float]],
        lanes: int = MAX_LANES,
    ) -> List[Dict[int, int]]:
        """Dynamically reachable sets of same-cycle SDFs of *extra* on *wire*.

        Returns one ``{dff_index: erroneous latched value}`` dict per
        ``(wire, extra)`` injection, in input order: every state element
        that latches an incorrect value — the paper's
        ``DynamicReachable_d(e, i)``, including the wrong values needed by
        the GroupACE step.  A dict is empty when the fault is masked.

        A non-toggling source or an output-port sink answers ``{}`` and a
        direct DFF.D sink latches its shifted source; settled sources
        (:meth:`source_settles`) answer ``{}`` with no lane.  The rest are
        grouped by faulted sink cell, and each group walks its sink's
        precomputed fan-out cone (from the :class:`ConeIndex`) once: every
        cell's fault-free input slices are gathered a single time while all
        the group's injections — independent delay fractions of one wire,
        or different wires into the same cell — evaluate as separate lanes,
        word-packed up to *lanes* bit-planes wide.  No value is reused
        across lanes and no monotonicity shortcut is taken, so a lane's
        result does not depend on what shares its word.
        """
        if not 1 <= lanes <= MAX_LANES:
            raise ValueError(
                f"lanes must be in 1..{MAX_LANES}, got {lanes}"
            )
        words_before = self.packed_cone_words
        lanes_before = self.packed_cone_lanes
        slots_before = self.packed_cone_lane_slots
        with _trace().span(
            "sim.batch_resim", cat="sim",
            cycle=waves.cycle, injections=len(injections), lanes=lanes,
        ):
            results = self._resimulate_batch_body(waves, injections, lanes)
        packed_words = self.packed_cone_words - words_before
        if packed_words:
            _trace().instant(
                "sim.packed_cones", cat="sim",
                words=packed_words,
                lanes=self.packed_cone_lanes - lanes_before,
                slots=self.packed_cone_lane_slots - slots_before,
            )
        return results

    def _resimulate_batch_body(
        self,
        waves: CycleWaveforms,
        injections: Sequence[Tuple[Wire, float]],
        lanes: int,
    ) -> List[Dict[int, int]]:
        period = self.sta.clock_period
        results: List[Optional[Dict[int, int]]] = [None] * len(injections)
        groups: Dict[int, List[int]] = {}
        for i, (wire, extra) in enumerate(injections):
            base = waves.changes.get(wire.net)
            sink = wire.sink
            if not base or sink.pin_type is PinType.OUTPORT:
                # §V-C: a non-toggling source latches nothing; neither does
                # a wire into an output port.
                results[i] = {}
            elif sink.pin_type is PinType.DFF_D:
                # The DFF latches the shifted source itself.
                shifted = [(t + extra, v) for t, v in base]
                net = wire.net
                latched = value_at(int(waves.initial[net]), shifted, period)
                golden = int(waves.final[net])
                results[i] = {sink.owner: latched} if latched != golden else {}
            elif self.source_settles(waves, wire, extra):
                self.slack_skips += 1
                results[i] = {}
            else:
                groups.setdefault(sink.owner, []).append(i)
        for root, idxs in groups.items():
            cone = self.cone_index.cone((root,))
            # Chunk the group to the lane width so every pass fits one word.
            for start in range(0, len(idxs), lanes):
                chunk = idxs[start : start + lanes]
                lane_objs = []
                for i in chunk:
                    wire, extra = injections[i]
                    shifted = [
                        (t + extra, v) for t, v in waves.changes[wire.net]
                    ]
                    lane_objs.append(_Lane({(root, wire.sink.pin): shifted}))
                self._cone_pass(waves, cone, lane_objs)
                self.batch_resims += len(chunk)
                for lane, i in zip(lane_objs, chunk):
                    results[i] = lane.errors
        return results  # type: ignore[return-value]

    def _cone_pass(
        self, waves: CycleWaveforms, cone: _Cone, lanes: List[_Lane]
    ) -> None:
        """Walk *cone* in levelized order, evaluating every lane's injection.

        Equivalent to an event-driven frontier walk run once per lane: a
        cell's fan-out is always at a strictly greater level, so walking the
        precomputed cone order and skipping cells no lane has marked dirty
        evaluates each dirty cell once, after every cell that feeds it.
        Per-cell fault-free data (input slices, baseline output waveform,
        delay) is gathered once and shared by all lanes.

        The lanes dirty at a cell are recomputed as one *word*: lane *k* of
        the dirty set rides bit plane *k*, shared fault-free pin events are
        applied once under a multi-lane mask, private (override / previously
        modified) waveforms land on their own plane, and the cell is
        evaluated once per distinct event time of the merged stream.  Plane
        disjointness means a lane's output bit only moves at that lane's own
        input-event times, so each extracted change-subsequence is that
        lane's transport-delay output waveform exactly — same times, same
        values, glitches included.  A lone dirty lane is a one-plane word.
        """
        netlist = self.netlist
        period = self.sta.clock_period
        changes = waves.changes
        initial = waves.initial
        final = waves.final
        cell_inputs = netlist.cell_inputs
        cell_kinds = netlist.cell_kinds
        cell_outputs = netlist.cell_outputs
        cell_delay = self.sta.cell_delay
        fanout_cells = self._fanout_cells
        fanout_dffs = self._fanout_dffs
        cells = cone.cells
        pos_of = cone.pos

        #: position -> lanes that must evaluate the cell at that position
        want: List[Optional[List[_Lane]]] = [None] * len(cells)
        outstanding = 0
        for lane in lanes:
            for cell, _pin in lane.overrides:
                p = pos_of[cell]
                entry = want[p]
                if entry is None:
                    want[p] = [lane]
                    outstanding += 1
                elif lane not in entry:
                    entry.append(lane)

        pack_size = len(lanes)
        for p in range(len(cells)):
            if not outstanding:
                break
            entry = want[p]
            if entry is None:
                continue
            outstanding -= 1
            cell = cells[p]
            out_net = cell_outputs[cell]
            kind = cell_kinds[cell]
            delay = float(cell_delay[cell])
            # Lane k of the entry rides bit plane k of every word.
            n_dirty = len(entry)
            full = (1 << n_dirty) - 1
            current: List[int] = []
            events: List[Tuple[float, int, int, int]] = []
            for pin, in_net in enumerate(cell_inputs[cell]):
                base_mask = 0
                for li, lane in enumerate(entry):
                    wf = lane.overrides.get((cell, pin))
                    if wf is None:
                        wf = lane.modified.get(in_net)
                    if wf is None:
                        base_mask |= 1 << li
                    else:
                        bit = 1 << li
                        for t, v in wf:
                            events.append((t, pin, v, bit))
                if base_mask:
                    for t, v in changes.get(in_net, _NO_CHANGES):
                        events.append((t, pin, v, base_mask))
                current.append(full if initial[in_net] else 0)
            events.sort()
            last_word = eval_cell_word(kind, current, full)
            out_wfs: List[Waveform] = [[] for _ in range(n_dirty)]
            i = 0
            count = len(events)
            while i < count:
                t = events[i][0]
                while i < count and events[i][0] == t:
                    _, pin, v, m = events[i]
                    if v:
                        current[pin] |= m
                    else:
                        current[pin] &= full ^ m
                    i += 1
                word = eval_cell_word(kind, current, full)
                diff = word ^ last_word
                if diff:
                    tt = t + delay
                    li = 0
                    while diff:
                        if diff & 1:
                            out_wfs[li].append((tt, (word >> li) & 1))
                        diff >>= 1
                        li += 1
                    last_word = word
            self.packed_cone_words += 1
            self.packed_cone_lanes += n_dirty
            self.packed_cone_lane_slots += pack_size
            base_out = changes.get(out_net, _NO_CHANGES)
            for lane, out_wf in zip(entry, out_wfs):
                if out_wf == base_out:
                    continue  # converged with the fault-free waveform
                lane.modified[out_net] = out_wf
                latched = value_at(int(initial[out_net]), out_wf, period)
                if latched != int(final[out_net]):
                    for dff in fanout_dffs[out_net]:
                        lane.errors[dff] = latched
                else:
                    for dff in fanout_dffs[out_net]:
                        lane.errors.pop(dff, None)
                for next_cell, _pin in fanout_cells[out_net]:
                    np_ = pos_of[next_cell]
                    nxt = want[np_]
                    if nxt is None:
                        want[np_] = [lane]
                        outstanding += 1
                    elif lane not in nxt:
                        nxt.append(lane)

    def resimulate_output_fault(
        self, waves: CycleWaveforms, net: int, extra_delay: float
    ) -> Dict[int, int]:
        """Dynamically reachable set of an SDF on a *circuit element output*.

        Section IV-A: a fault at a gate/state-element output is modeled as a
        delay on an extra wire inserted at the output, delaying the signal
        towards *all* downstream sinks.  Implemented by overriding every
        fan-out pin of *net* with the shifted waveform and re-simulating the
        union cone (served by the :class:`ConeIndex` like the batched path).
        """
        base = waves.changes.get(net)
        if not base:
            return {}
        period = self.sta.clock_period
        shifted: Waveform = [(t + extra_delay, v) for t, v in base]
        errors: Dict[int, int] = {}
        # Directly-driven state elements latch the shifted waveform.
        for dff in self._fanout_dffs[net]:
            latched = value_at(int(waves.initial[net]), shifted, period)
            if latched != int(waves.final[net]):
                errors[dff] = latched
        sinks = self._fanout_cells[net]
        if not sinks:
            return errors
        roots = tuple(sorted({cell for cell, _pin in sinks}))
        cone = self.cone_index.cone(roots)
        lane = _Lane({(cell, pin): shifted for cell, pin in sinks})
        lane.errors = errors
        self._cone_pass(waves, cone, [lane])
        return lane.errors

    # ------------------------------------------------------------------
    # Brute-force oracle (testing)
    # ------------------------------------------------------------------
    def simulate_cycle_with_fault(
        self,
        prev_settled: np.ndarray,
        dff_values: np.ndarray,
        input_values: Dict[str, int],
        wire: Wire,
        extra_delay: float,
    ) -> Dict[int, int]:
        """Full (non-incremental) faulty-cycle simulation.

        An independent oracle for :meth:`resimulate_batch`: re-runs the
        entire event-driven simulation with the per-edge delay injected
        directly (via a shadow value on the faulted sink pin) and reports
        every DFF whose latched value differs from the fault-free next state.
        Used by the test suite to validate the incremental algorithm; far
        slower, as it never shares work across injections.
        """
        netlist = self.netlist
        golden = self.simulate_cycle(prev_settled, dff_values, input_values)
        period = self.sta.clock_period
        sink = wire.sink
        if sink.pin_type is PinType.OUTPORT:
            return {}

        values = prev_settled.astype(np.uint8).copy()
        at_period = values.copy()  # value of each net at the capture edge
        shadow = int(values[wire.net])  # delayed view seen by the faulted pin
        shadow_at_period = shadow
        clk_to_q = self.sta.library.dff_clk_to_q_ps
        SHADOW = -1
        heap: List[Tuple[float, int, int, int]] = []
        seq = 0
        for dff in netlist.dffs:
            new = int(dff_values[dff.index]) & 1
            if new != values[dff.q]:
                heap.append((clk_to_q, seq, dff.q, new))
                seq += 1
        for name, nets in netlist.input_ports.items():
            word = input_values.get(name, 0)
            for bit, net in enumerate(nets):
                new = (word >> bit) & 1
                if new != values[net]:
                    heap.append((clk_to_q, seq, net, new))
                    seq += 1
        heapq.heapify(heap)

        def eval_with_shadow(cell: int) -> int:
            ins = []
            for pin, net in enumerate(netlist.cell_inputs[cell]):
                if (
                    sink.pin_type is PinType.CELL_IN
                    and cell == sink.owner
                    and pin == sink.pin
                ):
                    ins.append(shadow)
                else:
                    ins.append(values[net])
            return eval_cell(netlist.cell_kinds[cell], ins)

        while heap:
            t = heap[0][0]
            updates: Dict[int, int] = {}
            while heap and heap[0][0] == t:
                _, _, net, value = heapq.heappop(heap)
                updates[net] = value
            affected: Dict[int, None] = {}
            for net, value in updates.items():
                if net == SHADOW:
                    if value == shadow:
                        continue
                    shadow = value
                    if t <= period + _CAPTURE_EPS:
                        shadow_at_period = value
                    if sink.pin_type is PinType.CELL_IN:
                        affected[sink.owner] = None
                    continue
                if value == values[net]:
                    continue
                values[net] = value
                if t <= period + _CAPTURE_EPS:
                    at_period[net] = value
                if net == wire.net:
                    heapq.heappush(heap, (t + extra_delay, seq, SHADOW, value))
                    seq += 1
                for cell, pin in self._fanout_cells[net]:
                    if (
                        sink.pin_type is PinType.CELL_IN
                        and cell == sink.owner
                        and pin == sink.pin
                    ):
                        continue  # this pin listens to the shadow instead
                    affected[cell] = None
            for cell in affected:
                heapq.heappush(
                    heap,
                    (
                        t + float(self.sta.cell_delay[cell]),
                        seq,
                        netlist.cell_outputs[cell],
                        eval_with_shadow(cell),
                    ),
                )
                seq += 1

        errors: Dict[int, int] = {}
        for dff in netlist.dffs:
            if dff.d == -1:
                continue
            if sink.pin_type is PinType.DFF_D and dff.index == sink.owner:
                latched = shadow_at_period
            else:
                latched = int(at_period[dff.d])
            if latched != int(golden.final[dff.d]):
                errors[dff.index] = latched
        return errors

