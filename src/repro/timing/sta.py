"""Static timing analysis over the gate-level netlist.

Implements the timing-side primitives of the DelayAVF methodology:

- forward arrival-time propagation and the design clock period (the paper
  sets the clock period equal to the longest register-to-register path);
- per-wire worst path length (``max_path_through``), the quantity behind the
  paper's Fig. 6 path-length distributions;
- the **statically reachable set** of a small delay fault (Definition 2): the
  state elements terminating a path through the faulted wire whose length
  exceeds the clock period once the extra delay *d* is added.  A batch of
  (wire, d) queries is answered by one levelized max-plus sweep, one numpy
  column per query (:meth:`StaticTiming.statically_reachable_batch`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.netlist.netlist import Netlist, PinType, Wire
from repro.sim.levelize import compute_cell_levels
from repro.timing.liberty import TimingLibrary

#: Tolerance for floating-point comparisons against the clock period.
_EPS = 1e-9

#: Queries one reach sweep carries as columns: enough to amortize the numpy
#: calls per level, few enough to keep its arrival matrix small.
REACH_COLUMNS = 32

_NONE: FrozenSet[int] = frozenset()


class StaticTiming:
    """Arrival times, clock period, and reachability queries for a netlist."""

    def __init__(
        self,
        netlist: Netlist,
        library: TimingLibrary,
        clock_period_ps: float | None = None,
    ):
        if not netlist.frozen:
            netlist.freeze()
        self.netlist = netlist
        self.library = library
        self.cell_levels = compute_cell_levels(netlist)
        self.cell_delay = np.zeros(netlist.num_cells, dtype=np.float64)
        for cell in range(netlist.num_cells):
            out = netlist.cell_outputs[cell]
            fanout = len(netlist.fanout_of(out))
            self.cell_delay[cell] = library.cell_delay(
                netlist.cell_kinds[cell], fanout
            )
        self.arrival = self._compute_arrivals()
        self.downstream = self._compute_downstream()
        #: Longest register-to-register path (the design's natural period).
        self.longest_path_ps = self._compute_clock_period()
        #: The operating clock period.  Defaults to the longest path, per the
        #: paper; an explicit *clock_period_ps* models over/under-clocking and
        #: is validated by preflight (a period below ``longest_path_ps`` means
        #: the fault-free design already misses setup — every "AVF" measured
        #: against it is meaningless).
        self.clock_period = (
            self.longest_path_ps if clock_period_ps is None else clock_period_ps
        )

    # ------------------------------------------------------------------
    # Forward / backward propagation
    # ------------------------------------------------------------------
    def _compute_arrivals(self) -> np.ndarray:
        """Latest signal arrival time at every net, from the clock edge."""
        netlist = self.netlist
        arrival = np.zeros(netlist.num_nets, dtype=np.float64)
        clk_to_q = self.library.dff_clk_to_q_ps
        for dff in netlist.dffs:
            arrival[dff.q] = clk_to_q
        for nets in netlist.input_ports.values():
            # Input ports are register-latched in the environment; they
            # transition like Q outputs at the clock edge.
            for net in nets:
                arrival[net] = clk_to_q
        order = sorted(range(netlist.num_cells), key=self.cell_levels.__getitem__)
        for cell in order:
            inputs = netlist.cell_inputs[cell]
            latest = max(arrival[net] for net in inputs)
            arrival[netlist.cell_outputs[cell]] = latest + self.cell_delay[cell]
        return arrival

    def _compute_downstream(self) -> np.ndarray:
        """Worst remaining delay from each net to any DFF D endpoint.

        ``-inf`` marks nets with no combinational path to a state element.
        """
        netlist = self.netlist
        downstream = np.full(netlist.num_nets, -np.inf, dtype=np.float64)
        for dff in netlist.dffs:
            if dff.d != -1:
                downstream[dff.d] = max(downstream[dff.d], 0.0)
        order = sorted(
            range(netlist.num_cells),
            key=self.cell_levels.__getitem__,
            reverse=True,
        )
        for cell in order:
            out = netlist.cell_outputs[cell]
            if downstream[out] == -np.inf:
                continue
            through = downstream[out] + self.cell_delay[cell]
            for net in netlist.cell_inputs[cell]:
                if through > downstream[net]:
                    downstream[net] = through
        return downstream

    def _compute_clock_period(self) -> float:
        period = 0.0
        for dff in self.netlist.dffs:
            if dff.d != -1:
                period = max(period, float(self.arrival[dff.d]))
        return period

    # ------------------------------------------------------------------
    # Per-wire queries
    # ------------------------------------------------------------------
    def max_path_through(self, wire: Wire) -> float:
        """Length of the longest reg-to-reg path routed through *wire*.

        Returns ``-inf`` if no path through the wire terminates in a state
        element (e.g. wires feeding only output ports).
        """
        base = float(self.arrival[wire.net])
        sink = wire.sink
        if sink.pin_type is PinType.DFF_D:
            return base
        if sink.pin_type is PinType.OUTPORT:
            return float("-inf")
        cell = sink.owner
        out = self.netlist.cell_outputs[cell]
        rest = self.downstream[out]
        if rest == -np.inf:
            return float("-inf")
        return base + float(self.cell_delay[cell]) + float(rest)

    def statically_reachable(
        self, wire: Wire, extra_delay: float
    ) -> FrozenSet[int]:
        """The statically reachable set of an SDF of *extra_delay* on *wire*."""
        return self.statically_reachable_batch([(wire, extra_delay)])[0]

    def statically_reachable_batch(
        self, queries: Sequence[Tuple[Wire, float]]
    ) -> List[FrozenSet[int]]:
        """Statically reachable sets of (wire, extra delay) queries, in order.

        Cell-pin queries, sorted by their sink's level, are swept
        :data:`REACH_COLUMNS` at a time in one levelized max-plus pass, one
        numpy column each: ``late[net, q]`` is the latest arrival at *net*
        over paths through query *q*'s wire.  Per level a cell takes the
        latest arrival over its pins (the faulted pin starts at the wire's
        arrival plus the extra delay) and adds its delay, and the column is
        cut to ``-inf`` wherever ``t + cell_delay + downstream[out] <=
        period + _EPS``: the pruned path walk's additions, in its order, so
        the sets are exact to the last bit.  A DFF is reached where its D
        net's arrival exceeds ``period + _EPS``.
        """
        threshold = self.clock_period + _EPS
        levels, slot, dff_ids, dff_d = self._reach_tables
        results = [_NONE] * len(queries)
        swept = []
        for pos, (wire, extra) in enumerate(queries):
            sink = wire.sink
            if sink.pin_type is PinType.CELL_IN:
                swept.append((self.cell_levels[sink.owner], slot[sink.owner], pos))
            elif sink.pin_type is PinType.DFF_D and (
                float(self.arrival[wire.net]) + extra > threshold
            ):
                results[pos] = frozenset((sink.owner,))
        swept.sort()
        for first in range(0, len(swept), REACH_COLUMNS):
            block = swept[first : first + REACH_COLUMNS]
            starts = np.array([
                float(self.arrival[queries[pos][0].net]) + queries[pos][1]
                for _, _, pos in block
            ])
            injected: Dict[int, Tuple[List[int], List[int]]] = {}
            for col, (level, row, _) in enumerate(block):
                rows, cols = injected.setdefault(level, ([], []))
                rows.append(row)
                cols.append(col)
            late = np.full((self.netlist.num_nets + 1, len(block)), -np.inf)
            for level in range(block[0][0], len(levels)):
                ins, outs, delay, down = levels[level]
                t = late[ins[0]]
                for row in ins[1:]:
                    np.maximum(t, late[row], out=t)
                if level in injected:
                    rows, cols = injected[level]
                    t[rows, cols] = starts[cols]
                t += delay
                late[outs] = np.where(t + down > threshold, t, -np.inf)
            for (_, _, pos), col in zip(block, (late[dff_d] > threshold).T):
                reached = np.flatnonzero(col).tolist()
                if reached:  # via a set: an iterator oversizes the table
                    results[pos] = frozenset(set(map(dff_ids.__getitem__, reached)))
        return results

    @cached_property
    def _reach_tables(self):
        """The reach sweep's per-level numpy tables, built on first use.

        Per level: input nets (one row per pin, padded with ``num_nets``,
        the always ``-inf`` row), output nets, delays and downstream bounds.
        ``slot`` is each cell's column in its level.
        """
        netlist = self.netlist
        depth = max(self.cell_levels, default=-1) + 1
        by_level: List[List[int]] = [[] for _ in range(depth)]
        slot = []
        for cell, level in enumerate(self.cell_levels):
            slot.append(len(by_level[level]))
            by_level[level].append(cell)
        levels = []
        for cells in by_level:
            pins = max(len(netlist.cell_inputs[cell]) for cell in cells)
            ins = np.array([
                list(netlist.cell_inputs[cell])
                + [netlist.num_nets] * (pins - len(netlist.cell_inputs[cell]))
                for cell in cells
            ], dtype=np.intp).T
            outs = np.array([netlist.cell_outputs[cell] for cell in cells])
            levels.append((ins, outs, self.cell_delay[cells][:, None],
                           self.downstream[outs][:, None]))
        dffs = [dff for dff in netlist.dffs if dff.d != -1]
        return levels, slot, [dff.index for dff in dffs], np.array(
            [dff.d for dff in dffs], dtype=np.intp
        )
