"""Topological levelization of a netlist into a vectorized evaluation plan.

The zero-delay cycle simulator evaluates all combinational cells once per
cycle.  Doing that cell-by-cell in Python is far too slow, so the netlist is
*levelized*: cells are assigned to topological levels (a cell's level is one
more than the deepest of its input producers), and cells within a level are
evaluated together.

Per-level evaluation is *fused* across cell kinds: every 1- and 2-input gate
is one of AND / OR / XOR up to output inversion (BUF and NOT duplicate their
single input), and because ``a | b == (a & b) | (a ^ b)`` the three bases
collapse into two terms:

    out = ((a & b) & ao_sel | (a ^ b) & ox_sel) ^ (inv_sel & mask)

where ``ao_sel`` (AND- or OR-shaped) / ``ox_sel`` (OR- or XOR-shaped) /
``inv_sel`` are per-cell constant planes (all-zeros or all-ones) baked at
plan-construction time, and MUX2 cells fuse as ``a ^ ((a ^ b) & s)``.  The
constants are full words, so the same fused pass evaluates every bit-plane
of the packed lane-parallel simulator at once — 8 lanes in uint8 arrays,
64 in uint64 — the step program is dtype-generic; masking ``inv_sel`` by
the active-plane mask keeps inactive planes at zero, bit-exact with
per-kind scalar evaluation.  :meth:`EvalPlan.evaluate` lazily compiles one
*program* per (dtype, mask) pair — a flat step list with pre-masked,
pre-widened constants — replacing hundreds of tiny allocating
per-(level, kind) numpy calls per cycle with a handful of in-place
whole-level ones.  The program cache is a small LRU
(:data:`PROGRAM_CACHE_CAP` entries): scalar simulation uses exactly one
mask and packed simulation one mask per active lane count, so the bound
never evicts in practice — it only guards against pathological 64-bit mask
diversity turning memoization into a leak.  This is the cycle simulator's
(and therefore GroupACE's) inner loop.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.netlist.cells import CellKind
from repro.netlist.netlist import Netlist

#: Bound on compiled step programs kept per plan (LRU eviction beyond it).
PROGRAM_CACHE_CAP = 32

#: Gate decomposition: kind -> (base function, inverted).  The base function
#: selects which of the three fused terms carries the cell; 1-input kinds
#: are expressed through AND with a duplicated input (a & a == a).
_GATE_FORM = {
    CellKind.BUF: ("and", False),
    CellKind.NOT: ("and", True),
    CellKind.AND2: ("and", False),
    CellKind.NAND2: ("and", True),
    CellKind.OR2: ("or", False),
    CellKind.NOR2: ("or", True),
    CellKind.XOR2: ("xor", False),
    CellKind.XNOR2: ("xor", True),
}


@dataclass(frozen=True)
class _FusedLevel:
    """One topological level compiled to constant-masked fused operations."""

    #: 1/2-input gates (b duplicates a for 1-input kinds)
    gate_a: np.ndarray
    gate_b: np.ndarray
    gate_out: np.ndarray
    ao_sel: np.ndarray  #: 0xFF where the (a & b) term carries (AND/OR-shaped)
    ox_sel: np.ndarray  #: 0xFF where the (a ^ b) term carries (OR/XOR-shaped)
    inv_sel: np.ndarray  #: 0xFF where the output is inverted
    #: MUX2 cells: out = b if s else a
    mux_a: np.ndarray
    mux_b: np.ndarray
    mux_s: np.ndarray
    mux_out: np.ndarray


@dataclass(frozen=True)
class EvalPlan:
    """The fused per-level programs that settle the combinational logic."""

    cell_levels: Tuple[int, ...]  #: topological level of every cell
    num_levels: int
    #: fused per-level compilation used by :meth:`evaluate`
    fused_levels: Tuple[_FusedLevel, ...] = field(default=(), repr=False)
    #: lazily compiled step programs, LRU-keyed by (dtype char, mask)
    _programs: "OrderedDict[Tuple[str, int], list]" = field(
        default_factory=OrderedDict, repr=False, compare=False
    )
    #: mutable cache statistics ({"evictions": n}) — surfaced in telemetry
    _program_stats: Dict[str, int] = field(
        default_factory=lambda: {"evictions": 0}, repr=False, compare=False
    )

    @property
    def program_cache_size(self) -> int:
        """Number of compiled (dtype, mask) step programs currently cached."""
        return len(self._programs)

    @property
    def program_cache_evictions(self) -> int:
        """Programs evicted so far by the :data:`PROGRAM_CACHE_CAP` bound."""
        return self._program_stats["evictions"]

    def _compile(self, mask: int, dtype: np.dtype) -> list:
        """Compile the fused levels into a flat step program for ``mask``.

        Selector and inversion constants are widened from their canonical
        uint8 form to *dtype* (all-ones stays all-ones in the wider word).
        Inversion constants are pre-masked so no trailing ``& mask`` is
        needed: the ``(a & b)`` / ``(a ^ b)`` terms cannot set inactive
        planes on their own (inputs are plane-clean), so XOR-ing a masked
        inversion constant is the only place active planes are introduced.

        Degenerate selectors are specialized away at compile time: an
        all-ones selector drops its masking op, an all-zeros selector drops
        its whole term (a level of pure AND/OR gates never computes the XOR
        term and vice versa), and an all-zeros inversion plane drops the
        final XOR.  A level holding both gates and MUXes compiles to a
        *single* step over the concatenated cell arrays: both formulas
        share the ``(a ^ b)`` term (for a MUX, ``out = a ^ ((a ^ b) & s)``),
        so the gate slice and the MUX slice of one gathered pair are
        finished with per-slice views instead of a second gather/scatter
        round-trip.  Typical levels run in 5-9 numpy ops instead of 9-16.
        """
        ones = int(np.iinfo(dtype).max)
        if not 0 < mask <= ones:
            raise ValueError(
                f"mask {mask:#x} does not fit the {np.dtype(dtype).name} "
                f"value planes"
            )

        def widen(sel: np.ndarray, value: int):
            """None for an all-zeros selector, True for all-ones, else a plane."""
            if not sel.any():
                return None
            if sel.all():
                return True
            out = np.zeros(sel.shape, dtype=dtype)
            out[sel != 0] = value
            return out

        _GATE, _MUX, _MIXED = 0, 1, 2
        steps: list = []
        for level in self.fused_levels:
            gates = len(level.gate_out)
            muxes = len(level.mux_out)
            if gates:
                inv = widen(level.inv_sel, mask)
                ao = widen(level.ao_sel, ones)
                ox = widen(level.ox_sel, ones)
                inv = mask if inv is True else inv
            if gates and muxes:
                steps.append(
                    (
                        _MIXED,
                        np.concatenate([level.gate_a, level.mux_a]),
                        np.concatenate([level.gate_b, level.mux_b]),
                        level.mux_s,
                        np.concatenate([level.gate_out, level.mux_out]),
                        gates,
                        ao,
                        ox,
                        inv,
                    )
                )
            elif gates:
                steps.append(
                    (_GATE, level.gate_a, level.gate_b, level.gate_out, ao, ox, inv)
                )
            elif muxes:
                steps.append(
                    (_MUX, level.mux_a, level.mux_b, level.mux_s, level.mux_out)
                )
        return steps

    def evaluate(self, values: np.ndarray, mask: int = 1) -> None:
        """Settle combinational logic in-place on the net-*values* array.

        ``mask`` selects the active bit-planes (see
        :func:`repro.netlist.cells.eval_cell_array`): 1 for a plain scalar
        simulation, ``(1 << lanes) - 1`` for lane-parallel simulation.  The
        dtype of *values* picks the word width (uint8 for up to 8 lanes,
        uint64 for up to 64); programs are compiled per (dtype, mask).
        Inputs must be clean w.r.t. ``mask`` (no bits set on inactive
        planes); both simulators maintain that invariant, and outputs stay
        clean.
        """
        key = (values.dtype.char, mask)
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = self._compile(mask, values.dtype)
            if len(self._programs) > PROGRAM_CACHE_CAP:
                self._programs.popitem(last=False)
                self._program_stats["evictions"] += 1
        else:
            self._programs.move_to_end(key)
        for step in program:
            tag = step[0]
            if tag == 0:  # gate-only level
                _, in_a, in_b, out_idx, ao, ox, inv = step
                a = values[in_a]
                b = values[in_b]
                if ao is None:  # pure XOR-shaped level: only the (a ^ b) term
                    a ^= b  # gathered copy; safe to clobber in place
                    if ox is not True:
                        a &= ox
                    out = a
                elif ox is None:  # pure AND-shaped level: only the (a & b) term
                    a &= b
                    if ao is not True:
                        a &= ao
                    out = a
                else:
                    out = a & b
                    if ao is not True:
                        out &= ao
                    a ^= b
                    if ox is not True:
                        a &= ox
                    out |= a
                if inv is not None:
                    out ^= inv
                values[out_idx] = out
            elif tag == 1:  # mux-only level
                _, in_a, in_b, sel, out_idx = step
                a = values[in_a]
                t = values[in_b]  # out = a ^ ((a ^ b) & s) == b if s else a
                t ^= a
                t &= values[sel]
                t ^= a
                values[out_idx] = t
            else:  # mixed level: [:g] gates, [g:] muxes, one gather/scatter
                _, in_a, in_b, sel, out_idx, g, ao, ox, inv = step
                a = values[in_a]
                b = values[in_b]
                if ao is not None:
                    u = a[:g] & b[:g]  # (a & b) term before b is clobbered
                    if ao is not True:
                        u &= ao
                b ^= a  # b := a ^ b across both slices
                bm = b[g:]
                bm &= values[sel]
                bm ^= a[g:]  # mux out = a ^ ((a ^ b) & s)
                bg = b[:g]
                if ox is None:  # no XOR-shaped gates: out is the AND term
                    bg[:] = u
                else:
                    if ox is not True:
                        bg &= ox
                    if ao is not None:
                        bg ^= u
                if inv is not None:
                    bg ^= inv
                values[out_idx] = b


def compute_cell_levels(netlist: Netlist) -> List[int]:
    """Return the topological level of every cell (0 = inputs are all roots).

    Roots are constants, input ports, and DFF Q outputs.  Raises
    ``ValueError`` if the combinational cells do not form a DAG (use
    :func:`repro.netlist.validate.validate` for a friendlier diagnosis).
    """
    producer: Dict[int, int] = {}
    for cell, out in enumerate(netlist.cell_outputs):
        producer[out] = cell
    num_cells = netlist.num_cells
    levels = [-1] * num_cells
    indegree = [0] * num_cells
    consumers: List[List[int]] = [[] for _ in range(num_cells)]
    for cell, inputs in enumerate(netlist.cell_inputs):
        for net in inputs:
            src = producer.get(net)
            if src is not None:
                indegree[cell] += 1
                consumers[src].append(cell)
    frontier = [c for c in range(num_cells) if indegree[c] == 0]
    for cell in frontier:
        levels[cell] = 0
    processed = 0
    while frontier:
        cell = frontier.pop()
        processed += 1
        for succ in consumers[cell]:
            if levels[cell] + 1 > levels[succ]:
                levels[succ] = levels[cell] + 1
            indegree[succ] -= 1
            if indegree[succ] == 0:
                frontier.append(succ)
    if processed != num_cells:
        raise ValueError("netlist contains a combinational loop")
    return levels


def _fuse_level(netlist, cells: List[int]) -> _FusedLevel:
    """Compile one level's cells into the fused constant-masked groups."""
    gate_a: List[int] = []
    gate_b: List[int] = []
    gate_out: List[int] = []
    selectors: List[Tuple[int, int, int, int]] = []
    mux_a: List[int] = []
    mux_b: List[int] = []
    mux_s: List[int] = []
    mux_out: List[int] = []
    for cell in cells:
        kind = CellKind(netlist.cell_kinds[cell])
        inputs = netlist.cell_inputs[cell]
        out = netlist.cell_outputs[cell]
        if kind is CellKind.MUX2:
            mux_a.append(inputs[0])
            mux_b.append(inputs[1])
            mux_s.append(inputs[2])
            mux_out.append(out)
            continue
        base, inverted = _GATE_FORM[kind]
        gate_a.append(inputs[0])
        gate_b.append(inputs[1] if len(inputs) > 1 else inputs[0])
        gate_out.append(out)
        selectors.append(
            (
                0xFF if base in ("and", "or") else 0,
                0xFF if base in ("or", "xor") else 0,
                0xFF if inverted else 0,
            )
        )
    sel = np.array(selectors, dtype=np.uint8).reshape(-1, 3)
    idx = lambda nets: np.array(nets, dtype=np.int64)  # noqa: E731
    return _FusedLevel(
        gate_a=idx(gate_a),
        gate_b=idx(gate_b),
        gate_out=idx(gate_out),
        ao_sel=sel[:, 0].copy(),
        ox_sel=sel[:, 1].copy(),
        inv_sel=sel[:, 2].copy(),
        mux_a=idx(mux_a),
        mux_b=idx(mux_b),
        mux_s=idx(mux_s),
        mux_out=idx(mux_out),
    )


def levelize(netlist: Netlist) -> EvalPlan:
    """Build the vectorized evaluation plan for a frozen netlist."""
    levels = compute_cell_levels(netlist)
    num_levels = max(levels) + 1 if levels else 0
    by_level: Dict[int, List[int]] = {}
    for cell, level in enumerate(levels):
        by_level.setdefault(level, []).append(cell)
    fused = tuple(
        _fuse_level(netlist, by_level[level]) for level in range(num_levels)
    )
    return EvalPlan(
        cell_levels=tuple(levels),
        num_levels=num_levels,
        fused_levels=fused,
    )
