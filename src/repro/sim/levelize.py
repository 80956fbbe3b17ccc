"""Topological levelization of a netlist into a vectorized evaluation plan.

The zero-delay cycle simulator evaluates all combinational cells once per
cycle.  Doing that cell-by-cell in Python is far too slow, so the netlist is
*levelized*: cells are assigned to topological levels (a cell's level is one
more than the deepest of its input producers), and cells within a level are
evaluated together.

Every cell kind is one formula, ``out = ((x ^ y) & s) ^ z``, whose four
sources are the cell's own pins or the constant nets ``0`` (``CONST0``) and
``1`` (``CONST1``, which holds the active-plane mask):

    ============== === === === =====
    kind           x   y   s   z
    ============== === === === =====
    BUF a          a   0   1   0
    NOT a          a   0   1   1
    AND2/NAND2 a,b a   0   b   0 / 1
    OR2/NOR2 a,b   b   1   a   b
    XOR2/XNOR2 a,b a   b   1   0 / 1
    MUX2 a,b,s     a   b   s   a
    ============== === === === =====

(OR is ``(a & ~b) ^ b``.)  NOR2 is the one kind that also needs a final
inversion, so each level keeps its NOR2 cells last and XORs that tail with
the mask.  A level is then one ``(4, n)`` gather, three in-place ops and one
scatter, the same for every word dtype and mask: a level costs per-call
overhead, not data (a 47-level netlist settles 3 lanes or 64 in about the
same time), so the fewest numpy calls per level is what makes it fast.
Bit-planes are independent, so the same pass evaluates 1 lane in uint8 or
64 in uint64.  The identities are exact on every active plane as long as
the inputs are *plane-clean* (no bit set outside the mask), and the outputs
stay clean.  This is the cycle simulator's (and therefore GroupACE's) inner
loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netlist.cells import CellKind
from repro.netlist.netlist import CONST0, CONST1, Netlist

#: kind -> its (x, y, s, z) sources: pin a, b or s, or constant net 0 or 1.
_SOURCES = {
    CellKind.BUF: "a010",
    CellKind.NOT: "a011",
    CellKind.AND2: "a0b0",
    CellKind.NAND2: "a0b1",
    CellKind.OR2: "b1ab",
    CellKind.NOR2: "b1ab",  # inverted by the level's NOR2 tail
    CellKind.XOR2: "ab10",
    CellKind.XNOR2: "ab11",
    CellKind.MUX2: "absa",
}

#: One level: (sources (4, n), output nets (n,), start of the NOR2 tail).
Level = Tuple[np.ndarray, np.ndarray, Optional[int]]


@dataclass(frozen=True)
class EvalPlan:
    """The per-level gathers that settle the combinational logic."""

    cell_levels: Tuple[int, ...]  #: topological level of every cell
    num_levels: int
    #: per level: its (4, n) sources, n output nets and NOR2 tail start
    levels: Tuple[Level, ...] = field(repr=False)

    def evaluate(self, values: np.ndarray, mask: int = 1) -> None:
        """Settle combinational logic in-place on the net-*values* array.

        ``mask`` selects the active bit-planes (see
        :func:`repro.netlist.cells.eval_cell_word`): 1 for a plain scalar
        simulation, ``(1 << lanes) - 1`` for lane-parallel simulation.  The
        dtype of *values* picks the word width (uint8 for up to 8 lanes,
        uint64 for up to 64).  Writes the constant nets itself; every other
        source must be clean w.r.t. ``mask`` (no bits set on inactive
        planes).  Both simulators maintain that invariant, and outputs stay
        clean.
        """
        if mask <= 0 or mask >> (values.itemsize << 3):
            raise ValueError(
                f"mask {mask:#x} does not fit the {values.dtype.name} "
                f"value planes"
            )
        values[CONST0] = 0
        values[CONST1] = mask
        for sources, out, nor_from in self.levels:
            g = values[sources]
            x = g[0]
            x ^= g[1]
            x &= g[2]
            x ^= g[3]
            if nor_from is not None:
                x[nor_from:] ^= mask
            values[out] = x


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


def _level(netlist: Netlist, cells: List[int]) -> Level:
    """One level's (4, n) source nets and outputs, its NOR2 cells last."""
    kinds = netlist.cell_kinds
    nors = [c for c in cells if kinds[c] == CellKind.NOR2]
    cells = [c for c in cells if kinds[c] != CellKind.NOR2] + nors
    sources = []
    for cell in cells:
        pins = netlist.cell_inputs[cell]
        sources.append([
            CONST0 if src == "0" else CONST1 if src == "1"
            else pins["abs".index(src)]
            for src in _SOURCES[CellKind(kinds[cell])]
        ])
    sources = np.array(sources, dtype=np.int64).T.copy()
    out = np.array([netlist.cell_outputs[c] for c in cells], dtype=np.int64)
    sources.flags.writeable = out.flags.writeable = False
    return sources, out, len(cells) - len(nors) if nors else None


def levelize(netlist: Netlist) -> EvalPlan:
    """Build the vectorized evaluation plan for a frozen netlist."""
    levels = compute_cell_levels(netlist)
    num_levels = max(levels) + 1 if levels else 0
    by_level: Dict[int, List[int]] = {}
    for cell, level in enumerate(levels):
        by_level.setdefault(level, []).append(cell)
    return EvalPlan(
        cell_levels=tuple(levels),
        num_levels=num_levels,
        levels=tuple(
            _level(netlist, by_level[level]) for level in range(num_levels)
        ),
    )
