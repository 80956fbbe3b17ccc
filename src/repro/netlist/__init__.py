"""Gate-level netlist substrate.

The netlist is the common representation consumed by every other subsystem:
the HDL builder elaborates into it, the static timing analyzer walks it, both
simulators evaluate it, and the DelayAVF engine injects faults into its
*wires* (driver-net → sink-pin edges).
"""

from repro.netlist.cells import (
    CELL_KIND_NAMES,
    CellKind,
    cell_input_count,
    eval_cell,
    eval_cell_word,
)
from repro.netlist.netlist import (
    CONST0,
    CONST1,
    Dff,
    Netlist,
    PinType,
    SinkPin,
    Wire,
)
from repro.netlist.stats import structure_stats
from repro.netlist.validate import NetlistError, validate

__all__ = [
    "CELL_KIND_NAMES",
    "CONST0",
    "CONST1",
    "CellKind",
    "Dff",
    "Netlist",
    "NetlistError",
    "PinType",
    "SinkPin",
    "Wire",
    "cell_input_count",
    "eval_cell",
    "eval_cell_word",
    "structure_stats",
    "validate",
]
