"""The gate-level netlist graph.

A :class:`Netlist` is a flat graph of single-bit *nets* connected by
combinational *cells* and clocked *DFFs*.  Hierarchy exists only as naming
scopes (the way a synthesized flat netlist retains hierarchical instance
names), which is what the DelayAVF methodology needs: microarchitectural
structures are identified as the set of *wires* within a hierarchical scope.

Terminology (matching the paper):

- A **net** is a single-bit signal with exactly one driver.
- A **wire** is one driver-net → sink-pin edge.  A net with fan-out *k*
  contributes *k* wires; a small delay fault is injected on a single wire and
  delays the signal only towards that sink.
- A **state element** is a DFF.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.netlist.cells import CellKind, cell_input_count

#: Net index of the constant-zero net present in every netlist.
CONST0 = 0
#: Net index of the constant-one net present in every netlist.
CONST1 = 1


class PinType(IntEnum):
    """What kind of sink a wire terminates in."""

    CELL_IN = 0
    DFF_D = 1
    OUTPORT = 2


@dataclass(frozen=True, order=True)
class SinkPin:
    """One input pin of a cell, the D pin of a DFF, or an output-port slot."""

    pin_type: PinType
    owner: int  #: cell index, DFF index, or output-port slot index
    pin: int  #: input-pin position for cells; 0 otherwise


@dataclass(frozen=True, order=True)
class Wire:
    """A driver-net → sink-pin edge; the unit of delay-fault injection."""

    net: int
    sink: SinkPin


@dataclass
class Dff:
    """A clocked state element (D flip-flop)."""

    index: int
    name: str
    q: int  #: net driven by the Q output
    d: int = -1  #: net sampled at the clock edge (set via ``connect_d``)
    init: int = 0  #: reset value


class DriverKind(IntEnum):
    """What drives a net."""

    CONST = 0
    INPUT = 1
    CELL = 2
    DFF = 3


@dataclass
class Netlist:
    """A flat single-bit netlist with hierarchical naming scopes."""

    name: str = "top"

    net_names: List[str] = field(default_factory=list)
    cell_kinds: List[int] = field(default_factory=list)
    cell_inputs: List[Tuple[int, ...]] = field(default_factory=list)
    cell_outputs: List[int] = field(default_factory=list)
    cell_names: List[str] = field(default_factory=list)
    dffs: List[Dff] = field(default_factory=list)

    #: input-port name → nets whose values are set externally each cycle
    input_ports: Dict[str, List[int]] = field(default_factory=dict)
    #: output-port name → nets sampled externally at the end of each cycle
    output_ports: Dict[str, List[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._scope_stack: List[str] = []
        self._frozen = False
        self._driver_kind: List[int] = []
        self._driver_index: List[int] = []
        self._fanout: Optional[List[List[SinkPin]]] = None
        self._outport_slots: List[Tuple[str, int]] = []
        self.add_net("const0")
        self.add_net("const1")
        self._driver_kind[CONST0] = DriverKind.CONST
        self._driver_kind[CONST1] = DriverKind.CONST

    # ------------------------------------------------------------------
    # Naming scopes
    # ------------------------------------------------------------------
    @contextmanager
    def scope(self, name: str) -> Iterator[None]:
        """Enter a hierarchical naming scope (``with nl.scope("alu"): ...``)."""
        self._scope_stack.append(name)
        try:
            yield
        finally:
            self._scope_stack.pop()

    def scoped_name(self, name: str) -> str:
        """Return *name* qualified with the current scope path."""
        if self._scope_stack:
            return ".".join(self._scope_stack) + "." + name
        return name

    @property
    def scope_path(self) -> str:
        """The current scope path (empty string at top level)."""
        return ".".join(self._scope_stack)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._frozen:
            raise RuntimeError("netlist is frozen; no further edits allowed")

    def add_net(self, name: Optional[str] = None) -> int:
        """Allocate a new undriven net and return its index."""
        self._check_mutable()
        net = len(self.net_names)
        self.net_names.append(
            self.scoped_name(name) if name is not None else self.scoped_name(f"n{net}")
        )
        self._driver_kind.append(-1)
        self._driver_index.append(-1)
        return net

    def add_cell(
        self,
        kind: CellKind,
        inputs: Sequence[int],
        name: Optional[str] = None,
        out: Optional[int] = None,
    ) -> int:
        """Add a combinational cell; return the net driven by its output."""
        self._check_mutable()
        kind = CellKind(kind)
        expected = cell_input_count(kind)
        if len(inputs) != expected:
            raise ValueError(
                f"{kind.name} expects {expected} inputs, got {len(inputs)}"
            )
        for net in inputs:
            if not 0 <= net < len(self.net_names):
                raise ValueError(f"input net {net} does not exist")
        index = len(self.cell_kinds)
        cell_name = self.scoped_name(name) if name is not None else self.scoped_name(
            f"{kind.name.lower()}{index}"
        )
        if out is None:
            out = self.add_net(f"{cell_name.rsplit('.', 1)[-1]}_o")
        if self._driver_kind[out] != -1:
            raise ValueError(f"net {out} ({self.net_names[out]}) already driven")
        self.cell_kinds.append(int(kind))
        self.cell_inputs.append(tuple(int(n) for n in inputs))
        self.cell_outputs.append(out)
        self.cell_names.append(cell_name)
        self._driver_kind[out] = DriverKind.CELL
        self._driver_index[out] = index
        return out

    def add_dff(self, name: str, init: int = 0) -> Dff:
        """Add a DFF; its Q net is allocated, the D net is connected later."""
        self._check_mutable()
        index = len(self.dffs)
        full_name = self.scoped_name(name)
        q = self.add_net(f"{name}_q")
        dff = Dff(index=index, name=full_name, q=q, init=int(init) & 1)
        self.dffs.append(dff)
        self._driver_kind[q] = DriverKind.DFF
        self._driver_index[q] = index
        return dff

    def connect_d(self, dff: Dff, net: int) -> None:
        """Connect the D input of *dff* to *net*."""
        self._check_mutable()
        if dff.d != -1:
            raise ValueError(f"DFF {dff.name} D input already connected")
        if not 0 <= net < len(self.net_names):
            raise ValueError(f"net {net} does not exist")
        dff.d = net

    def add_input(self, name: str, width: int) -> List[int]:
        """Declare an input port; returns its nets (bit 0 first)."""
        self._check_mutable()
        full_name = self.scoped_name(name)
        if full_name in self.input_ports:
            raise ValueError(f"input port {full_name!r} already exists")
        nets = []
        for bit in range(width):
            net = self.add_net(f"{name}[{bit}]")
            self._driver_kind[net] = DriverKind.INPUT
            self._driver_index[net] = len(nets)
            nets.append(net)
        self.input_ports[full_name] = nets
        return nets

    def add_output(self, name: str, nets: Sequence[int]) -> None:
        """Declare an output port sampled externally at the end of each cycle."""
        self._check_mutable()
        full_name = self.scoped_name(name)
        if full_name in self.output_ports:
            raise ValueError(f"output port {full_name!r} already exists")
        for net in nets:
            if not 0 <= net < len(self.net_names):
                raise ValueError(f"net {net} does not exist")
        self.output_ports[full_name] = [int(n) for n in nets]

    # ------------------------------------------------------------------
    # Frozen-graph queries
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Finalize the netlist: build fan-out tables and forbid edits.

        Validation (:func:`repro.netlist.validate.validate`) is expected to be
        run by callers that construct netlists programmatically.
        """
        if self._frozen:
            return
        fanout: List[List[SinkPin]] = [[] for _ in self.net_names]
        for cell_index, inputs in enumerate(self.cell_inputs):
            for pin, net in enumerate(inputs):
                fanout[net].append(SinkPin(PinType.CELL_IN, cell_index, pin))
        for dff in self.dffs:
            if dff.d != -1:
                fanout[dff.d].append(SinkPin(PinType.DFF_D, dff.index, 0))
        self._outport_slots = []
        for port_name in sorted(self.output_ports):
            for bit, net in enumerate(self.output_ports[port_name]):
                slot = len(self._outport_slots)
                self._outport_slots.append((port_name, bit))
                fanout[net].append(SinkPin(PinType.OUTPORT, slot, 0))
        self._fanout = fanout
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    @property
    def num_cells(self) -> int:
        return len(self.cell_kinds)

    @property
    def num_dffs(self) -> int:
        return len(self.dffs)

    def driver_of(self, net: int) -> Tuple[DriverKind, int]:
        """Return ``(kind, index)`` describing what drives *net*."""
        return DriverKind(self._driver_kind[net]), self._driver_index[net]

    def fanout_of(self, net: int) -> List[SinkPin]:
        """Return the sink pins of *net* (requires a frozen netlist)."""
        if self._fanout is None:
            raise RuntimeError("freeze() the netlist before querying fan-out")
        return self._fanout[net]

    def outport_slot(self, slot: int) -> Tuple[str, int]:
        """Map an output-port slot index back to ``(port_name, bit)``."""
        return self._outport_slots[slot]

    def sink_owner_name(self, sink: SinkPin) -> str:
        """Hierarchical name of the element owning *sink*."""
        if sink.pin_type is PinType.CELL_IN:
            return self.cell_names[sink.owner]
        if sink.pin_type is PinType.DFF_D:
            return self.dffs[sink.owner].name
        port_name, bit = self._outport_slots[sink.owner]
        return f"{port_name}[{bit}]"

    def _in_scope(self, full_name: str, prefix: str) -> bool:
        return full_name == prefix or full_name.startswith(prefix + ".")

    def wires_of_structure(self, prefix: str) -> List[Wire]:
        """All injectable wires of the structure rooted at scope *prefix*.

        A wire belongs to a structure if its sink element lies inside the
        scope (the structure's internal and input wires) or its driver does
        (the structure's output wires), matching the paper's notion of "the
        wires E in the microarchitectural structure H".
        """
        if self._fanout is None:
            raise RuntimeError("freeze() the netlist before enumerating wires")
        wires: List[Wire] = []
        seen = set()
        for net, name in enumerate(self.net_names):
            kind = self._driver_kind[net]
            if kind == DriverKind.CELL:
                driver_name = self.cell_names[self._driver_index[net]]
            elif kind == DriverKind.DFF:
                driver_name = self.dffs[self._driver_index[net]].name
            else:
                driver_name = name
            driver_inside = self._in_scope(driver_name, prefix)
            for sink in self._fanout[net]:
                sink_inside = self._in_scope(self.sink_owner_name(sink), prefix)
                if driver_inside or sink_inside:
                    wire = Wire(net, sink)
                    if wire not in seen:
                        seen.add(wire)
                        wires.append(wire)
        return wires

    def dffs_of_structure(self, prefix: str) -> List[Dff]:
        """All DFFs whose hierarchical name lies inside scope *prefix*."""
        return [d for d in self.dffs if self._in_scope(d.name, prefix)]

    def all_wires(self) -> List[Wire]:
        """Every wire in the netlist."""
        if self._fanout is None:
            raise RuntimeError("freeze() the netlist before enumerating wires")
        return [
            Wire(net, sink)
            for net in range(self.num_nets)
            for sink in self._fanout[net]
        ]
