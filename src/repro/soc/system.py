"""The complete simulated system: core netlist + behavioural memory.

:class:`MemoryEnvironment` implements the behavioural side of the registered
memory interfaces (single-cycle instruction and data memory, the output MMIO
region, the halt protocol and trap capture).  Its observables use the same
event format as the reference ISS's ``output_log`` (a test oracle, in
``tests/reference_iss.py``), so the gate-level core can be co-verified
against the ISS by comparing the two logs directly.

:class:`IbexMiniSystem` bundles the frozen netlist with lazily constructed
analysis artefacts (evaluation plan, static timing, event simulator) so the
expensive pieces are shared across campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Tuple

from repro.isa.assembler import Program
from repro.netlist.netlist import Netlist, Wire
from repro.netlist.validate import validate
from repro.sim.cyclesim import CycleSimulator, Environment, RunResult
from repro.sim.eventsim import EventSimulator
from repro.sim.levelize import EvalPlan, levelize
from repro.soc import memmap
from repro.soc.core import STRUCTURE_SCOPES, build_core
from repro.timing.liberty import NANGATE45ISH, TimingLibrary
from repro.timing.sta import StaticTiming


def _mix(addr: int, value: int) -> int:
    """Position-dependent byte hash for the incremental memory fingerprint."""
    return hash((addr, value))


class MemoryEnvironment(Environment):
    """Behavioural memory + MMIO environment for the IbexMini core."""

    def __init__(self, program: Program):
        self.program = program
        self.mem = bytearray(memmap.RAM_SIZE)
        self._mem_fp = 0
        self._halted = False
        self._exit_code = 0
        self._log: List[Tuple] = []

    # ------------------------------------------------------------------
    def reset(self) -> Dict[str, int]:
        self.mem = bytearray(memmap.RAM_SIZE)
        image = self.program.image
        if len(image) > memmap.RAM_SIZE:
            raise ValueError("program image larger than RAM")
        self.mem[: len(image)] = image
        self._mem_fp = 0
        self._halted = False
        self._exit_code = 0
        self._log = []
        return {
            "imem_rvalid": 0,
            "imem_rdata": 0,
            "dmem_rvalid": 0,
            "dmem_rdata": 0,
        }

    def _read_word(self, addr: int) -> int:
        addr &= memmap.RAM_MASK & ~3
        return int.from_bytes(self.mem[addr : addr + 4], "little")

    def _write_byte(self, addr: int, value: int) -> None:
        addr &= memmap.RAM_MASK
        old = self.mem[addr]
        if old != value:
            self._mem_fp ^= _mix(addr, old) ^ _mix(addr, value)
            self.mem[addr] = value

    def _log_mmio_store(self, addr: int, wdata: int, be: int) -> None:
        """Reconstruct the architectural store from the byte-lane interface.

        Produces the same event the reference ISS logs: the store's own
        address offset and its size-masked value.
        """
        base = addr - memmap.OUTPUT_BASE
        if be == 0b1111:
            self._log.append(("store", base, wdata & 0xFFFFFFFF))
        elif be in (0b0011, 0b1100):
            lane = 0 if be == 0b0011 else 2
            self._log.append(
                ("store", base + lane, (wdata >> (8 * lane)) & 0xFFFF)
            )
        elif be in (0b0001, 0b0010, 0b0100, 0b1000):
            lane = {0b0001: 0, 0b0010: 1, 0b0100: 2, 0b1000: 3}[be]
            self._log.append(
                ("store", base + lane, (wdata >> (8 * lane)) & 0xFF)
            )
        else:
            # Malformed byte enables (possible under fault injection) are
            # still program-visible behaviour: log them faithfully.
            self._log.append(("store-raw", base, wdata & 0xFFFFFFFF, be))

    def step(self, outputs: Dict[str, int], cycle: int) -> Dict[str, int]:
        inputs = {
            "imem_rvalid": 0,
            "imem_rdata": 0,
            "dmem_rvalid": 0,
            "dmem_rdata": 0,
        }
        if self._halted:
            return inputs
        if outputs.get("trap"):
            self._log.append(("trap",))
            self._halted = True
            return inputs
        if outputs.get("imem_req"):
            inputs["imem_rvalid"] = 1
            inputs["imem_rdata"] = self._read_word(outputs["imem_addr"])
        if outputs.get("dmem_req"):
            addr = outputs["dmem_addr"]
            inputs["dmem_rvalid"] = 1
            if outputs.get("dmem_we"):
                self._store(addr, outputs["dmem_wdata"], outputs["dmem_be"])
            else:
                inputs["dmem_rdata"] = self._mmio_read(addr)
        return inputs

    def _store(self, addr: int, wdata: int, be: int) -> None:
        if addr == memmap.HALT_ADDR:
            self._halted = True
            self._exit_code = wdata & 0xFFFFFFFF
            self._log.append(("halt", self._exit_code))
            return
        if memmap.OUTPUT_BASE <= addr < memmap.OUTPUT_BASE + memmap.OUTPUT_SIZE:
            self._log_mmio_store(addr, wdata, be)
            return
        for lane in range(4):
            if (be >> lane) & 1:
                self._write_byte(addr + lane, (wdata >> (8 * lane)) & 0xFF)

    def _mmio_read(self, addr: int) -> int:
        if addr == memmap.HALT_ADDR:
            return 0
        if memmap.OUTPUT_BASE <= addr < memmap.OUTPUT_BASE + memmap.OUTPUT_SIZE:
            return 0
        return self._read_word(addr)

    # ------------------------------------------------------------------
    def snapshot(self) -> Any:
        return (
            bytes(self.mem),
            self._mem_fp,
            self._halted,
            self._exit_code,
            tuple(self._log),
        )

    def restore(self, snap: Any) -> None:
        mem, fp, halted, exit_code, log = snap
        self.mem = bytearray(mem)
        self._mem_fp = fp
        self._halted = halted
        self._exit_code = exit_code
        self._log = list(log)

    def fingerprint(self) -> int:
        return hash((self._mem_fp, self._halted, len(self._log)))

    def observables(self) -> Tuple[Any, ...]:
        return tuple(self._log)

    def halted(self) -> bool:
        return self._halted

    @property
    def exit_code(self) -> int:
        return self._exit_code


@dataclass
class IbexMiniSystem:
    """The core netlist plus shared (lazily built) analysis artefacts."""

    netlist: Netlist
    library: TimingLibrary
    use_ecc: bool
    structures: Dict[str, str] = field(default_factory=lambda: dict(STRUCTURE_SCOPES))
    #: named internal net groups (pipeline-head instruction, etc.) used by
    #: instruction-level attribution
    debug_probes: Dict[str, List[int]] = field(default_factory=dict)
    #: explicit operating clock period; None means "longest path" (paper).
    clock_period_ps: float | None = None
    #: scope -> injectable wires, memoized (see :meth:`structure_wires`)
    _structure_wires_cache: Dict[str, List[Wire]] = field(
        default_factory=dict, repr=False
    )

    @cached_property
    def plan(self) -> EvalPlan:
        return levelize(self.netlist)

    @cached_property
    def sta(self) -> StaticTiming:
        return StaticTiming(
            self.netlist, self.library, clock_period_ps=self.clock_period_ps
        )

    @cached_property
    def event_sim(self) -> EventSimulator:
        return EventSimulator(self.netlist, self.sta)

    @property
    def clock_period(self) -> float:
        return self.sta.clock_period

    def simulator(self) -> CycleSimulator:
        """A fresh cycle simulator sharing the cached evaluation plan."""
        return CycleSimulator(self.netlist, self.plan)

    def make_env(self, program: Program) -> MemoryEnvironment:
        return MemoryEnvironment(program)

    def structure_wires(self, structure: str) -> List[Wire]:
        """Injectable wires of a structure (by display name or scope).

        Enumerating a structure's wires scans the whole frozen netlist, and
        every shard preparation needs the list (wire indices in plans and
        cache keys are positions in it), so it is memoized per scope.  The
        cached list is shared — callers must treat it as read-only.
        """
        scope = self.structures.get(structure, structure)
        wires = self._structure_wires_cache.get(scope)
        if wires is None:
            wires = self.netlist.wires_of_structure(scope)
            self._structure_wires_cache[scope] = wires
        return wires

    def run_program(
        self,
        program: Program,
        max_cycles: int = 200_000,
        checkpoint_cycles=(),
        record_fingerprints: bool = False,
    ) -> RunResult:
        """Run *program* on a fresh simulator + environment."""
        sim = self.simulator()
        return sim.run(
            self.make_env(program),
            max_cycles=max_cycles,
            checkpoint_cycles=checkpoint_cycles,
            record_fingerprints=record_fingerprints,
        )


def build_system(
    use_ecc: bool = False,
    library: TimingLibrary = NANGATE45ISH,
    clock_period_ps: float | None = None,
) -> IbexMiniSystem:
    """Elaborate, validate, and freeze a complete IbexMini system.

    *clock_period_ps* overrides the operating clock period (the default is
    the longest register-to-register path, as in the paper); preflight
    rejects a period the fault-free design cannot meet.
    """
    netlist = Netlist(name="ibexmini_ecc" if use_ecc else "ibexmini")
    probes = build_core(netlist, use_ecc=use_ecc)
    validate(netlist)
    netlist.freeze()
    return IbexMiniSystem(
        netlist=netlist,
        library=library,
        use_ecc=use_ecc,
        debug_probes=probes,
        clock_period_ps=clock_period_ps,
    )
