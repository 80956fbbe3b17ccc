"""Instruction-level attribution of injection outcomes.

A campaign tells a designer *where* (which structure) SDFs hurt; attribution
tells them *when*: which architectural instruction was in flight during the
faulty cycle.  This complements the structure view the way instruction-level
timing-error work (Chang et al., discussed in the paper's related work) does,
and is useful for the test-generation direction the paper sketches in §VIII
(functional tests that sensitize vulnerable instructions).

Implementation: the SoC exposes debug probes (the pipeline-head PC /
instruction nets).  For each sampled cycle the probe values are recovered by
re-settling the checkpointed state — no extra hardware, no re-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.core.results import InjectionRecord
from repro.isa.disasm import disassemble


@dataclass(frozen=True)
class InstructionContext:
    """What the pipeline head held during a given cycle."""

    cycle: int
    valid: bool
    pc: int
    instr: int

    @property
    def text(self) -> str:
        if not self.valid:
            return "<bubble>"
        return disassemble(self.instr, self.pc)


@dataclass
class AttributionRow:
    """Aggregated injection outcomes for one instruction address."""

    pc: int
    text: str
    injections: int = 0
    error_sets: int = 0
    failures: int = 0

    @property
    def delay_ace_rate(self) -> float:
        return self.failures / self.injections if self.injections else 0.0


class InstructionAttributor:
    """Maps campaign records to the instructions in flight."""

    def __init__(self, session):
        self.session = session
        system = session.system
        if not system.debug_probes:
            raise ValueError("system exposes no debug probes")
        self._sim = system.simulator()
        self._contexts: Dict[int, InstructionContext] = {}

    def context_of_cycle(self, cycle: int) -> InstructionContext:
        """The pipeline-head instruction during a sampled *cycle*."""
        cached = self._contexts.get(cycle)
        if cached is not None:
            return cached
        checkpoint = self.session.checkpoint(cycle)
        sim = self._sim
        sim.evaluate_combinational(
            checkpoint.input_values, checkpoint.dff_values
        )
        probes = self.session.system.debug_probes

        def read(nets: List[int]) -> int:
            return sum(int(sim.values[net]) << i for i, net in enumerate(nets))

        context = InstructionContext(
            cycle=cycle,
            valid=bool(read(probes["head_valid"])),
            pc=read(probes["head_pc"]),
            instr=read(probes["head_instr"]),
        )
        self._contexts[cycle] = context
        return context

    def attribute(
        self, records: Iterable[InjectionRecord]
    ) -> List[AttributionRow]:
        """Aggregate records per in-flight instruction, most-vulnerable first."""
        rows: Dict[Tuple[bool, int], AttributionRow] = {}
        for record in records:
            context = self.context_of_cycle(record.cycle)
            key = (context.valid, context.pc if context.valid else -1)
            row = rows.get(key)
            if row is None:
                row = AttributionRow(
                    pc=context.pc if context.valid else -1,
                    text=context.text,
                )
                rows[key] = row
            row.injections += 1
            row.error_sets += record.dynamically_reachable
            row.failures += record.delay_ace
        return sorted(
            rows.values(), key=lambda r: (r.failures, r.error_sets), reverse=True
        )
