"""Particle-strike AVF (sAVF) estimation (Section VI-C).

Classic single-bit-flip fault injection over a structure's state elements,
reusing the campaign session's golden run, checkpoints, and injected-run
machinery (an sAVF injection is simply a singleton state-element error
applied directly at a cycle boundary).
"""

from __future__ import annotations

from typing import Optional

from repro.core import tracing
from repro.core.campaign import CampaignSession
from repro.core.group_ace import Outcome
from repro.core.results import SAVFResult
from repro.core.sampling import sample_wires


class SAVFEngine:
    """Estimates sAVF for stateful structures."""

    def __init__(self, session: CampaignSession):
        self.session = session

    def run_structure(
        self,
        structure: str,
        max_bits: Optional[int] = None,
        seed: int = 0,
        progress=None,
    ) -> SAVFResult:
        """Flip each sampled state bit at each sampled cycle.

        sAVF = (# ACE samples) / (# samples), the sampled form of Eq. 1.
        Raises ``ValueError`` for structures without state elements (the
        paper's decoder/ALU rows exist only in the DelayAVF world).
        *progress*, when given, is a
        :class:`repro.core.progress.ProgressReporter` ticked once per sampled
        cycle (the sAVF loop's natural shard).
        """
        with tracing.span(
            "campaign.savf", cat="campaign",
            structure=structure, benchmark=self.session.program.name,
        ):
            return self._run_structure_body(structure, max_bits, seed, progress)

    def _run_structure_body(
        self,
        structure: str,
        max_bits: Optional[int],
        seed: int,
        progress,
    ) -> SAVFResult:
        system = self.session.system
        scope = system.structures.get(structure, structure)
        dffs = system.netlist.dffs_of_structure(scope)
        if not dffs:
            raise ValueError(
                f"structure {structure!r} has no state elements; "
                "sAVF is undefined for logic-only structures"
            )
        chosen = sample_wires(dffs, max_bits, seed)
        ace = sdc = due = samples = 0
        self.session.verify_length()
        if progress is not None:
            progress.start(len(self.session.sampled_cycles))
        for cycle in self.session.sampled_cycles:
            checkpoint = self.session.checkpoint(cycle)
            self.session.group_ace.prefetch(
                checkpoint,
                [
                    {d.index: int(checkpoint.dff_values[d.index]) ^ 1}
                    for d in chosen
                ],
                at_next_boundary=False,
            )
            for dff in chosen:
                flipped = int(checkpoint.dff_values[dff.index]) ^ 1
                outcome = self.session.group_ace.outcome_of_state_errors(
                    checkpoint, {dff.index: flipped}, at_next_boundary=False
                )
                samples += 1
                if outcome.is_failure:
                    ace += 1
                if outcome is Outcome.SDC:
                    sdc += 1
                elif outcome is Outcome.DUE:
                    due += 1
            if progress is not None:
                progress.shard_done()
        if progress is not None:
            progress.finish()
        return SAVFResult(
            structure=structure,
            benchmark=self.session.program.name,
            samples=samples,
            ace_count=ace,
            sdc_count=sdc,
            due_count=due,
        )
