"""Campaign planning: expand a configuration into executable work shards.

A structure campaign is a cross-product (sampled cycles × sampled wires ×
delay fractions).  :func:`build_plan` expands it into a deterministic list of
:class:`WorkShard` descriptors — one shard per sampled cycle, carrying the
full wire × delay cross-product of that cycle — so the paper's §V-C
cache-reuse order (cycle outermost: fault-free waveforms and GroupACE
verdicts are shared by every wire and delay examined at one cycle) is a
property of the *plan* rather than an accident of loop nesting.

Shards name their structure and reference wires by index into its
canonical wire list (``system.structure_wires(structure)``) instead of
carrying :class:`Wire` objects, so a shard is a small, self-contained
description that any worker can resolve against its own rebuilt session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core import tracing
from repro.core.sampling import sample_wires


@dataclass(frozen=True)
class WorkShard:
    """One schedulable unit: every injection of one structure campaign at
    one sampled cycle.  Self-contained: a worker needs only the shard and
    its session to run it."""

    structure: str  #: the structure whose wires the indices name
    index: int  #: position in the plan (merge order)
    cycle: int  #: the sampled injection cycle
    wire_indices: Tuple[int, ...]  #: indices into the structure's wire list
    delay_fractions: Tuple[float, ...]

    @property
    def injections(self) -> int:
        return len(self.wire_indices) * len(self.delay_fractions)

    def injection_pairs(self, skip=()) -> list:
        """The shard's ``(wire_index, delay_fraction)`` pairs in evaluation
        (wire-outer / delay-inner) order, minus any pairs in *skip*.

        This is the executor's feed into the batched timing-aware injection
        API (:meth:`repro.core.dynamic_reach.DynamicReachability.
        reachable_set_batch`): the whole cycle's cross-product goes through
        one batch so injections sharing a fan-out cone share its
        construction.
        """
        return [
            (index, delay)
            for index in self.wire_indices
            for delay in self.delay_fractions
            if (index, delay) not in skip
        ]

    # ------------------------------------------------------------------
    # Wire round-trip (the distributed coordinator ships shards as JSON)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """A JSON-safe dict :meth:`from_payload` rebuilds exactly.

        Every field is already a primitive (a structure name, indices, a
        cycle, floats), so the payload is lossless — a remote worker
        resolves the same wires against its own rebuilt session and executes
        the identical shard.
        """
        return {
            "structure": self.structure,
            "index": self.index,
            "cycle": self.cycle,
            "wire_indices": list(self.wire_indices),
            "delay_fractions": list(self.delay_fractions),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "WorkShard":
        return cls(
            structure=str(payload["structure"]),
            index=int(payload["index"]),
            cycle=int(payload["cycle"]),
            wire_indices=tuple(int(i) for i in payload["wire_indices"]),
            delay_fractions=tuple(
                float(d) for d in payload["delay_fractions"]
            ),
        )


@dataclass(frozen=True)
class CampaignPlan:
    """The deterministic expansion of one structure campaign."""

    structure: str
    benchmark: str
    wire_count: int  #: |E| of the structure (Table I)
    wire_indices: Tuple[int, ...]  #: sampled wires, in evaluation order
    delay_fractions: Tuple[float, ...]
    sampled_cycles: Tuple[int, ...]
    shards: Tuple[WorkShard, ...]

    @property
    def total_injections(self) -> int:
        return sum(shard.injections for shard in self.shards)


def build_plan(
    structure: str,
    benchmark: str,
    wires: Sequence,
    sampled_cycles: Sequence[int],
    config,
    delay_fractions: Optional[Sequence[float]] = None,
    max_wires: Optional[int] = None,
    seed: Optional[int] = None,
) -> CampaignPlan:
    """Expand a structure campaign into per-cycle :class:`WorkShard`\\ s.

    *wires* is the structure's canonical wire list; the sampled subset keeps
    its seeded sample order (which the serial engine has always used), so
    plans — and therefore merged results — are byte-identical to the legacy
    nested loops.
    """
    with tracing.span(
        "plan.build", cat="plan",
        structure=structure, cycles=len(sampled_cycles),
    ):
        delays = tuple(
            delay_fractions if delay_fractions is not None else config.delay_fractions
        )
        chosen = sample_wires(
            wires,
            max_wires if max_wires is not None else config.max_wires,
            seed if seed is not None else config.seed,
        )
        # One enumerate pass; the old per-wire list.index() lookup was O(n^2).
        index_of = {wire: index for index, wire in enumerate(wires)}
        wire_indices = tuple(index_of[wire] for wire in chosen)
        shards = tuple(
            WorkShard(
                structure=structure,
                index=position,
                cycle=cycle,
                wire_indices=wire_indices,
                delay_fractions=delays,
            )
            for position, cycle in enumerate(sampled_cycles)
        )
        return CampaignPlan(
            structure=structure,
            benchmark=benchmark,
            wire_count=len(wires),
            wire_indices=wire_indices,
            delay_fractions=delays,
            sampled_cycles=tuple(sampled_cycles),
            shards=shards,
        )


def build_refinement_plan(
    base: CampaignPlan,
    new_wire_indices: Sequence[int],
    new_cycles: Sequence[int],
) -> CampaignPlan:
    """A plan covering exactly the (wire, cycle) pairs *base* does not.

    Adaptive refinement grows a campaign's sample without re-simulating: the
    returned shards cover the new wires at every already-sampled cycle plus
    *all* wires (old and new) at every new cycle — together with *base* that
    is the full cross-product of the widened sample, and by construction no
    (wire, cycle, delay) triple appears in both plans.

    Shards keep the cycle-outermost §V-C order: old cycles first (their
    fault-free waveforms and GroupACE verdicts are already warm), then the
    new cycles.
    """
    with tracing.span(
        "plan.refinement", cat="plan",
        structure=base.structure,
        new_wires=len(tuple(new_wire_indices)),
        new_cycles=len(tuple(new_cycles)),
    ):
        return _build_refinement_plan(base, new_wire_indices, new_cycles)


def _build_refinement_plan(
    base: CampaignPlan,
    new_wire_indices: Sequence[int],
    new_cycles: Sequence[int],
) -> CampaignPlan:
    new_wires = tuple(new_wire_indices)
    all_wires = base.wire_indices + new_wires
    shards = []
    if new_wires:
        for cycle in base.sampled_cycles:
            shards.append(
                WorkShard(
                    structure=base.structure,
                    index=len(shards),
                    cycle=cycle,
                    wire_indices=new_wires,
                    delay_fractions=base.delay_fractions,
                )
            )
    for cycle in new_cycles:
        shards.append(
            WorkShard(
                structure=base.structure,
                index=len(shards),
                cycle=cycle,
                wire_indices=all_wires,
                delay_fractions=base.delay_fractions,
            )
        )
    return CampaignPlan(
        structure=base.structure,
        benchmark=base.benchmark,
        wire_count=base.wire_count,
        wire_indices=all_wires,
        delay_fractions=base.delay_fractions,
        sampled_cycles=base.sampled_cycles + tuple(new_cycles),
        shards=tuple(shards),
    )
