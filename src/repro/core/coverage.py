"""Per-workload structure coverage extracted from campaign reach sets.

A campaign already computes, for every sampled ``(wire, cycle, delay)``
injection, the *dynamically reachable set* — the downstream state bits a
delay fault there actually corrupts under this workload's traffic
(:mod:`repro.core.dynamic_reach`).  This module reuses that signal as a
coverage metric: a workload **covers** a wire (or a cycle) when at least
one of its injection records there is dynamically reachable, i.e. the
workload's traffic propagates a fault on that wire into architectural
state.  Wires no workload covers are blind spots of the campaign suite —
exactly what DAVOS-style coverage-driven campaign management optimizes.

:class:`CoverageVector` is the per-(structure, workload) summary;
:func:`coverage_from_result` extracts one from a merged campaign result at
zero additional simulation cost, so vectors are computed from results and
never stored (a warm campaign's result comes from the verdict cache's
record table).  :func:`select_workloads` is the greedy
maximum-marginal-coverage selector behind ``api.generate_workloads`` and
the ``repro genwork`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "CoverageVector",
    "WorkloadSelection",
    "coverage_from_result",
    "select_workloads",
    "union_coverage",
]


@dataclass(frozen=True)
class CoverageVector:
    """Which of one structure's wires/cycles a workload exercises.

    ``covered_wires`` are structure wire indices with at least one
    dynamically reachable injection record; ``covered_cycles`` the sampled
    cycles contributing one.  ``wire_count`` is the structure's |E|, so
    :attr:`wire_coverage` is comparable across campaigns of any sample
    size; the ``sampled_*`` counts record how much of the structure this
    campaign actually probed.
    """

    structure: str
    wire_count: int
    covered_wires: FrozenSet[int]
    covered_cycles: FrozenSet[int]
    sampled_wires: int = 0
    sampled_cycles: int = 0

    @property
    def num_covered_wires(self) -> int:
        return len(self.covered_wires)

    @property
    def num_covered_cycles(self) -> int:
        return len(self.covered_cycles)

    @property
    def wire_coverage(self) -> float:
        """Covered fraction of the structure's full wire population."""
        if not self.wire_count:
            return 0.0
        return len(self.covered_wires) / self.wire_count

    def marginal_wires(self, covered: AbstractSet[int]) -> int:
        """How many wires this vector would add to *covered*."""
        return len(self.covered_wires - covered)

    def union(self, other: "CoverageVector") -> "CoverageVector":
        """Merge two vectors over the same structure.

        ``sampled_*`` take the maximum — unions are meaningful across
        campaigns sharing one sampling plan, where the per-workload counts
        agree anyway.
        """
        if other.structure != self.structure:
            raise ValueError(
                f"cannot union coverage of {self.structure!r} "
                f"with {other.structure!r}"
            )
        return CoverageVector(
            structure=self.structure,
            wire_count=max(self.wire_count, other.wire_count),
            covered_wires=self.covered_wires | other.covered_wires,
            covered_cycles=self.covered_cycles | other.covered_cycles,
            sampled_wires=max(self.sampled_wires, other.sampled_wires),
            sampled_cycles=max(self.sampled_cycles, other.sampled_cycles),
        )

    def to_payload(self) -> Dict:
        """JSON-serializable form (a genwork proposal reports it)."""
        return {
            "structure": self.structure,
            "wire_count": self.wire_count,
            "covered_wires": sorted(self.covered_wires),
            "covered_cycles": sorted(self.covered_cycles),
            "sampled_wires": self.sampled_wires,
            "sampled_cycles": self.sampled_cycles,
        }


def coverage_from_result(result) -> CoverageVector:
    """Extract a :class:`CoverageVector` from a merged campaign result.

    *result* is a :class:`repro.core.results.StructureCampaignResult`; a
    wire/cycle counts as covered when any of its records (any delay) has a
    non-empty dynamically reachable set.  Pure bookkeeping over records the
    campaign already computed — no additional simulation.
    """
    wires = set()
    cycles = set()
    for delay_result in result.by_delay.values():
        for record in delay_result.records:
            if record.num_errors > 0:
                wires.add(record.wire_index)
                cycles.add(record.cycle)
    return CoverageVector(
        structure=result.structure,
        wire_count=result.wire_count,
        covered_wires=frozenset(wires),
        covered_cycles=frozenset(cycles),
        sampled_wires=result.sampled_wires,
        sampled_cycles=len(result.sampled_cycles),
    )


def union_coverage(vectors: Sequence[CoverageVector]) -> CoverageVector:
    """The union of a non-empty sequence of same-structure vectors."""
    if not vectors:
        raise ValueError("cannot union an empty set of coverage vectors")
    merged = vectors[0]
    for vector in vectors[1:]:
        merged = merged.union(vector)
    return merged


def select_workloads(
    vectors: Mapping[str, CoverageVector], count: int
) -> Tuple[List[str], List[int]]:
    """Greedy maximum-marginal-coverage selection of *count* workloads.

    *vectors* maps candidate name -> coverage vector; iteration order
    breaks ties (first candidate wins), so the selection is deterministic
    for an ordered mapping.  Returns ``(selected_names, marginal_gains)``
    where ``marginal_gains[i]`` is how many new wires selection step *i*
    added.  Selection continues past the point of zero gain (diversity
    exhausted) until *count* workloads are chosen or candidates run out —
    the gains list makes the saturation visible.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    remaining = list(vectors)
    covered: set = set()
    selected: List[str] = []
    gains: List[int] = []
    while remaining and len(selected) < count:
        best = None
        best_gain = -1
        for name in remaining:
            gain = vectors[name].marginal_wires(covered)
            if gain > best_gain:
                best, best_gain = name, gain
        selected.append(best)
        gains.append(best_gain)
        covered |= vectors[best].covered_wires
        remaining.remove(best)
    return selected, gains


@dataclass(frozen=True)
class WorkloadSelection:
    """The outcome of one coverage-directed workload selection.

    ``selected`` (with per-step ``gains``) is the greedy pick over
    ``candidates``; ``union`` its combined coverage; ``baseline`` the
    combined coverage of the first ``len(selected)`` candidates in
    submission order (i.e. sequential seeds) — the naive alternative the
    selection is measured against.
    """

    structure: str
    selected: Tuple[str, ...]
    gains: Tuple[int, ...]
    candidates: Tuple[str, ...]
    vectors: Mapping[str, CoverageVector] = field(compare=False)
    union: CoverageVector = field(compare=False)
    baseline: Optional[CoverageVector] = field(default=None, compare=False)

    def to_payload(self) -> Dict:
        payload: Dict = {
            "structure": self.structure,
            "selected": list(self.selected),
            "gains": list(self.gains),
            "candidates": list(self.candidates),
            "vectors": {
                name: vector.to_payload()
                for name, vector in self.vectors.items()
            },
            "union": self.union.to_payload(),
        }
        if self.baseline is not None:
            payload["baseline"] = self.baseline.to_payload()
        return payload
