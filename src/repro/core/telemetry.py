"""Campaign telemetry: counters, gauges, and phase timers.

One :class:`CampaignTelemetry` instance is threaded through a campaign
session's analyzers (:class:`repro.core.delayavf.DelayAceEvaluator`,
:class:`repro.core.group_ace.GroupAceAnalyzer`,
:class:`repro.core.dynamic_reach.DynamicReachability`) so that a campaign can
report *why* it was fast or slow: how many injections the §V-C short-circuits
skipped, how well the GroupACE / verdict caches performed, how full the
packed-simulator lanes ran, and where the wall-clock time went.

Counters are plain integer increments (cheap enough for per-injection use).
Gauges are point-in-time float levels (the final ``ci_half_width`` of an
adaptive campaign is a level, not a tally); when per-worker gauges merge back
into the coordinator, each gauge follows its declared policy in
:data:`GAUGE_MERGE_POLICIES` — ``max`` (the default: the worst level wins,
deterministically, no matter which worker's future completes first), ``min``,
or ``last`` (explicit opt-in to completion-order semantics).

Phase timers are cumulative ``time.perf_counter`` spans kept in **two**
ledgers: ``phase_seconds`` sums every span including per-worker ones merged
across process boundaries (labelled ``cpu·workers`` in reports — for a
parallel campaign this exceeds wall-clock by roughly the parallelism), and
``phase_wall_seconds`` records only spans observed by the owning process and
is deliberately *not* merged from worker snapshots, so on the coordinator it
is genuine wall-clock.  Serial campaigns show identical columns.

Instances merge, so the parallel executor can combine per-worker telemetry
into one campaign report, and snapshots/diffs are plain dicts, so they pickle
across process boundaries.

The fault-tolerance counters (``shard_retries``, ``shard_timeouts``,
``serial_fallbacks``, ``shards_resumed``) and the worker-fleet counters of
the shard coordinator, :class:`repro.core.executor.ParallelExecutor`
(``workers_joined``, ``workers_evicted``, ``worker_shards_completed``),
record how hard execution had to work to bring a campaign home; a non-zero
``shard_timeouts``, ``serial_fallbacks``, or ``workers_evicted`` also raises
the ``degraded`` flag on the campaign's
:class:`repro.core.results.StructureCampaignResult`.  The robustness counters
(``refinement_rounds``, ``extra_shards``, ``guard_violations``) and the
``ci_half_width`` gauge record what the adaptive-precision loop and the
post-merge invariant guards did.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: Presentation order for the known counters (unknown ones sort last).
COUNTER_ORDER = (
    "probe_runs",
    "probe_skips",
    "length_hint_hits",
    "length_store_hits",
    "stale_length_hints",
    "golden_runs",
    "waveforms_built",
    "injections",
    "static_unreachable",
    "toggle_skips",
    "dynamic_empty",
    "multi_bit_sets",
    "resim_cache_hits",
    "cone_resims",
    "batch_resims",
    "batch_scalar_fallbacks",
    "packed_cone_words",
    "packed_cone_lanes",
    "packed_cone_lane_slots",
    "packed_scalar_lanes",
    "cone_index_hits",
    "cone_index_builds",
    "group_ace_runs",
    "group_ace_cache_hits",
    "verdict_cache_hits",
    "record_cache_hits",
    "lane_batches",
    "lanes_filled",
    "lane_slots",
    "shard_retries",
    "shard_timeouts",
    "serial_fallbacks",
    "shards_resumed",
    # Worker-fleet lifecycle (counted by the shard coordinator,
    # repro.core.executor.ParallelExecutor; an eviction also raises the
    # campaign's degraded flag).
    "workers_joined",
    "workers_evicted",
    "worker_shards_completed",
    "refinement_rounds",
    "extra_shards",
    "guard_violations",
    # Coverage-directed workload generation: vectors persisted after a merge.
    "coverage_vectors",
    # Campaign-service job lifecycle (counted by repro.service, reported
    # through the same telemetry pipeline as everything else).
    "jobs_submitted",
    "jobs_deduplicated",
    "jobs_completed",
    "jobs_failed",
    "client_disconnects",
    # Durability & integrity (PR 9): cache quarantines, journal recovery,
    # bounded-queue rejections, fleet circuit breakers, transport hygiene.
    "cache_quarantines",
    "jobs_recovered",
    "jobs_requeued",
    "jobs_rejected_overloaded",
    "journal_torn_tails",
    "breaker_trips",
    "breaker_probes",
    "breaker_recoveries",
    "breaker_short_circuits",
    "corrupt_frames",
    "spool_files_swept",
)

#: Presentation order for the known phases.
PHASE_ORDER = (
    "campaign",
    "golden",
    "plan",
    "waveforms",
    "batch_resim",
    "prefetch",
    "evaluate",
    "execute",
    "merge",
    "refine",
    "guards",
)

#: Presentation order for the known gauges.
GAUGE_ORDER = (
    "ci_half_width",
    "packed_lane_occupancy",
    "group_ace_lane_occupancy",
    "eval_programs_cached",
    "eval_program_evictions",
)

#: How each gauge combines when worker snapshots merge into the coordinator.
#: ``max``: the largest incoming-or-current value wins (order-independent;
#: right for "worst level observed" gauges like ``ci_half_width`` — a
#: campaign is only as converged as its least-converged worker).  ``min``:
#: the smallest wins.  ``last``: incoming overwrites current — the historical
#: behaviour, now an explicit opt-in because it makes the merged value depend
#: on future-completion order.  Undeclared gauges default to
#: :data:`DEFAULT_GAUGE_POLICY`.
GAUGE_MERGE_POLICIES: Dict[str, str] = {
    "ci_half_width": "max",
    # Occupancy gauges are recomputed post-merge from their counters in
    # DelayAVFEngine._finalize; "last" keeps the recomputed value.
    "packed_lane_occupancy": "last",
    "group_ace_lane_occupancy": "last",
    # Program-cache gauges describe the coordinator's shared EvalPlan.
    "eval_programs_cached": "max",
    "eval_program_evictions": "max",
}

DEFAULT_GAUGE_POLICY = "max"

_VALID_GAUGE_POLICIES = frozenset({"max", "min", "last"})


def gauge_merge_policy(name: str) -> str:
    """The declared merge policy for gauge *name* (default ``max``)."""
    policy = GAUGE_MERGE_POLICIES.get(name, DEFAULT_GAUGE_POLICY)
    if policy not in _VALID_GAUGE_POLICIES:
        raise ValueError(f"unknown gauge merge policy {policy!r} for {name!r}")
    return policy


class CampaignTelemetry:
    """Mutable counters + gauges + phase timers for one campaign session."""

    __slots__ = ("counters", "phase_seconds", "phase_wall_seconds", "gauges")

    def __init__(
        self,
        counters: Optional[Dict[str, int]] = None,
        phase_seconds: Optional[Dict[str, float]] = None,
        gauges: Optional[Dict[str, float]] = None,
        phase_wall_seconds: Optional[Dict[str, float]] = None,
    ):
        self.counters: Dict[str, int] = dict(counters or {})
        self.phase_seconds: Dict[str, float] = dict(phase_seconds or {})
        self.phase_wall_seconds: Dict[str, float] = dict(phase_wall_seconds or {})
        self.gauges: Dict[str, float] = dict(gauges or {})

    # ------------------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def merge_gauge(self, name: str, value: float) -> None:
        """Fold an incoming (e.g. per-worker) gauge in by its declared policy."""
        value = float(value)
        current = self.gauges.get(name)
        policy = gauge_merge_policy(name)
        if current is None or policy == "last":
            self.gauges[name] = value
        elif policy == "max":
            self.gauges[name] = max(current, value)
        else:  # "min"
            self.gauges[name] = min(current, value)

    def gauge(self, name: str) -> Optional[float]:
        return self.gauges.get(name)

    def add_seconds(self, phase: str, seconds: float, wall: bool = True) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds
        if wall:
            self.phase_wall_seconds[phase] = (
                self.phase_wall_seconds.get(phase, 0.0) + seconds
            )

    @contextmanager
    def timer(self, phase: str) -> Iterator[None]:
        """Accumulate the wall-clock time of the ``with`` body under *phase*.

        Spans recorded through :meth:`timer` are wall-clock *in the recording
        process* and land in both ledgers; only the merge step (which brings
        in spans timed by other processes) adds to ``phase_seconds`` alone.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_seconds(phase, time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Snapshots, diffs, and merging (plain dicts: picklable across workers)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        return {
            "counters": dict(self.counters),
            "phase_seconds": dict(self.phase_seconds),
            "phase_wall_seconds": dict(self.phase_wall_seconds),
            "gauges": dict(self.gauges),
        }

    def diff(self, before: Dict[str, Dict]) -> Dict[str, Dict]:
        """Snapshot delta since *before* (an earlier :meth:`snapshot`).

        All sections treat *before* defensively (an older-shape snapshot
        missing a section reads as empty) and symmetrically: a counter or
        phase present only in *before* yields a negative delta instead of
        being silently dropped.
        """
        before_counters = before.get("counters", {})
        before_phases = before.get("phase_seconds", {})
        before_wall = before.get("phase_wall_seconds", {})
        before_gauges = before.get("gauges", {})
        counters = {}
        for name in sorted(set(self.counters) | set(before_counters)):
            delta = self.counters.get(name, 0) - before_counters.get(name, 0)
            if delta:
                counters[name] = delta
        phases = {}
        for name in sorted(set(self.phase_seconds) | set(before_phases)):
            delta = self.phase_seconds.get(name, 0.0) - before_phases.get(name, 0.0)
            if delta:
                phases[name] = delta
        wall = {}
        for name in sorted(set(self.phase_wall_seconds) | set(before_wall)):
            delta = self.phase_wall_seconds.get(name, 0.0) - before_wall.get(
                name, 0.0
            )
            if delta:
                wall[name] = delta
        gauges = {
            name: value
            for name, value in self.gauges.items()
            if value != before_gauges.get(name)
        }
        return {
            "counters": counters,
            "phase_seconds": phases,
            "phase_wall_seconds": wall,
            "gauges": gauges,
        }

    def merge_snapshot(self, snap: Dict[str, Dict]) -> None:
        """Fold a (typically per-worker) snapshot delta into this instance.

        Counters and cumulative ``phase_seconds`` sum; gauges follow their
        declared policy in :data:`GAUGE_MERGE_POLICIES`; incoming
        ``phase_wall_seconds`` are intentionally **dropped** — a worker's
        wall-clock is CPU time from the coordinator's point of view, and the
        coordinator's own wall ledger already covers the elapsed time.
        """
        for name, value in snap.get("counters", {}).items():
            self.incr(name, value)
        for name, value in snap.get("phase_seconds", {}).items():
            self.add_seconds(name, value, wall=False)
        for name, value in snap.get("gauges", {}).items():
            self.merge_gauge(name, value)

    def merge(self, other: "CampaignTelemetry") -> None:
        self.merge_snapshot(other.snapshot())

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Dict]) -> "CampaignTelemetry":
        return cls(
            snap.get("counters"),
            snap.get("phase_seconds"),
            snap.get("gauges"),
            snap.get("phase_wall_seconds"),
        )

    # ------------------------------------------------------------------
    # Pickling (__slots__ classes need explicit state handling)
    # ------------------------------------------------------------------
    def __getstate__(self):
        return self.snapshot()

    def __setstate__(self, state):
        self.counters = dict(state.get("counters", {}))
        self.phase_seconds = dict(state.get("phase_seconds", {}))
        self.phase_wall_seconds = dict(state.get("phase_wall_seconds", {}))
        self.gauges = dict(state.get("gauges", {}))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CampaignTelemetry):
            return NotImplemented
        return (
            self.counters == other.counters
            and self.phase_seconds == other.phase_seconds
            and self.phase_wall_seconds == other.phase_wall_seconds
            and self.gauges == other.gauges
        )

    def __repr__(self) -> str:
        return (
            f"CampaignTelemetry(counters={self.counters!r}, "
            f"phase_seconds={self.phase_seconds!r}, "
            f"phase_wall_seconds={self.phase_wall_seconds!r}, "
            f"gauges={self.gauges!r})"
        )
