"""Campaign telemetry: counters, gauges, and phase ledgers.

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
into the coordinator, the largest value wins — deterministically, no matter
which worker's shard completes first — except for the :data:`LAST_GAUGES`,
which the coordinator recomputes after the merge.

Time is recorded by :meth:`CampaignTelemetry.phase`, the one instrumentation
primitive: it reads the clock once at entry and once at exit, adds the
duration to both phase ledgers and, when tracing is on, makes it the ``ts``
and ``dur`` of the phase's span (:mod:`repro.core.tracing`), so a phase
whose every call names a span has a ledger exactly the sum of its spans;
a call without a span name is ledger-only.  ``phase_seconds`` also sums
the phases timed in worker processes (labelled ``cpu·workers`` in reports —
for a parallel campaign this exceeds wall-clock by roughly the
parallelism), while ``phase_wall_seconds`` keeps only the phases the owning
process timed and is deliberately *not* merged from worker deltas, so on
the coordinator it is genuine wall-clock.  Serial campaigns show identical
columns.

Snapshots and diffs are plain dicts: workers ship each shard's telemetry
delta as JSON with its result, and the coordinator folds the deltas into the
campaign's instance with :meth:`CampaignTelemetry.merge_snapshot`.

The fault-tolerance counters (``shard_retries``, ``shard_timeouts``,
``serial_fallbacks``) and the worker-fleet counters of
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
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional

from repro.core import tracing

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
    "slack_skips",
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
    # Worker-fleet lifecycle (counted by the shard coordinator,
    # repro.core.executor.ParallelExecutor; an eviction also raises the
    # campaign's degraded flag).
    "workers_joined",
    "workers_evicted",
    "worker_shards_completed",
    "refinement_rounds",
    "extra_shards",
    "guard_violations",
    # Campaign-service job lifecycle (counted by repro.service, reported
    # through the same telemetry pipeline as everything else).
    "jobs_submitted",
    "jobs_deduplicated",
    "jobs_completed",
    "jobs_failed",
    "client_disconnects",
    # Durability & integrity (PR 9): cache quarantines, journal recovery,
    # bounded-queue rejections, transport hygiene.
    "cache_quarantines",
    "jobs_recovered",
    "jobs_requeued",
    "jobs_rejected_overloaded",
    "journal_torn_tails",
    "corrupt_frames",
)

#: Presentation order for the known phases.
PHASE_ORDER = (
    "campaign",
    "golden",
    "plan",
    "waveforms",
    "static_reach",
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

#: Gauges an incoming (per-worker) value overwrites when snapshots merge:
#: the occupancy gauges are recomputed post-merge from their counters in
#: DelayAVFEngine._close.  Every other gauge merges by max (a campaign is
#: only as converged as its least-converged worker).
LAST_GAUGES = frozenset({"packed_lane_occupancy", "group_ace_lane_occupancy"})


@dataclass
class CampaignTelemetry:
    """Mutable counters + gauges + phase ledgers for one campaign session."""

    counters: Dict[str, int] = field(default_factory=dict)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    phase_wall_seconds: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def merge_gauge(self, name: str, value: float) -> None:
        """Fold an incoming (e.g. per-worker) gauge in: the larger value
        wins, except that an incoming :data:`LAST_GAUGES` value overwrites."""
        value = float(value)
        current = self.gauges.get(name)
        if current is None or name in LAST_GAUGES:
            self.gauges[name] = value
        else:
            self.gauges[name] = max(current, value)

    def gauge(self, name: str) -> Optional[float]:
        return self.gauges.get(name)

    def add_seconds(self, phase: str, seconds: float, wall: bool = True) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds
        if wall:
            self.phase_wall_seconds[phase] = (
                self.phase_wall_seconds.get(phase, 0.0) + seconds
            )

    @contextmanager
    def phase(
        self,
        name: str,
        span: Optional[str] = None,
        *,
        cat: str = "campaign",
        **attrs: Any,
    ) -> Iterator[None]:
        """Time the ``with`` body as phase *name* and, when tracing is on
        and *span* is given, as that span (category *cat*, attributes
        *attrs*).

        The clock is read once at entry and once at exit, and the span gets
        the same start and duration, so this call adds exactly the span's
        ``dur`` to the ledgers.  The duration is wall-clock *in the recording
        process*, so it lands in both ledgers; only :meth:`merge_snapshot`,
        which brings in phases timed by other processes, adds to
        ``phase_seconds`` alone.
        """
        tracer = tracing.tracer()
        record = (
            tracer.open(span, cat, attrs)
            if span is not None and tracer.enabled
            else None
        )
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            self.add_seconds(name, seconds)
            if record is not None:
                tracer.close(record, start, seconds)

    # ------------------------------------------------------------------
    # Snapshots, diffs, and merging (plain dicts: JSON-safe for workers)
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
        before_gauges = before.get("gauges", {})
        return {
            "counters": _delta(self.counters, before.get("counters", {})),
            "phase_seconds": _delta(
                self.phase_seconds, before.get("phase_seconds", {})
            ),
            "phase_wall_seconds": _delta(
                self.phase_wall_seconds, before.get("phase_wall_seconds", {})
            ),
            "gauges": {
                name: value
                for name, value in self.gauges.items()
                if value != before_gauges.get(name)
            },
        }

    def merge_snapshot(self, snap: Dict[str, Dict]) -> None:
        """Fold a (typically per-worker) snapshot delta into this instance.

        Counters and cumulative ``phase_seconds`` sum; gauges merge by
        :meth:`merge_gauge`; incoming ``phase_wall_seconds`` are
        intentionally **dropped** — a worker's wall-clock is CPU time from
        the coordinator's point of view, and the coordinator's own wall
        ledger already covers the elapsed time.
        """
        for name, value in snap.get("counters", {}).items():
            self.incr(name, value)
        for name, value in snap.get("phase_seconds", {}).items():
            self.add_seconds(name, value, wall=False)
        for name, value in snap.get("gauges", {}).items():
            self.merge_gauge(name, value)

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Dict]) -> "CampaignTelemetry":
        return cls(
            dict(snap.get("counters", {})),
            dict(snap.get("phase_seconds", {})),
            dict(snap.get("gauges", {})),
            dict(snap.get("phase_wall_seconds", {})),
        )


def _delta(now: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    """The non-zero per-name changes from *before* to *now*, sorted by name."""
    delta = {}
    for name in sorted(set(now) | set(before)):
        change = now.get(name, 0) - before.get(name, 0)
        if change:
            delta[name] = change
    return delta
