"""Dynamically reachable sets (Definition 3) — the timing-aware step.

The dynamically reachable set of an SDF is the set of state elements that
actually latch an incorrect value: statically reachable *and* not logically
masked.  This module wraps the event-driven simulator with the §V-C
short-circuits, in Eq. 4 order:

- if nothing is statically reachable, the set is trivially empty;
- if the faulted wire's source does not toggle in the injection cycle, the
  set is trivially empty (no timing-aware simulation at all);
- if the shifted source settles before any DFF samples it, the set is
  empty (the simulator's settled-source skip, ``slack_skips``);
- otherwise only the fan-out cone of the faulted wire is re-simulated against
  the shared fault-free waveforms of that cycle.

:meth:`DynamicReachability.reachable_set_batch` fills the static-reach cache
for a whole cycle's worth of (wire, delay) queries in one levelized sweep
(the ``static_reach`` phase), applies the same short-circuits and feeds the
survivors to :meth:`repro.sim.eventsim.EventSimulator.resimulate_batch`,
which amortizes cone construction and fault-free waveform gathering across
the batch (the ``batch_resims`` / ``cone_index_hits`` telemetry and the
``batch_resim`` phase report how much of the campaign ran batched).  The
funnel counters count each record once, on the per-record path
(:meth:`DynamicReachability.reachable_set`, which
:class:`repro.core.delayavf.DelayAceEvaluator` asks only about statically
reachable injections).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.static_reach import StaticReachability
from repro.core.telemetry import CampaignTelemetry
from repro.netlist.netlist import Wire
from repro.sim.eventsim import CycleWaveforms, EventSimulator

#: Event-simulator counters a batch copies into telemetry as deltas.
_SIM_COUNTERS = (
    "batch_scalar_fallbacks", "slack_skips", "packed_cone_words",
    "packed_cone_lanes", "packed_cone_lane_slots", "packed_scalar_lanes",
)


class DynamicReachability:
    """Timing-aware dynamically-reachable-set computation."""

    def __init__(
        self,
        event_sim: EventSimulator,
        static: StaticReachability,
        telemetry: Optional[CampaignTelemetry] = None,
    ):
        self.event_sim = event_sim
        self.static = static
        self.telemetry = telemetry if telemetry is not None else CampaignTelemetry()

    def reachable_set(
        self, waves: CycleWaveforms, wire: Wire, delay_fraction: float
    ) -> Dict[int, int]:
        """``{dff_index: erroneous latched value}`` for this SDF.

        *waves* are the fault-free waveforms of the injection cycle (shared
        across every wire and delay examined at that cycle).  Results are
        memoized on the waveforms object so the batched campaign's prefetch
        pass and the per-record evaluation share one computation.
        """
        if not waves.toggles(wire.net):
            self.telemetry.incr("toggle_skips")
            return {}
        if not self.static.is_reachable(wire, delay_fraction):
            return {}
        key = (wire, delay_fraction)
        cached = waves.resim_cache.get(key)
        if cached is not None:
            self.telemetry.incr("resim_cache_hits")
            return dict(cached)
        self.telemetry.incr("cone_resims")
        extra = delay_fraction * self.static.sta.clock_period
        skips = self.event_sim.slack_skips
        errors = self.event_sim.resimulate(waves, wire, extra)
        self.telemetry.incr("slack_skips", self.event_sim.slack_skips - skips)
        # Exactness check (Definition 3): every erroneous latch must be
        # statically reachable; anything else indicates a timing-model bug.
        static_set = self.static.reachable_set(wire, delay_fraction)
        assert set(errors) <= static_set, (
            "dynamically reachable set escaped the statically reachable set"
        )
        waves.resim_cache[key] = dict(errors)
        return errors

    def reachable_set_batch(
        self,
        waves: CycleWaveforms,
        queries: Sequence[Tuple[Wire, float]],
    ) -> List[Dict[int, int]]:
        """Batched :meth:`reachable_set` over one cycle's injections.

        Fills the static-reach cache for every query (non-toggling ones
        too: every record needs ``num_statically_reachable``), applies the
        §V-C short-circuits and the per-cycle memo, then re-simulates the
        remaining misses in one :meth:`EventSimulator.resimulate_batch` call
        so that injections sharing a fan-out cone share its construction and
        fault-free slices, word-packed up to 64 bit-planes wide.
        Results are memoized like the scalar path, so a later
        :meth:`reachable_set` for the same query is a cache hit.  Returns
        one reachable-set dict per query, in input order.
        """
        telemetry = self.telemetry
        with telemetry.phase(
            "static_reach", "static.reach_batch", cat="timing",
            cycle=waves.cycle, queries=len(queries),
        ):
            self.static.fill(queries)
        results: List[Optional[Dict[int, int]]] = [None] * len(queries)
        pending: Dict[Tuple[Wire, float], List[int]] = {}
        for pos, key in enumerate(queries):
            wire, fraction = key
            if not waves.toggles(wire.net) or not self.static.is_reachable(*key):
                results[pos] = {}  # the funnel counts it per record
                continue
            cached = waves.resim_cache.get(key)
            if cached is not None:
                telemetry.incr("resim_cache_hits")
                results[pos] = dict(cached)
            else:
                pending.setdefault(key, []).append(pos)
        if pending:
            sim = self.event_sim
            period = self.static.sta.clock_period
            keys = list(pending)
            hits_before = sim.cone_index.hits
            builds_before = sim.cone_index.builds
            before = [getattr(sim, name) for name in _SIM_COUNTERS]
            with telemetry.phase(
                "batch_resim", "dynamic.batch_reach", cat="sim",
                cycle=waves.cycle, queries=len(keys),
            ):
                batch = sim.resimulate_batch(
                    waves,
                    [(wire, fraction * period) for wire, fraction in keys],
                )
            telemetry.incr("batch_resims", len(keys))
            telemetry.incr(
                "cone_index_hits", sim.cone_index.hits - hits_before
            )
            telemetry.incr(
                "cone_index_builds", sim.cone_index.builds - builds_before
            )
            for name, count in zip(_SIM_COUNTERS, before):
                telemetry.incr(name, getattr(sim, name) - count)
            for key, errors in zip(keys, batch):
                wire, fraction = key
                static_set = self.static.reachable_set(wire, fraction)
                assert set(errors) <= static_set, (
                    "dynamically reachable set escaped the statically "
                    "reachable set"
                )
                waves.resim_cache[key] = dict(errors)
                for pos in pending[key]:
                    results[pos] = dict(errors)
        return results  # type: ignore[return-value]
