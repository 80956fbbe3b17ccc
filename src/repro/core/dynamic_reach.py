"""Dynamically reachable sets (Definition 3) — the timing-aware step.

The dynamically reachable set of an SDF is the set of state elements that
actually latch an incorrect value: statically reachable *and* not logically
masked.  This module wraps the event-driven simulator with the §V-C
short-circuits:

- if the faulted wire's source does not toggle in the injection cycle, the
  set is trivially empty (no timing-aware simulation at all);
- if nothing is statically reachable, the set is trivially empty;
- otherwise only the fan-out cone of the faulted wire is re-simulated against
  the shared fault-free waveforms of that cycle.

:meth:`DynamicReachability.reachable_set_batch` applies the same
short-circuits to a whole cycle's worth of (wire, delay) queries at once and
feeds the survivors to :meth:`repro.sim.eventsim.EventSimulator.
resimulate_batch`, which amortizes cone construction and fault-free waveform
gathering across the batch (the ``batch_resims`` / ``cone_index_hits``
telemetry and the ``batch_resim`` phase report how much of the campaign ran
batched).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.static_reach import StaticReachability
from repro.core.telemetry import CampaignTelemetry
from repro.netlist.netlist import Wire
from repro.sim.eventsim import CycleWaveforms, EventSimulator


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
        errors = self.event_sim.resimulate(waves, wire, extra)
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
        lanes: int = 64,
    ) -> List[Dict[int, int]]:
        """Batched :meth:`reachable_set` over one cycle's injections.

        Applies the §V-C short-circuits and the per-cycle memo to every
        (wire, delay-fraction) query first, then re-simulates the remaining
        misses in one :meth:`EventSimulator.resimulate_batch` call so that
        injections sharing a fan-out cone share its construction and
        fault-free slices, word-packed up to *lanes* bit-planes wide.
        Results are memoized like the scalar path, so a later
        :meth:`reachable_set` for the same query is a cache hit.  Returns
        one reachable-set dict per query, in input order.
        """
        telemetry = self.telemetry
        results: List[Optional[Dict[int, int]]] = [None] * len(queries)
        pending: Dict[Tuple[Wire, float], List[int]] = {}
        for pos, (wire, fraction) in enumerate(queries):
            if not waves.toggles(wire.net):
                telemetry.incr("toggle_skips")
                results[pos] = {}
            elif not self.static.is_reachable(wire, fraction):
                results[pos] = {}
            else:
                key = (wire, fraction)
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
            fallbacks_before = sim.batch_scalar_fallbacks
            packed_before = (
                sim.packed_cone_words,
                sim.packed_cone_lanes,
                sim.packed_cone_lane_slots,
                sim.packed_scalar_lanes,
            )
            with telemetry.phase(
                "batch_resim", "dynamic.batch_reach", cat="sim",
                cycle=waves.cycle, queries=len(keys), lanes=lanes,
            ):
                batch = sim.resimulate_batch(
                    waves,
                    [(wire, fraction * period) for wire, fraction in keys],
                    lanes=lanes,
                )
            telemetry.incr("batch_resims", len(keys))
            telemetry.incr(
                "cone_index_hits", sim.cone_index.hits - hits_before
            )
            telemetry.incr(
                "cone_index_builds", sim.cone_index.builds - builds_before
            )
            telemetry.incr(
                "batch_scalar_fallbacks",
                sim.batch_scalar_fallbacks - fallbacks_before,
            )
            telemetry.incr(
                "packed_cone_words", sim.packed_cone_words - packed_before[0]
            )
            telemetry.incr(
                "packed_cone_lanes", sim.packed_cone_lanes - packed_before[1]
            )
            telemetry.incr(
                "packed_cone_lane_slots",
                sim.packed_cone_lane_slots - packed_before[2],
            )
            telemetry.incr(
                "packed_scalar_lanes",
                sim.packed_scalar_lanes - packed_before[3],
            )
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
