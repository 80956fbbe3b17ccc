"""Statically reachable sets (Definition 2) with per-wire caching.

A state element is *statically reachable* w.r.t. an SDF of duration ``d`` on
wire ``e`` if it terminates a combinational path through ``e`` whose length
exceeds the clock period once ``d`` is added.  This is a purely structural
(cycle-independent) property computed by static timing analysis, so it is
cached per ``(wire, d)`` on the system and shared by every session built on
it — one of the paper's §V-C optimizations (state elements outside this set
trivially latch correctly and never need timing-aware simulation).  The
batched campaign path fills the cache once per shard with :meth:`fill`, one
levelized sweep for all of the shard's uncached queries; :meth:`reachable_set`
is the per-record lookup.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from repro.netlist.netlist import Wire
from repro.timing.sta import StaticTiming


class StaticReachability:
    """Cached statically-reachable-set queries over one design."""

    def __init__(self, sta: StaticTiming):
        self.sta = sta
        self._cache: Dict[Tuple[Wire, float], FrozenSet[int]] = {}

    def fill(self, queries: Iterable[Tuple[Wire, float]]) -> None:
        """Cache the sets of every uncached (wire, delay-fraction) query."""
        missing = list(dict.fromkeys(k for k in queries if k not in self._cache))
        if missing:
            period = self.sta.clock_period
            self._cache.update(zip(missing, self.sta.statically_reachable_batch(
                [(wire, fraction * period) for wire, fraction in missing]
            )))

    def reachable_set(self, wire: Wire, delay_fraction: float) -> FrozenSet[int]:
        """DFF indices statically reachable by +``delay_fraction``·T on *wire*."""
        key = (wire, delay_fraction)
        cached = self._cache.get(key)
        if cached is None:
            self.fill((key,))
            cached = self._cache[key]
        return cached

    def is_reachable(self, wire: Wire, delay_fraction: float) -> bool:
        """Whether the SDF can violate timing at all (Fig. 8's *Static Reach*)."""
        return bool(self.reachable_set(wire, delay_fraction))
