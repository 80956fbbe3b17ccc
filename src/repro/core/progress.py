"""Live campaign progress: stderr ticker + throttled heartbeat file.

A multi-minute parallel campaign is silent between ``analyze()`` and its
result.  :class:`ProgressReporter` streams liveness from the executor's
completion loop: shards done/total, ETA extrapolated from the observed
per-shard rate, the record-cache hit rate, recovery-action counts (retries,
timeouts, evictions, serial fallbacks), and — during adaptive
refinement — the current CI half-width versus its target.

Two channels, both optional:

- **stderr** (``--progress``): a single ``\\r``-rewritten line on a TTY, or
  throttled full lines when piped, so CI logs stay readable.
- **heartbeat file** (derived from ``--metrics-out``): a small JSON document
  atomically rewritten at most every ``min_interval`` seconds, so an external
  monitor (or a human with ``watch cat``) can follow a long run without
  attaching to the process.

The reporter is driven by the *coordinator* process only — workers report
implicitly through the telemetry deltas on each
:class:`repro.core.executor.ShardResult` — so no cross-process
synchronisation is needed beyond a thread lock.
"""

from __future__ import annotations

import json
import sys
import time
from threading import Lock
from typing import Any, Dict, Optional

from repro.fileio import atomic_write


class Heartbeat:
    """Throttled, atomically-replaced JSON status file for external monitors."""

    def __init__(self, path: str, min_interval: float = 2.0):
        self.path = path
        self.min_interval = max(0.0, float(min_interval))
        #: monotonic time of the last write; None = never written (the
        #: monotonic clock counts from boot, so 0.0 would throttle the first
        #: beat on a host up for less than *min_interval*)
        self._last_beat: Optional[float] = None

    def beat(self, payload: Dict[str, Any], force: bool = False) -> bool:
        """Write *payload* if the throttle window has elapsed (or *force*)."""
        now = time.monotonic()
        if (
            not force
            and self._last_beat is not None
            and now - self._last_beat < self.min_interval
        ):
            return False
        self._last_beat = now
        payload = dict(payload)
        payload["updated_unix"] = time.time()
        atomic_write(self.path, json.dumps(payload, indent=2, sort_keys=True))
        return True


class ProgressReporter:
    """Campaign liveness fan-out: stderr ticker and/or heartbeat file.

    Thread-safe (the executor's completion loop and an adaptive engine's
    refinement notifications may interleave).  Construction with neither
    channel enabled is cheap and every method no-ops, so call sites do not
    need to special-case "progress off".
    """

    #: Minimum seconds between full progress lines on a non-TTY stream.
    LINE_INTERVAL = 2.0

    def __init__(
        self,
        stream=None,
        enabled: bool = True,
        heartbeat: Optional[Heartbeat] = None,
        label: str = "campaign",
    ):
        self.stream = sys.stderr if stream is None else stream
        self.enabled = bool(enabled)
        self.heartbeat = heartbeat
        self.label = label
        self._lock = Lock()
        self._is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._started = 0.0
        self._last_line: Optional[float] = None  #: None = no line written
        self._wrote_ticker = False
        self.total = 0
        self.done = 0
        self.injections = 0
        self.cache_hits = 0
        self.notes: Dict[str, int] = {}
        self.refinement_round = 0
        self.half_width: Optional[float] = None
        self.target_half_width: Optional[float] = None
        self.state = "idle"
        self._sequence = 0

    # ------------------------------------------------------------------
    def start(self, total: int) -> None:
        with self._lock:
            self._started = time.monotonic()
            self.total = int(total)
            self.state = "running"
            self._emit(force=True)

    def add_total(self, extra: int) -> None:
        """Grow the shard budget mid-run (adaptive refinement plans)."""
        with self._lock:
            self.total += int(extra)
            self._emit()

    def shard_done(self, telemetry_delta: Optional[Dict[str, Dict]] = None) -> None:
        """One shard finished; *telemetry_delta* feeds the cache-hit rate."""
        with self._lock:
            self.done += 1
            if telemetry_delta:
                counters = telemetry_delta.get("counters", {})
                self.injections += counters.get("injections", 0)
                self.cache_hits += counters.get("record_cache_hits", 0)
            self._emit()

    def note(self, event: str) -> None:
        """Count one executor event under its telemetry counter name
        (``shard_retries``/``workers_evicted``/...)."""
        with self._lock:
            self.notes[event] = self.notes.get(event, 0) + 1
            self._emit(force=True)

    def refinement(self, round_index: int, half_width: float, target: float) -> None:
        with self._lock:
            self.refinement_round = round_index
            self.half_width = half_width
            self.target_half_width = target
            self._emit(force=True)

    def set_half_width(self, half_width: Optional[float]) -> None:
        with self._lock:
            self.half_width = half_width

    def finish(self, state: str = "done") -> None:
        with self._lock:
            self.state = state
            self._emit(force=True)
            if self.enabled and self._is_tty and self._wrote_ticker:
                self.stream.write("\n")
                self.stream.flush()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The heartbeat payload — also the service's progress wire format.

        ``sequence`` increments on every snapshot, so a poller (the service's
        job-status endpoint, a heartbeat-file watcher) can tell a fresh
        snapshot from a re-read of the same one even when the visible
        counters have not moved.
        """
        self._sequence += 1
        elapsed = time.monotonic() - self._started if self._started else 0.0
        payload: Dict[str, Any] = {
            "sequence": self._sequence,
            "label": self.label,
            "state": self.state,
            "shards_done": self.done,
            "shards_total": self.total,
            "elapsed_seconds": round(elapsed, 3),
            "eta_seconds": self._eta(elapsed),
            "cache_hit_rate": self._hit_rate(),
            "notes": dict(self.notes),
        }
        if self.refinement_round:
            payload["refinement_round"] = self.refinement_round
        if self.half_width is not None:
            payload["ci_half_width"] = self.half_width
        if self.target_half_width is not None:
            payload["target_half_width"] = self.target_half_width
        return payload

    def _eta(self, elapsed: float) -> Optional[float]:
        if self.done <= 0 or self.total <= 0 or self.done >= self.total:
            return None
        return round(elapsed / self.done * (self.total - self.done), 3)

    def _hit_rate(self) -> Optional[float]:
        seen = self.injections + self.cache_hits
        if seen <= 0:
            return None
        return round(self.cache_hits / seen, 4)

    def _format_line(self) -> str:
        parts = [f"[{self.label}] {self.done}/{self.total} shards"]
        elapsed = time.monotonic() - self._started if self._started else 0.0
        eta = self._eta(elapsed)
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        hit_rate = self._hit_rate()
        if hit_rate is not None:
            parts.append(f"cache {hit_rate * 100:.0f}%")
        for event in sorted(self.notes):
            parts.append(f"{event} {self.notes[event]}")
        if self.half_width is not None:
            target = (
                f"/{self.target_half_width:.4f}"
                if self.target_half_width is not None
                else ""
            )
            parts.append(f"ci ±{self.half_width:.4f}{target}")
        if self.state not in ("running", "idle"):
            parts.append(self.state)
        return " ".join(parts)

    def _emit(self, force: bool = False) -> None:
        if self.heartbeat is not None:
            self.heartbeat.beat(self.snapshot(), force=force)
        if not self.enabled:
            return
        now = time.monotonic()
        if self._is_tty:
            self.stream.write("\r\x1b[K" + self._format_line())
            self.stream.flush()
            self._wrote_ticker = True
        elif (
            force
            or self._last_line is None
            or now - self._last_line >= self.LINE_INTERVAL
        ):
            self._last_line = now
            self.stream.write(self._format_line() + "\n")
            self.stream.flush()
