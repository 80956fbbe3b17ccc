"""A minimal three-state circuit breaker for flapping dependencies.

The shard coordinator (:class:`repro.core.executor.ParallelExecutor`)
wraps each worker fleet in one of these: repeated worker deaths or shard
timeouts trip the breaker, after which campaigns short-circuit straight to
the in-process serial path instead of paying dispatch-timeout-evict cycles
against a fleet that keeps failing.  After a cool-down the breaker lets exactly one
*half-open probe* through; a clean run closes it again, another failure
re-opens it for a fresh cool-down.

States and transitions (the classic Nygard state machine):

- ``closed``    — normal operation.  ``record_failure`` increments a
  consecutive-failure count; reaching ``failure_threshold`` trips to open.
  ``record_success`` resets the count.
- ``open``      — callers should skip the dependency (``allow`` is False)
  until ``reset_seconds`` have elapsed, then the next ``allow`` transitions
  to half-open and returns True (the probe admission).
- ``half_open`` — one probe is in flight.  ``record_success`` closes;
  ``record_failure`` re-opens immediately.

The breaker is thread-safe and clock-injectable (tests pass a fake
monotonic clock instead of sleeping through cool-downs).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Trip after *failure_threshold* consecutive failures; probe after
    *reset_seconds*."""

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_seconds: float = 30.0,
        clock: Optional[Callable[[], float]] = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.reset_seconds = float(reset_seconds)
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at: Optional[float] = None
        #: Lifetime tallies, mirrored into campaign telemetry by the owner.
        self.trips = 0
        self.probes = 0
        self.recoveries = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, resolving an elapsed open cool-down to probe-ready.

        Reported state is what a caller would experience: an open breaker
        whose cool-down has elapsed reads as ``half_open`` (the next
        ``allow`` admits a probe).
        """
        with self._lock:
            if self._state == OPEN and self._cooled_down():
                return HALF_OPEN
            return self._state

    def _cooled_down(self) -> bool:
        return (
            self._opened_at is not None
            and self._clock() - self._opened_at >= self.reset_seconds
        )

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether the caller may use the dependency right now.

        Closed: always.  Open: only once the cool-down elapsed, which
        atomically admits a single half-open probe.  Half-open: the probe
        is already out; everyone else is refused until it reports back.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN and self._cooled_down():
                self._state = HALF_OPEN
                self.probes += 1
                return True
            return False

    def record_success(self) -> bool:
        """Report a clean use.  Returns True when this closed a breaker."""
        with self._lock:
            recovered = self._state != CLOSED
            self._state = CLOSED
            self._failures = 0
            self._opened_at = None
            if recovered:
                self.recoveries += 1
            return recovered

    def record_failure(self) -> bool:
        """Report a failed use.  Returns True when this tripped the breaker.

        In half-open, one failure re-opens immediately (the probe showed
        the dependency is still sick); in closed, the consecutive-failure
        count must reach the threshold.
        """
        with self._lock:
            if self._state == HALF_OPEN:
                self._state = OPEN
                self._opened_at = self._clock()
                self._failures = 0
                self.trips += 1
                return True
            self._failures += 1
            if self._state == CLOSED and self._failures >= self.failure_threshold:
                self._state = OPEN
                self._opened_at = self._clock()
                self._failures = 0
                self.trips += 1
                return True
            return False

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict view for health endpoints and telemetry."""
        return {
            "state": self.state,
            "failure_threshold": self.failure_threshold,
            "reset_seconds": self.reset_seconds,
            "trips": self.trips,
            "probes": self.probes,
            "recoveries": self.recoveries,
        }
