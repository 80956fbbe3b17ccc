"""Append-only write-ahead journal for campaign-service jobs.

The campaign service keeps every accepted job's lifecycle in one JSONL file
(``journal.jsonl`` under the journal directory), one event per line:

- ``{"event": "submitted", "job_id", "spec", "priority", "ts"}`` — the
  job's full canonical spec travels with the event, so replay can rebuild
  the exact :class:`~repro.service.jobs.JobSpec` (and re-derive its content
  address as a consistency check).
- ``{"event": "started", "job_id", "ts"}`` — the job began executing.
- ``{"event": "finished", "job_id", "ts", "result_sha256" | "error",
  "telemetry"}`` — terminal.  Results are large, so they live outside the
  journal in a content-addressed store (``results/<job_id>.json``, written
  atomically *before* the event is appended); the event carries the file's
  sha256 so replay can verify the stored bytes before serving them.
  Errors are small and ride inline.

Durability knob (``repro serve --journal-fsync``): ``always`` fsyncs after
every append (lose nothing the client was told about), ``interval`` fsyncs
at most every few seconds (bounded loss window, cheaper), ``never`` leaves
flushing to the OS (the write() still happens eagerly, so only an OS crash
— not a process crash — can lose events).

Replay (:meth:`JobJournal.replay`) tolerates exactly the damage a crash can
inflict: a torn final line (the daemon died mid-append) is truncated away —
and counted, so telemetry shows it happened — rather than poisoning the
parse.  Anything *before* a damaged line is kept; anything after is
unreachable by construction (appends are sequential).

The journal is an inverted index of promises: ``submitted`` without
``finished`` means the daemon owes the client a run (recovery re-enqueues
it); ``finished`` with a verifiable stored result means the work must never
be repeated (recovery serves it from the store with zero re-simulation).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.fileio import atomic_write

__all__ = ["JobJournal", "FSYNC_POLICIES"]

FSYNC_POLICIES = ("always", "interval", "never")

JOURNAL_NAME = "journal.jsonl"
RESULTS_DIR = "results"


class JobJournal:
    """One directory holding the event log and the result store."""

    def __init__(
        self,
        directory,
        fsync_policy: str = "always",
        fsync_interval: float = 5.0,
    ):
        if fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync_policy must be one of {FSYNC_POLICIES}, "
                f"got {fsync_policy!r}"
            )
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_NAME
        self.results_dir = self.directory / RESULTS_DIR
        self.fsync_policy = fsync_policy
        self.fsync_interval = max(0.0, float(fsync_interval))
        self.directory.mkdir(parents=True, exist_ok=True)
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = None
        self._last_fsync = time.monotonic()
        #: Torn trailing lines removed by :meth:`replay` (telemetry feed).
        self.torn_tails = 0

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _append(self, event: Dict[str, Any]) -> None:
        line = json.dumps(event, sort_keys=True) + "\n"
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            try:
                self._handle.write(line)
                self._handle.flush()
                if self._fsync_due():
                    os.fsync(self._handle.fileno())
                    self._last_fsync = time.monotonic()
            except OSError as exc:
                # A full or failing disk must not take down job execution;
                # it only weakens the durability promise, loudly.
                print(
                    f"repro: job journal append failed ({exc}); continuing "
                    f"without durability for this event",
                    file=sys.stderr,
                )

    def _fsync_due(self) -> bool:
        if self.fsync_policy == "always":
            return True
        if self.fsync_policy == "never":
            return False
        return time.monotonic() - self._last_fsync >= self.fsync_interval

    def record_submitted(
        self, job_id: str, spec_canonical: Dict[str, Any], priority: int
    ) -> None:
        self._append(
            {
                "event": "submitted",
                "job_id": job_id,
                "spec": spec_canonical,
                "priority": priority,
                "ts": time.time(),
            }
        )

    def record_started(self, job_id: str) -> None:
        self._append({"event": "started", "job_id": job_id, "ts": time.time()})

    def record_finished(
        self,
        job_id: str,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[Dict[str, Any]] = None,
        telemetry: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Journal a terminal state; the result file is stored first.

        The ordering is the durability argument: once the ``finished`` event
        is on disk its digest refers to bytes that are already there, so a
        crash between the two can only lose the *event* (the job replays as
        incomplete and re-runs — wasteful, never wrong).
        """
        event: Dict[str, Any] = {
            "event": "finished",
            "job_id": job_id,
            "ts": time.time(),
        }
        if error is not None:
            event["error"] = error
        else:
            event["result_sha256"] = self._store_result(job_id, result or {})
        if telemetry is not None:
            event["telemetry"] = telemetry
        self._append(event)

    # ------------------------------------------------------------------
    # Result store
    # ------------------------------------------------------------------
    def _result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    def _store_result(self, job_id: str, result: Dict[str, Any]) -> str:
        """Atomically write the result document; returns its sha256."""
        data = json.dumps(result, sort_keys=True).encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        atomic_write(
            self._result_path(job_id), data,
            fsync=self.fsync_policy != "never",
        )
        return digest

    def load_result(
        self, job_id: str, expected_sha256: str
    ) -> Optional[Dict[str, Any]]:
        """The stored result document, or ``None`` if missing/untrustworthy.

        The digest check means a finished job is only ever served bytes the
        journal vouched for; a torn or tampered result file degrades to a
        re-run, never to a wrong answer.
        """
        try:
            data = self._result_path(job_id).read_bytes()
        except OSError:
            return None
        if hashlib.sha256(data).hexdigest() != expected_sha256:
            print(
                f"repro: stored result for {job_id} failed its journal "
                f"digest; discarding and re-running",
                file=sys.stderr,
            )
            return None
        try:
            return json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self) -> List[Dict[str, Any]]:
        """Every intact event, oldest first; truncates damage in place.

        A line that does not parse as a JSON object marks the torn tail: it
        and everything after it are removed from the file (appends are
        sequential, so later bytes are unreachable anyway) and counted in
        :attr:`torn_tails`.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            try:
                raw = self.path.read_bytes()
            except FileNotFoundError:
                return []
            events: List[Dict[str, Any]] = []
            offset = 0
            good_end = 0
            damaged = False
            while offset < len(raw):
                newline = raw.find(b"\n", offset)
                if newline == -1:
                    damaged = True  # no terminator: torn mid-append
                    break
                line = raw[offset:newline].strip()
                if line:
                    try:
                        event = json.loads(line.decode("utf-8"))
                    except (ValueError, UnicodeDecodeError):
                        damaged = True
                        break
                    if not isinstance(event, dict):
                        damaged = True
                        break
                    events.append(event)
                offset = newline + 1
                good_end = offset
            if damaged:
                self.torn_tails += 1
                print(
                    f"repro: job journal {self.path} has a torn tail at "
                    f"byte {good_end}; truncating {len(raw) - good_end} "
                    f"damaged byte(s)",
                    file=sys.stderr,
                )
                with open(self.path, "r+b") as handle:
                    handle.truncate(good_end)
            return events

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                except OSError:
                    pass
                self._handle.close()
                self._handle = None
