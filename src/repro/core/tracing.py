"""Span-based tracing for campaign execution.

A campaign that shards, batches, retries, and refines is opaque from the
outside: ``--stats`` reports *how much* time each phase consumed, but not
*when*, *where* (which process), or *nested inside what*.  This module adds
the missing dimension: context-manager **spans** with ids, parents, and
campaign attributes (structure, shard, cycle, wire counts), buffered
per-process and exported as

- **Chrome trace-event JSON** (``*.json``) — loadable directly in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``, one track per process,
  so a parallel campaign's worker overlap is visible at a glance, and
- **JSONL** (``*.jsonl``) — one span dict per line for ad-hoc scripting.

Design rules:

- **Disabled tracing is a no-op.**  The module-level :func:`span` helper
  returns one shared ``nullcontext`` when the tracer is off; the hot path
  pays a function call and an attribute check, nothing else.  Campaigns
  without ``--trace`` must not measurably slow down.
- **Spans are plain dicts.**  They travel as JSON: a worker drains its
  buffer into the :class:`repro.core.executor.ShardResult` of each shard it
  serves, and the coordinator re-homes them onto the worker's track
  (:func:`stitch_remote_spans`) and folds them back with :func:`extend`.
- **A phase and its span share one clock.**  A timed phase opens its span
  through :meth:`repro.core.telemetry.CampaignTelemetry.phase`, which
  reads the clock once at entry and once at exit and hands both readings
  to :meth:`Tracer.open`/:meth:`Tracer.close`, so each call adds
  exactly its span's duration to the phase ledger; :func:`span` serves
  the spans no ledger needs.
- **Identity is (name, category, attributes).**  Process ids and span ids are
  bookkeeping, not identity: a serial and a parallel run of the same campaign
  produce the same *set* of span identities (duplicates collapse — two
  workers each building the same fan-out cone are one identity), which is the
  property the parity tests pin.
- **Timestamps are comparable across processes.**  Each tracer stamps spans
  with ``epoch + perf_counter()`` microseconds, where ``epoch`` anchors the
  monotonic clock to wall time once per process; within a process, nesting is
  exact.

The per-process tracer is a module-level singleton; a worker resets it and
adopts the ``trace`` flag of each new
:class:`~repro.core.executor.SessionSpec` it is sent (a forked worker would
otherwise inherit the parent's buffer).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.fileio import atomic_write

#: Span categories used by the built-in instrumentation.  ``executor`` spans
#: describe coordination work that legitimately differs between serial and
#: parallel runs; every other category is expected to be execution-shape
#: invariant (see :func:`span_identity`).
CATEGORIES = ("campaign", "plan", "session", "shard", "sim", "cache", "executor")

#: Categories whose span sets may legitimately differ between a serial and a
#: parallel run of the same campaign (scheduling and persistence artifacts).
NONDETERMINISTIC_CATEGORIES = frozenset({"executor", "cache"})


class Tracer:
    """A per-process span collector (see the module docstring)."""

    __slots__ = ("enabled", "spans", "_stack", "_next_id", "_pid", "_epoch")

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._next_id = 1
        self._stamp_process()

    def _stamp_process(self) -> None:
        self._pid = os.getpid()
        self._epoch = time.time() - time.perf_counter()

    def reset(self) -> None:
        """Clear the buffer and re-anchor to this process (fork-safe)."""
        self.spans = []
        self._stack = []
        self._next_id = 1
        self._stamp_process()

    # ------------------------------------------------------------------
    def open(
        self, name: str, cat: str, attrs: Dict[str, Any], ph: str = "X"
    ) -> Dict[str, Any]:
        """Start a span timed by the caller: it becomes the parent of spans
        opened before its :meth:`close`."""
        span_id = self._next_id
        self._next_id += 1
        record = {
            "name": name,
            "cat": cat,
            "ph": ph,
            "ts": 0.0,
            "dur": 0.0,
            "pid": self._pid,
            "tid": self._pid,
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "args": attrs,
        }
        self._stack.append(span_id)
        return record

    def close(self, record: Dict[str, Any], start: float, seconds: float) -> None:
        """Finish a span from :meth:`open`: it began at ``perf_counter()``
        reading *start* and lasted *seconds*."""
        self._stack.pop()
        record["ts"] = (self._epoch + start) * 1e6
        record["dur"] = seconds * 1e6
        self.spans.append(record)

    @contextmanager
    def span(
        self, name: str, cat: str = "campaign", **attrs: Any
    ) -> Iterator[Optional[int]]:
        """Record the ``with`` body as one complete ("X") span."""
        if not self.enabled:
            yield None
            return
        record = self.open(name, cat, attrs)
        start = time.perf_counter()
        try:
            yield record["id"]
        finally:
            self.close(record, start, time.perf_counter() - start)

    def instant(self, name: str, cat: str = "campaign", **attrs: Any) -> None:
        """Record a zero-duration ("i") marker event (retries, evictions)."""
        if self.enabled:
            record = self.open(name, cat, attrs, ph="i")
            self.close(record, time.perf_counter(), 0.0)

    def drain(self) -> List[Dict[str, Any]]:
        """Return and clear the buffered spans (JSON-safe plain dicts)."""
        spans, self.spans = self.spans, []
        return spans

    def extend(self, spans: Sequence[Dict[str, Any]]) -> None:
        """Fold spans drained from another process into this buffer."""
        self.spans.extend(spans)


#: The per-process tracer singleton every instrumented module talks to.
_TRACER = Tracer(enabled=False)

#: Shared no-op context manager returned by :func:`span` when disabled —
#: ``nullcontext`` is stateless, so one instance serves every call site.
_NULL_SPAN = nullcontext()


def tracer() -> Tracer:
    return _TRACER


def enabled() -> bool:
    return _TRACER.enabled


def enable(reset: bool = False) -> None:
    if reset:
        _TRACER.reset()
    _TRACER.enabled = True


def disable() -> None:
    _TRACER.enabled = False


def configure(on: bool, reset: bool = False) -> None:
    """Set the process-local tracer state (a worker adopting a spec)."""
    if reset:
        _TRACER.reset()
    _TRACER.enabled = bool(on)


def reset() -> None:
    _TRACER.reset()


def span(name: str, cat: str = "campaign", **attrs: Any):
    """A context manager recording one span — or a shared no-op when off."""
    if not _TRACER.enabled:
        return _NULL_SPAN
    return _TRACER.span(name, cat, **attrs)


def instant(name: str, cat: str = "campaign", **attrs: Any) -> None:
    if _TRACER.enabled:
        _TRACER.instant(name, cat, **attrs)


def drain() -> List[Dict[str, Any]]:
    return _TRACER.drain()


def extend(spans: Optional[Sequence[Dict[str, Any]]]) -> None:
    if spans:
        _TRACER.extend(spans)


def stitch_remote_spans(
    spans: Sequence[Dict[str, Any]],
    *,
    pid: Optional[int] = None,
    parent: Optional[int] = None,
    parent_pid: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Re-home spans drained from a remote worker into the coordinator trace.

    Mutates and returns *spans*: every span is relabelled to the worker's
    track (*pid*, used for both ``pid`` and ``tid`` so each remote worker
    renders as its own Perfetto process), and each *root* span — one with no
    parent in the worker's own buffer — is parent-linked to the
    coordinator-side dispatch span (*parent*, with ``parent_pid`` recording
    which process that id belongs to, since span ids are only unique per
    process).  Only bookkeeping fields change: :func:`span_identity` ignores
    pids, ids, and parents, so serial/remote span-set parity is preserved.
    """
    for entry in spans:
        if pid is not None:
            entry["pid"] = pid
            entry["tid"] = pid
        if parent is not None and entry.get("parent") is None:
            entry["parent"] = parent
            if parent_pid is not None:
                entry["parent_pid"] = parent_pid
    return list(spans)


def span_identity(span_dict: Dict[str, Any]) -> Tuple:
    """Execution-shape identity of a span: ``(name, cat, sorted attrs)``.

    Excludes timing, process ids, and span ids, so identical campaign work
    maps to identical identities no matter which process (or how many
    processes) performed it.
    """
    return (
        span_dict.get("name"),
        span_dict.get("cat"),
        tuple(sorted(span_dict.get("args", {}).items())),
    )


# ----------------------------------------------------------------------
# Export / import
# ----------------------------------------------------------------------
def to_chrome_trace(spans: Optional[Sequence[Dict[str, Any]]] = None) -> Dict:
    """The Chrome trace-event representation (Perfetto / chrome://tracing).

    Complete ("X") events carry ``dur``; instants ("i") carry scope ``s``.
    Span and parent ids travel in ``args`` so nothing is lost on export.
    """
    events = []
    for entry in _TRACER.spans if spans is None else spans:
        event = {
            "name": entry["name"],
            "cat": entry.get("cat", "campaign"),
            "ph": entry.get("ph", "X"),
            "ts": entry["ts"],
            "pid": entry.get("pid", 0),
            "tid": entry.get("tid", entry.get("pid", 0)),
            "args": {
                "span_id": entry.get("id"),
                "parent_id": entry.get("parent"),
                **entry.get("args", {}),
            },
        }
        if event["ph"] == "i":
            event["s"] = "t"
        else:
            event["dur"] = entry.get("dur", 0.0)
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, spans: Optional[Sequence[Dict[str, Any]]] = None
) -> None:
    atomic_write(path, json.dumps(to_chrome_trace(spans)))


def write_jsonl(path: str, spans: Optional[Sequence[Dict[str, Any]]] = None) -> None:
    source = _TRACER.spans if spans is None else spans
    atomic_write(path, "".join(json.dumps(entry) + "\n" for entry in source))


def write_trace(path: str, spans: Optional[Sequence[Dict[str, Any]]] = None) -> None:
    """Write *spans* to *path*: JSONL for ``*.jsonl``, Chrome JSON otherwise."""
    if str(path).endswith(".jsonl"):
        write_jsonl(path, spans)
    else:
        write_chrome_trace(path, spans)


def _span_from_event(event: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize one Chrome trace event back into the internal span shape."""
    args = dict(event.get("args", {}))
    # Chrome exports tuck the ids into args; JSONL keeps the internal shape
    # with top-level "id"/"parent".  Accept both.
    span_id = args.pop("span_id", None)
    parent_id = args.pop("parent_id", None)
    if span_id is None:
        span_id = event.get("id")
    if parent_id is None:
        parent_id = event.get("parent")
    return {
        "name": event.get("name", ""),
        "cat": event.get("cat", "campaign"),
        "ph": event.get("ph", "X"),
        "ts": float(event.get("ts", 0.0)),
        "dur": float(event.get("dur", 0.0)),
        "pid": event.get("pid", 0),
        "tid": event.get("tid", event.get("pid", 0)),
        "id": span_id,
        "parent": parent_id,
        "args": args,
    }


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Load spans from a Chrome-trace JSON or JSONL file written above."""
    with open(path) as handle:
        text = handle.read()
    try:
        payload = json.loads(text)
    except ValueError:
        payload = None
    if isinstance(payload, dict) and "traceEvents" in payload:
        return [_span_from_event(event) for event in payload["traceEvents"]]
    if isinstance(payload, list):
        return [_span_from_event(event) for event in payload]
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            spans.append(_span_from_event(json.loads(line)))
    return spans


# ----------------------------------------------------------------------
# Summaries (the ``repro trace summarize`` subcommand)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpanSummary:
    """Per-name rollup separating wall-clock from cumulative span time.

    ``wall_seconds`` is the length of the union of the name's intervals —
    overlapping spans (parallel workers) count once, which is what an
    operator's clock would measure.  ``cpu_seconds`` is the plain sum of
    durations — the total effort spent across every process, which is what
    per-worker phase timers accumulate.  The gap between the two columns is
    the campaign's parallelism.
    """

    name: str
    cat: str
    count: int
    wall_seconds: float
    cpu_seconds: float


def _interval_union(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by possibly-overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def summarize_trace(spans: Sequence[Dict[str, Any]]) -> List[SpanSummary]:
    """Per-name wall vs cumulative breakdown, widest wall first."""
    grouped: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for entry in spans:
        if entry.get("ph", "X") != "X":
            continue
        grouped.setdefault(
            (entry.get("name", ""), entry.get("cat", "campaign")), []
        ).append(entry)
    summaries = []
    for (name, cat), members in grouped.items():
        intervals = [
            (entry["ts"] / 1e6, (entry["ts"] + entry.get("dur", 0.0)) / 1e6)
            for entry in members
        ]
        summaries.append(
            SpanSummary(
                name=name,
                cat=cat,
                count=len(members),
                wall_seconds=_interval_union(intervals),
                cpu_seconds=sum(entry.get("dur", 0.0) for entry in members) / 1e6,
            )
        )
    summaries.sort(key=lambda s: (-s.wall_seconds, s.name))
    return summaries


def trace_wall_seconds(spans: Sequence[Dict[str, Any]]) -> float:
    """Wall-clock covered by the whole trace (union over all "X" spans)."""
    intervals = [
        (entry["ts"] / 1e6, (entry["ts"] + entry.get("dur", 0.0)) / 1e6)
        for entry in spans
        if entry.get("ph", "X") == "X"
    ]
    return _interval_union(intervals)
