"""Persistent, content-addressed verdict cache for GroupACE outcomes.

GroupACE runs dominate campaign cost (each is a full-program simulation
from a checkpoint), yet their verdicts depend only on

- the netlist (which gates, DFFs, and ports exist and how they connect),
- the program (its image decides the golden behaviour), and
- the verdict-relevant campaign knobs (the DUE budget),

never on *which wire or delay* produced a state-error set.  So verdicts are
cached on disk under a content-addressed scope key: repeated benches, CLI
runs, and parallel workers all warm-start from the same store, and a stale
netlist or workload silently misses into a fresh scope instead of returning
wrong answers.

The store is one JSON file per scope (``verdicts-<scope16>.json``) holding a
metadata header and a flat verdict map.  :meth:`VerdictCache.flush` re-reads
the file and merges before an atomic replace, so concurrent workers of a
parallel campaign can share one cache directory without corrupting it (last
writer wins per key; verdicts are deterministic, so collisions agree).

The metadata header also records the workload's fault-free run length and an
observables digest, which lets :class:`repro.core.campaign.CampaignSession`
skip its probe pass on warm starts (see its docstring).

On top of the verdict map the store keeps a second, finer-grained table of
completed *injection records* keyed by (structure, cycle, wire index, delay,
ORACE flag, clock period).  A verdict hit still has to rebuild the cycle's
waveforms and re-derive the dynamically reachable set (the timing-aware event
sim) before it can ask for the verdict; a record hit skips all of that — a
fully warm shard never touches the event simulator at all.  Records are
derived data (every field is reproducible from the scope + key), so the same
last-writer-wins merge applies.  The record table is the one memory of
finished work: a re-run after an interrupt (Ctrl-C, an OOM-killed worker
host, a restarted coordinator) simulates exactly the injections it lacks.

Every flush records a ``payload_sha256`` over the data body, so torn writes
and bit rot are *detected*, not just tolerated: a file that fails
verification (unparseable, truncated, or checksum-mismatched) is quarantined
to ``<name>.corrupt-<ts>`` with a stderr warning and a ``cache_quarantines``
telemetry tick, and the scope loads as cold — the campaign rebuilds it by
resimulation instead of crashing or silently reusing damaged verdicts.
``repro fsck`` (backed by :func:`verify_cache_dir`) audits a cache directory
offline.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import threading
import time
import warnings
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from repro.core import tracing
from repro.core.group_ace import Outcome
from repro.fileio import atomic_write
from repro.testing import chaos
from repro.workloads import lengths

#: Bump when the on-disk layout or key derivation changes.
CACHE_FORMAT = 1

#: Keys of the envelope covered by ``payload_sha256`` (sorted, canonical).
#: ``"shards"`` names a shard-completion table this build neither reads nor
#: writes; files written before it went still checksum that table, and
#: without the key every such file would fail verification and be rebuilt
#: cold.  The next flush drops the table.
_CHECKSUMMED_KEYS = ("meta", "records", "scope", "shards", "verdicts")


def compute_payload_sha256(payload: Dict[str, object]) -> str:
    """Checksum of a scope file's data body (not the envelope fields).

    Canonical form: the data keys in sorted order, compact separators — so
    the digest is stable across json serializers and key insertion order.
    """
    body = {key: payload.get(key) for key in _CHECKSUMMED_KEYS}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def quarantine_scope_file(path: Path) -> Optional[Path]:
    """Move a damaged scope file aside to ``<name>.corrupt-<ts>``.

    Returns the quarantine path, or ``None`` when the file vanished first
    (another process quarantined or replaced it — both fine).  The original
    name is freed so the next flush rebuilds a clean checksummed file by
    resimulation; the damaged bytes are preserved for post-mortems.
    """
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    base = f"{path.name}.corrupt-{stamp}-{os.getpid()}"
    for attempt in range(100):
        suffix = f"-{attempt}" if attempt else ""
        target = path.with_name(base + suffix)
        if target.exists():
            continue
        try:
            os.replace(path, target)
        except FileNotFoundError:
            return None
        except OSError:
            # Read-only directory etc.: leave it in place; loads keep
            # treating the scope as cold, which is safe (just slow).
            return None
        return target
    return None


def _sha256(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def netlist_signature(netlist) -> str:
    """Content hash of everything that can change simulated behaviour."""
    return _sha256(
        netlist.name,
        repr([int(kind) for kind in netlist.cell_kinds]),
        repr([tuple(inputs) for inputs in netlist.cell_inputs]),
        repr(list(netlist.cell_outputs)),
        repr([(d.index, d.q, d.d, d.init) for d in netlist.dffs]),
        repr(sorted((name, tuple(nets)) for name, nets in netlist.input_ports.items())),
        repr(sorted((name, tuple(nets)) for name, nets in netlist.output_ports.items())),
    )


def program_signature(program) -> str:
    """Content hash of a workload (name is informational; the image decides)."""
    return _sha256(
        program.name,
        str(program.entry),
        hashlib.sha256(program.image).hexdigest(),
    )


def observables_digest(observables: Iterable) -> str:
    return _sha256(repr(tuple(observables)))


def campaign_scope_key(netlist, program, config) -> str:
    """Scope key: netlist + program + the verdict-relevant config knobs.

    ``margin_cycles`` bounds the DUE budget and
    :data:`~repro.workloads.lengths.MAX_RUN_CYCLES` bounds the golden run,
    so both participate; sampling knobs (wires, cycles, seeds, delays)
    deliberately do not — verdicts are reusable across campaigns.
    """
    return _sha256(
        f"format={CACHE_FORMAT}",
        netlist_signature(netlist),
        program_signature(program),
        f"margin={config.margin_cycles}",
        f"max_run={lengths.MAX_RUN_CYCLES}",
    )


def verdict_key(
    cycle: int, at_next_boundary: bool, overrides_items: Tuple[Tuple[int, int], ...]
) -> str:
    """Stable string key for one (checkpoint, boundary, error-set) verdict."""
    errors = ",".join(f"{dff}:{value}" for dff, value in overrides_items)
    return f"{cycle}|{int(at_next_boundary)}|{errors}"


def record_key(
    structure: str,
    cycle: int,
    wire_index: int,
    delay_fraction: float,
    with_orace: bool,
    clock_period: float,
) -> str:
    """Stable string key for one completed injection record.

    Wire indices are positions in ``system.structure_wires(structure)``, a
    deterministic enumeration of the netlist (which the scope key hashes), so
    they are stable across processes.  The clock period pins the timing view:
    the dynamically reachable set baked into a record depends on absolute
    delays, unlike the timing-agnostic verdicts above.
    """
    return (
        f"{structure}|{cycle}|{wire_index}|{delay_fraction!r}"
        f"|{int(bool(with_orace))}|{clock_period!r}"
    )


def record_to_payload(record) -> list:
    """Portable JSON form of an :class:`~repro.core.results.InjectionRecord`.

    Only the derived fields are stored; the identifying ones (wire index,
    cycle, delay) live in the key and are re-supplied on load.
    """
    return [
        int(record.statically_reachable),
        record.num_statically_reachable,
        record.num_errors,
        record.outcome.value,
        None if record.or_ace is None else int(record.or_ace),
    ]


def record_from_payload(payload, wire_index: int, cycle: int, delay_fraction: float):
    from repro.core.results import InjectionRecord

    reachable, num_static, num_errors, outcome, or_ace = payload
    return InjectionRecord(
        wire_index=wire_index,
        cycle=cycle,
        delay_fraction=delay_fraction,
        statically_reachable=bool(reachable),
        num_statically_reachable=num_static,
        num_errors=num_errors,
        outcome=Outcome(outcome),
        or_ace=None if or_ace is None else bool(or_ace),
    )


def _read_scope_payload(path: Path) -> Tuple[Dict[str, object], Optional[str]]:
    """``(payload, damage)`` for one scope file.

    A missing file is a cold scope: ``({}, None)``.  ``damage`` is a
    human-readable reason whenever the file exists but cannot be trusted —
    unreadable, unparseable (torn write), wrong shape, or a
    ``payload_sha256`` that is missing or no longer matches its body.
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return {}, None
    except OSError as exc:
        return {}, f"unreadable: {exc}"
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return {}, "unparseable JSON (torn or corrupted write)"
    if not isinstance(payload, dict):
        return {}, "not a JSON object"
    stored_sha = payload.get("payload_sha256")
    if stored_sha is None:
        return {}, "no payload_sha256 (every flush writes one)"
    if stored_sha != compute_payload_sha256(payload):
        return {}, "payload_sha256 mismatch (bit rot or partial overwrite)"
    return payload, None


def verify_scope_file(path) -> Tuple[str, str]:
    """Classify one ``verdicts-*.json`` without loading it into a cache.

    Returns ``(status, detail)`` with status one of:

    - ``"ok"``       — parseable, this schema, checksum verified.
    - ``"foreign"``  — a different schema version (loaders ignore it).
    - ``"corrupt"``  — torn, unparseable, or checksum missing/mismatched.
    """
    path = Path(path)
    payload, damage = _read_scope_payload(path)
    if damage is not None:
        return "corrupt", damage
    if not payload:
        return "corrupt", "file vanished during verification"
    stored_version = payload.get("schema_version")
    if stored_version != CACHE_FORMAT:
        return (
            "foreign",
            f"schema_version {stored_version!r} (this build reads {CACHE_FORMAT})",
        )
    return "ok", (
        f"{len(payload.get('verdicts', {}))} verdicts, "
        f"{len(payload.get('records', {}))} records"
    )


def verify_cache_dir(directory, quarantine: bool = False) -> Dict[str, list]:
    """Verify every scope file in *directory* (the ``repro fsck`` core).

    Returns ``{"ok" | "foreign" | "corrupt": [(path, detail)...],
    "quarantined": [(path, quarantine_path)...]}``.  With *quarantine* true,
    corrupt files are moved aside the same way a live load would move them.
    """
    report: Dict[str, list] = {
        "ok": [], "foreign": [], "corrupt": [], "quarantined": [],
    }
    directory = Path(directory)
    if not directory.is_dir():
        return report
    for path in sorted(directory.glob("verdicts-*.json")):
        status, detail = verify_scope_file(path)
        report[status].append((str(path), detail))
        if status == "corrupt" and quarantine:
            target = quarantine_scope_file(path)
            if target is not None:
                report["quarantined"].append((str(path), str(target)))
    return report


@contextlib.contextmanager
def _flush_lock(path: Path):
    """Advisory inter-process lock serializing read-merge-write flushes.

    Without it, two workers flushing the same scope concurrently can both
    read the same base state and the second atomic replace silently drops
    the first writer's new entries.  Falls back to unlocked flushes where
    ``fcntl`` is unavailable.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_path = path.with_name(path.name + ".lock")
    with open(lock_path, "a") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


class VerdictCache:
    """On-disk verdict store for one campaign scope."""

    def __init__(self, directory, scope_key: str):
        self.directory = Path(directory)
        self.scope_key = scope_key
        self.path = self.directory / f"verdicts-{scope_key[:16]}.json"
        self._verdicts: Dict[str, str] = {}
        self._records: Dict[str, list] = {}
        self._meta: Dict[str, object] = {}
        self._dirty = False
        self._calls_since_flush = 0
        self._last_flush = time.monotonic()
        # Intra-process guard: the campaign service runs concurrent jobs in
        # threads of one process, and two jobs sharing an engine share this
        # cache.  (Cross-process safety is the flock in :func:`_flush_lock`;
        # this lock makes in-memory mutation + flush safe within a process.)
        # Reentrant because flush() is called from guarded mutators' callers.
        self._lock = threading.RLock()
        #: Damaged scope files moved aside by this instance (telemetry feed).
        self.quarantines = 0
        #: Optional CampaignTelemetry sink; see :meth:`attach_telemetry`.
        self.telemetry = None
        self._load(self.path, replace=True)

    def attach_telemetry(self, telemetry) -> None:
        """Route quarantine events into *telemetry* (``cache_quarantines``).

        Quarantines that happened before attachment (the constructor's
        initial load) are folded in, so the counter is complete regardless
        of construction order.
        """
        with self._lock:
            self.telemetry = telemetry
            if telemetry is not None and self.quarantines:
                telemetry.incr("cache_quarantines", self.quarantines)

    def _note_quarantine(self, original: Path, target: Optional[Path]) -> None:
        self.quarantines += 1
        if self.telemetry is not None:
            self.telemetry.incr("cache_quarantines")
        where = f" (moved to {target.name})" if target is not None else ""
        print(
            f"repro: verdict cache file {original} failed integrity "
            f"verification; quarantined{where} and rebuilding by "
            f"resimulation",
            file=sys.stderr,
        )

    @classmethod
    def open(cls, directory, netlist, program, config) -> "VerdictCache":
        """Open (creating lazily) the cache scoped to this exact campaign."""
        return cls(directory, campaign_scope_key(netlist, program, config))

    # ------------------------------------------------------------------
    def _load(self, path: Path, replace: bool) -> None:
        payload, damage = _read_scope_payload(path)
        if damage is not None:
            # Detected corruption (torn write, bit rot, checksum mismatch):
            # move the damaged file aside and treat the scope as cold.  The
            # campaign resimulates instead of crashing or silently reusing
            # bytes that failed verification.
            target = quarantine_scope_file(path)
            self._note_quarantine(path, target)
            payload = {}
        stored_version = payload.get("schema_version")
        if payload and stored_version != CACHE_FORMAT:
            # A cache written by a different (usually newer) schema: its
            # entries may not mean what this code thinks.  Discard-and-warn
            # rather than raise — a stale cache must never kill a campaign
            # mid-flight; it just stops saving work.
            warnings.warn(
                f"verdict cache {path} has schema_version {stored_version!r} "
                f"but this build reads {CACHE_FORMAT}; ignoring its contents",
                RuntimeWarning,
                stacklevel=2,
            )
            payload = {}
        if payload.get("scope") != self.scope_key:
            payload = {}
        stored = payload.get("verdicts", {})
        stored_records = payload.get("records", {})
        # Older files also keep coverage vectors in meta; nothing reads
        # them, so loading leaves them out and the next flush drops them.
        stored_meta = dict(payload.get("meta", {}))
        stored_meta.pop("coverage", None)
        if replace:
            self._verdicts = dict(stored)
            self._records = dict(stored_records)
            self._meta = stored_meta
        else:
            # Merge-under: our in-memory entries win (they are newer but
            # deterministic, so any overlap agrees anyway).
            merged = dict(stored)
            merged.update(self._verdicts)
            self._verdicts = merged
            records = dict(stored_records)
            records.update(self._records)
            self._records = records
            stored_meta.update(self._meta)
            self._meta = stored_meta

    # ------------------------------------------------------------------
    def get_verdict(self, key: str) -> Optional[Outcome]:
        with self._lock:
            value = self._verdicts.get(key)
        return Outcome(value) if value is not None else None

    def put_verdict(self, key: str, outcome: Outcome) -> None:
        with self._lock:
            if self._verdicts.get(key) != outcome.value:
                self._verdicts[key] = outcome.value
                self._dirty = True

    def lookup(
        self,
        cycle: int,
        at_next_boundary: bool,
        overrides_items: Tuple[Tuple[int, int], ...],
    ) -> Optional[Outcome]:
        return self.get_verdict(verdict_key(cycle, at_next_boundary, overrides_items))

    def store(
        self,
        cycle: int,
        at_next_boundary: bool,
        overrides_items: Tuple[Tuple[int, int], ...],
        outcome: Outcome,
    ) -> None:
        self.put_verdict(verdict_key(cycle, at_next_boundary, overrides_items), outcome)

    def get_record(self, key: str) -> Optional[list]:
        with self._lock:
            return self._records.get(key)

    def put_record(self, key: str, payload: list) -> None:
        with self._lock:
            if self._records.get(key) != payload:
                self._records[key] = payload
                self._dirty = True

    def __len__(self) -> int:
        return len(self._verdicts)

    # ------------------------------------------------------------------
    def workload_meta(self) -> Optional[Tuple[int, str]]:
        """``(total_cycles, observables_digest)`` of the fault-free run."""
        with self._lock:
            cycles = self._meta.get("total_cycles")
            digest = self._meta.get("observables_sha")
        if isinstance(cycles, int) and isinstance(digest, str):
            return cycles, digest
        return None

    def record_workload(self, total_cycles: int, observables: Iterable) -> None:
        digest = observables_digest(observables)
        with self._lock:
            if self.workload_meta() != (total_cycles, digest):
                self._meta["total_cycles"] = total_cycles
                self._meta["observables_sha"] = digest
                self._dirty = True

    # ------------------------------------------------------------------
    def flush_throttled(self, every_n: int = 8, max_seconds: float = 10.0) -> bool:
        """Flush only every *every_n* calls or once *max_seconds* have passed.

        Executors call this once per completed shard; a full flush is a
        read-merge-rewrite of the scope file under the inter-process lock, so
        doing it per shard serializes workers on disk I/O.  Throttling keeps
        the loss window bounded (at most *every_n* shards or *max_seconds* of
        work) while the guaranteed unconditional flushes — the engine's
        post-merge flush and the worker's exit hook — keep the store
        eventually complete.  Returns ``True`` when a flush happened.
        """
        with self._lock:
            self._calls_since_flush += 1
            if not self._dirty:
                return False
            due = (
                self._calls_since_flush >= max(1, int(every_n))
                or time.monotonic() - self._last_flush >= max_seconds
            )
            if not due:
                return False
            self.flush()
            return True

    def flush(self) -> None:
        """Merge with the on-disk state and atomically rewrite the file."""
        with self._lock:
            self._calls_since_flush = 0
            self._last_flush = time.monotonic()
            if not self._dirty:
                return
            self.directory.mkdir(parents=True, exist_ok=True)
            with tracing.span(
                "cache.flush", cat="cache",
                records=len(self._records), verdicts=len(self._verdicts),
            ), _flush_lock(self.path):
                self._load(self.path, replace=False)
                payload = {
                    "schema_version": CACHE_FORMAT,
                    "scope": self.scope_key,
                    "meta": self._meta,
                    "verdicts": self._verdicts,
                    "records": self._records,
                }
                payload["payload_sha256"] = compute_payload_sha256(payload)
                atomic_write(
                    self.path, json.dumps(payload),
                    before_replace=lambda tmp: chaos.fire(
                        "cache.flush", path=tmp
                    ),
                )
            self._dirty = False
