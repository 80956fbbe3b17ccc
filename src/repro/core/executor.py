"""Campaign execution: pluggable executors over planned work shards.

The campaign engine plans a structure campaign into per-cycle
:class:`repro.core.plan.WorkShard` descriptors and hands them to an
:class:`Executor`:

- :class:`SerialExecutor` runs every shard in-process against the engine's
  live :class:`repro.core.campaign.CampaignSession` (the default), through
  :func:`execute_shards`, the one in-process shard driver.
- :class:`ParallelExecutor` is the one shard coordinator.  It dispatches
  shards to worker processes running the :mod:`repro.distrib.worker` loop —
  forked locally (``jobs=N``) or joining over a socket
  (``workers_from=HOST:PORT``).  Each worker rebuilds the session once from
  a wire-serializable :class:`SessionSpec` (program + config + ``ecc``)
  and serves shards from its warm caches; the fleet is kept alive
  across ``run_structure`` calls so consecutive structure campaigns reuse
  worker sessions exactly like the serial engine reuses its one session.

The coordinator is fault tolerant: raised shards are retried with backoff,
hung or dead workers are evicted and their shards requeued, and when no
worker is left, or a campaign has evicted too many, the remaining shards
finish in-process on the serial path.
Every recovery action is counted in campaign telemetry (``shard_retries``,
``shard_timeouts``, ``serial_fallbacks``, ``workers_evicted``) so operators
can see that a campaign limped home — but the *records* are unaffected:
shard execution is deterministic and :func:`merge_shard_results` is
order-independent, so a recovered campaign is byte-identical to a clean one.

Shard results are merged deterministically in plan order, so serial and
parallel runs produce identical :class:`StructureCampaignResult` records —
the executors differ only in wall-clock time and telemetry.
"""

from __future__ import annotations

import abc
import atexit
import base64
import dataclasses
import hashlib
import json
import os
import select
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core import tracing
from repro.core.cache import record_from_payload, record_key, record_to_payload
from repro.core.group_ace import prefetch_spanning_multi
from repro.core.plan import CampaignPlan, WorkShard
from repro.core.results import DelayAVFResult, InjectionRecord, StructureCampaignResult
from repro.core.telemetry import CampaignTelemetry
from repro.distrib.transport import (
    CorruptFrameError,
    SocketChannel,
    SocketListener,
    TransportError,
    parse_workers_from,
)


@dataclass(frozen=True)
class SessionSpec:
    """Everything a worker needs to rebuild a campaign session.

    The system is the SoC build of :func:`repro.soc.system.build_system`
    with or without the ECC register file (*ecc*); the spec stays
    comparable and wire-serializable (:meth:`to_payload`).
    """

    program: Any  #: :class:`repro.isa.assembler.Program`
    config: Any  #: :class:`repro.core.campaign.CampaignConfig`
    ecc: bool = False

    def build_system(self):
        from repro.soc.system import build_system

        return build_system(use_ecc=self.ecc)

    def build_session(self):
        """Rebuild the full campaign session (golden run, analyzers, cache)."""
        from repro.core.campaign import CampaignSession

        system = self.build_system()
        return CampaignSession(
            system,
            self.program,
            self.config,
            verdict_cache=open_configured_cache(system, self.program, self.config),
        )

    # ------------------------------------------------------------------
    # Wire round-trip: the JSON-safe form the coordinator ships to workers,
    # which may share no process ancestry (and possibly no machine).
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """A JSON-safe dict :meth:`from_payload` rebuilds exactly: the
        program image as base64, the config through its own payload
        round-trip, and the ``ecc`` flag."""
        return {
            "program": {
                "name": self.program.name,
                "image": base64.b64encode(self.program.image).decode("ascii"),
                "entry": self.program.entry,
                "symbols": dict(self.program.symbols),
            },
            "config": self.config.to_payload(),
            "ecc": self.ecc,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SessionSpec":
        """Rebuild a spec from its wire form (inverse of :meth:`to_payload`).

        Pure data: nothing named in the payload is imported or called.
        """
        from repro.core.campaign import CampaignConfig
        from repro.isa.assembler import Program

        program_payload = payload["program"]
        program = Program(
            name=str(program_payload["name"]),
            image=base64.b64decode(program_payload["image"]),
            entry=int(program_payload.get("entry", 0)),
            symbols={
                str(name): int(addr)
                for name, addr in (program_payload.get("symbols") or {}).items()
            },
        )
        return cls(
            program=program,
            config=CampaignConfig.from_payload(payload["config"]),
            ecc=bool(payload["ecc"]),
        )


def open_configured_cache(system, program, config):
    """The :class:`VerdictCache` named by ``config.cache_dir`` (or ``None``)."""
    if not getattr(config, "cache_dir", None):
        return None
    from repro.core.cache import VerdictCache

    return VerdictCache.open(config.cache_dir, system.netlist, program, config)


@dataclass
class ShardResult:
    """One executed shard: per-delay records plus the worker's telemetry."""

    shard_index: int
    by_delay: Dict[float, List[InjectionRecord]]
    telemetry: Optional[Dict[str, Dict]] = None  #: telemetry snapshot delta
    spans: Optional[List[Dict]] = None  #: trace spans drained from the worker


def shard_result_to_payload(result: ShardResult) -> Dict[str, Any]:
    """The JSON-safe wire form of one executed shard (sent by workers).

    Records compress to their derived-field payloads
    (:func:`repro.core.cache.record_to_payload`); identity — wire index,
    cycle, delay — is *not* shipped because the coordinator re-supplies it
    from the shard it dispatched.  Record lists ride in evaluation order
    (wire-outer within each delay), which is exactly the order
    ``shard.wire_indices`` enumerates, so the round-trip is positional and
    lossless.  Telemetry deltas and drained spans are plain dicts already.
    """
    return {
        "shard_index": result.shard_index,
        "records": [
            [record_to_payload(record) for record in records]
            for records in result.by_delay.values()
        ],
        "telemetry": result.telemetry,
        "spans": result.spans,
    }


def shard_result_from_payload(
    payload: Dict[str, Any], shard: WorkShard
) -> ShardResult:
    """Rebuild a :class:`ShardResult` against the shard it answers.

    The inverse of :func:`shard_result_to_payload`: per-delay record lists
    are re-keyed by ``shard.delay_fractions`` (payload order follows the
    shard's declaration order) and each record regains its identity from
    ``shard.wire_indices`` position, the shard's cycle, and its delay.
    """
    record_lists = payload["records"]
    if len(record_lists) != len(shard.delay_fractions):
        raise ValueError(
            f"shard {shard.index}: expected {len(shard.delay_fractions)} "
            f"delay record lists, got {len(record_lists)}"
        )
    by_delay: Dict[float, List[InjectionRecord]] = {}
    for delay, records in zip(shard.delay_fractions, record_lists):
        if len(records) != len(shard.wire_indices):
            raise ValueError(
                f"shard {shard.index}: expected {len(shard.wire_indices)} "
                f"records for delay {delay}, got {len(records)}"
            )
        by_delay[delay] = [
            record_from_payload(record, wire_index, shard.cycle, delay)
            for wire_index, record in zip(shard.wire_indices, records)
        ]
    return ShardResult(
        shard_index=int(payload["shard_index"]),
        by_delay=by_delay,
        telemetry=payload.get("telemetry"),
        spans=payload.get("spans"),
    )


# ----------------------------------------------------------------------
# The in-process shard driver
# ----------------------------------------------------------------------
def execute_shards(
    batches: Sequence[Tuple[Any, Sequence[WorkShard]]],
    progress: Sequence[Any] = (),
) -> List[List[ShardResult]]:
    """Run ``(session, shards)`` batches in-process, packed together.

    The one in-process shard driver — workers (:func:`execute_shard`),
    :class:`SerialExecutor`, the coordinator's serial fallback and the
    engine's sweeps (:func:`repro.core.campaign.run_structures_spanning`)
    all run shards through it — in five passes, all inside one
    ``execute`` phase (``campaign.execute`` span):

    1. *look up* every shard's records in the verdict cache;
    2. *golden*: one :func:`~repro.core.campaign.packed_golden_runs` word
       for the sessions with injections left and no golden run, if two or
       more (a lone one keeps its lazy scalar run): a warm sweep simulates
       nothing;
    3. *prepare* the shards with injections left: waveforms, checkpoint
       and :meth:`DynamicReachability.reachable_set_batch`;
    4. *prefetch*: one :func:`~repro.core.group_ace.prefetch_spanning_multi`
       call (``prefetch`` phase, ``campaign.prefetch`` span) resolves the
       GroupACE/ORACE queries of every batch, so a 64-lane word packs
       across checkpoints, structures and workloads;
    5. *evaluate* each shard against the warm caches, wire-outer /
       delay-inner (the §V-C cache-reuse order).

    Both phases are timed on the first batch's session telemetry.
    *progress* holds one reporter (or None) per batch, told as each of its
    shards completes.  Returns each batch's shard results, in batch order;
    batching changes only the packing, never a record.
    """
    reporters = progress or [None] * len(batches)
    telemetry = batches[0][0].telemetry
    with telemetry.phase(
        "execute", "campaign.execute", cat="executor",
        batches=len(batches),
        shards=sum(len(shards) for _, shards in batches),
    ):
        prepared = [
            [_look_up_shard(session, shard) for shard in shards]
            for session, shards in batches
        ]
        waiting = {
            id(session): session
            for (session, _), shard_list in zip(batches, prepared)
            if not session.has_golden
            and any(shard.pending for shard in shard_list)
        }
        if len(waiting) > 1:
            from repro.core.campaign import packed_golden_runs

            packed_golden_runs(list(waiting.values()))
        for (session, _), shard_list in zip(batches, prepared):
            for shard in shard_list:
                _prepare_shard(session, shard)
        _prefetch(telemetry, batches, prepared)
        return [
            [_evaluate_shard(session, shard, reporter) for shard in shard_list]
            for (session, _), shard_list, reporter in zip(
                batches, prepared, reporters
            )
        ]


def execute_shard(session, shard: WorkShard) -> ShardResult:
    """Run one shard in-process (a worker's unit of work)."""
    return execute_shards([(session, [shard])])[0][0]


@dataclass
class _PreparedShard:
    """A shard's timing-aware pass, paused before GroupACE resolution."""

    shard: WorkShard
    chosen: List[Tuple[int, Any]]  #: (wire index, wire) pairs
    cached: Dict[Tuple[int, float], InjectionRecord]
    pending: List[Tuple[int, float]]  #: (wire index, delay) the cache missed
    waves: Any = None
    checkpoint: Any = None
    reach_sets: List[Dict[int, int]] = None


def _look_up_shard(session, shard: WorkShard) -> _PreparedShard:
    """A shard's record-cache lookups: what the cache serves, what is left."""
    cache = session.verdict_cache
    wires = session.system.structure_wires(shard.structure)
    chosen = [(index, wires[index]) for index in shard.wire_indices]
    cached: Dict[Tuple[int, float], InjectionRecord] = {}
    if cache is not None:
        for index, _ in chosen:
            for delay in shard.delay_fractions:
                payload = cache.get_record(
                    _record_key_of(session, shard, index, delay)
                )
                if payload is not None:
                    cached[(index, delay)] = record_from_payload(
                        payload, index, shard.cycle, delay
                    )
    return _PreparedShard(shard, chosen, cached, shard.injection_pairs(cached))


def _prepare_shard(session, prepared: _PreparedShard) -> None:
    """The batched timing-aware reachability pass of a shard's injections."""
    shard = prepared.shard
    with tracing.span(
        "shard.execute",
        cat="shard",
        structure=shard.structure,
        shard=shard.index,
        cycle=shard.cycle,
        wires=len(shard.wire_indices),
        delays=len(shard.delay_fractions),
    ):
        if prepared.pending:
            prepared.waves = session.waveforms(shard.cycle)
            prepared.checkpoint = session.checkpoint(shard.cycle)
            wire_of = dict(prepared.chosen)
            prepared.reach_sets = session.dynamic.reachable_set_batch(
                prepared.waves,
                [(wire_of[index], delay) for index, delay in prepared.pending],
            )


def _record_key_of(session, shard, index: int, delay: float) -> str:
    return record_key(
        shard.structure, shard.cycle, index, delay,
        bool(session.config.compute_orace), session.system.clock_period,
    )


def _prefetch(telemetry, batches, prepared) -> None:
    """Resolve every batch's GroupACE/ORACE queries in one call.

    Collects each non-empty dynamically reachable set — plus the
    per-member singleton sets ORACE requires for multi-bit errors — one
    query list per session, so the evaluation pass afterwards is pure cache
    hits.
    """
    groups: Dict[int, Tuple[Any, List]] = {}
    for (session, _), shard_list in zip(batches, prepared):
        orace = bool(session.config.compute_orace)
        queries = []
        for shard in shard_list:
            for errors in shard.reach_sets or ():
                if not errors:
                    continue
                queries.append((shard.checkpoint, errors))
                if orace and len(errors) > 1:
                    queries.extend(
                        (shard.checkpoint, {dff: value})
                        for dff, value in errors.items()
                    )
        if queries:
            groups.setdefault(id(session), (session.group_ace, []))[1].extend(
                queries
            )
    if not groups:
        return
    with telemetry.phase(
        "prefetch", "campaign.prefetch", cat="executor",
        queries=sum(len(queries) for _, queries in groups.values()),
        engines=len(groups),
    ):
        prefetch_spanning_multi(list(groups.values()))


def _evaluate_shard(
    session, prepared: _PreparedShard, progress=None
) -> ShardResult:
    """The per-record evaluation loop over a prepared shard."""
    shard = prepared.shard
    telemetry = session.telemetry
    cache = session.verdict_cache
    with_orace = bool(session.config.compute_orace)
    before = telemetry.snapshot() if progress is not None else None
    by_delay: Dict[float, List[InjectionRecord]] = {
        delay: [] for delay in shard.delay_fractions
    }
    with tracing.span(
        "shard.evaluate", cat="executor",
        structure=shard.structure, shard=shard.index,
    ):
        with telemetry.phase("evaluate"):
            for index, wire in prepared.chosen:
                for delay in shard.delay_fractions:
                    record = prepared.cached.get((index, delay))
                    if record is None:
                        record = session.evaluator.evaluate(
                            prepared.waves,
                            prepared.checkpoint,
                            wire,
                            index,
                            delay,
                            with_orace=with_orace,
                        )
                        if cache is not None:
                            cache.put_record(
                                _record_key_of(session, shard, index, delay),
                                record_to_payload(record),
                            )
                    by_delay[delay].append(record)
        if cache is not None:
            telemetry.incr("record_cache_hits", len(prepared.cached))
            # Every record of this shard is now in the store: persist
            # incrementally.  The flush is throttled — per-shard
            # read-merge-rewrite under the inter-process lock would
            # serialize workers on disk I/O — with unconditional flushes at
            # worker exit and campaign end guaranteeing completeness.
            cache.flush_throttled()
    if progress is not None:
        progress.shard_done(telemetry.diff(before))
    return ShardResult(shard_index=shard.index, by_delay=by_delay)


def merge_shard_results(
    plan: CampaignPlan, shard_results: Sequence[ShardResult]
) -> StructureCampaignResult:
    """Deterministic merge: shard (= cycle) order, then shard-internal order.

    Keyed by ``shard_index`` so out-of-order completion (a worker fleet) and
    in-order completion (the serial executor) assemble byte-identical
    results.
    """
    result = StructureCampaignResult(
        structure=plan.structure,
        benchmark=plan.benchmark,
        wire_count=plan.wire_count,
        sampled_wires=len(plan.wire_indices),
        sampled_cycles=plan.sampled_cycles,
        by_delay={
            delay: DelayAVFResult(
                structure=plan.structure,
                benchmark=plan.benchmark,
                delay_fraction=delay,
            )
            for delay in plan.delay_fractions
        },
    )
    for shard_result in sorted(shard_results, key=lambda s: s.shard_index):
        for delay in plan.delay_fractions:
            result.by_delay[delay].records.extend(shard_result.by_delay[delay])
    return result


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class Executor(abc.ABC):
    """Strategy for running a plan's shards against session state."""

    @abc.abstractmethod
    def execute(
        self,
        plan: CampaignPlan,
        session,
        spec: Optional[SessionSpec] = None,
        progress=None,
    ) -> List[ShardResult]:
        """Run every shard of *plan*; results may arrive in any order.

        *session* is the engine's live
        :class:`~repro.core.campaign.CampaignSession`: in-process shards run
        against it and fleet events are charged to its telemetry.
        *progress*, when given, is a :class:`repro.core.progress.ProgressReporter`
        notified as shards complete (``shard_done``) and as recovery actions
        fire (``note``) so long campaigns stream liveness to stderr and the
        heartbeat file.
        """

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release executor resources (worker processes); idempotent."""


class SerialExecutor(Executor):
    """In-process execution against the live session (default behaviour).

    The whole plan is one :func:`execute_shards` batch, so GroupACE
    resolution packs across its shards into 64-lane words.
    """

    def execute(self, plan, session, spec=None, progress=None):
        return execute_shards([(session, plan.shards)], [progress])[0]


class ShardExecutionError(RuntimeError):
    """A shard kept failing after its full retry budget was spent."""


#: Worker evictions after which a campaign stops trusting its fleet and
#: finishes serially, so a fleet whose workers keep rejoining and dying
#: cannot requeue a shard forever.
_MAX_EVICTIONS = 3

#: Base of the exponential backoff, in seconds, before a raised shard is
#: retried (doubling per retry round, capped at 2 s).
_RETRY_BACKOFF = 0.05

#: Seconds a ``workers_from`` coordinator waits for (more) workers once the
#: fleet is empty before the remaining shards fall back to serial.
_WORKER_WAIT_SECONDS = 30.0

#: Seconds a closing coordinator waits for a local worker to flush its cache
#: and exit before terminating it.
_JOIN_SECONDS = 30.0


@dataclass
class _WorkerState:
    """Coordinator-side bookkeeping for one worker."""

    key: str
    channel: Any
    process: Any = None  #: the forked process of a local worker
    sessions: Set[str] = field(default_factory=set)  #: spec digests sent
    busy: Optional[int] = None  #: shard index in flight, if any
    deadline: Optional[float] = None  #: monotonic timeout for the busy shard


class ParallelExecutor(Executor):
    """The shard coordinator: dispatch shards to worker processes.

    Workers come from one of two sources:

    - ``jobs=N`` forks N local workers (``multiprocessing`` fork context,
      inside the caller's process group), each running
      :func:`repro.distrib.worker.serve` over a ``socket.socketpair()``.  The
      local fleet's membership is closed: each :meth:`execute` tops it back
      up to N live workers, a worker lost during a call is not replaced, and
      once every one is gone the remaining shards run serially at once.
    - ``workers_from=HOST:PORT`` (which makes ``jobs`` moot) listens on a
      socket for ``repro worker`` processes, which may join at any time,
      mid-campaign included.  An empty fleet waits
      :data:`_WORKER_WAIT_SECONDS` for one before falling back to serial.

    Either way each worker rebuilds the campaign session once per
    :class:`SessionSpec` and serves shards from its warm caches, one shard
    in flight per worker.  A shard whose every record the engine's verdict
    cache holds is evaluated in-process and never dispatched.  One fault
    model covers both sources, its knobs (``shard_timeout``,
    ``max_retries``) read from each campaign's ``spec.config`` (so engines
    sharing a fleet keep their own):

    - a shard its worker *raises* on is retried with exponential backoff
      (:data:`_RETRY_BACKOFF`), up to ``max_retries`` further attempts, then
      :class:`ShardExecutionError`;
    - a shard exceeding ``shard_timeout`` evicts its (presumed hung) worker
      and is requeued, charged one attempt.  The clock starts at dispatch,
      so budget for a cold worker's session build plus the slowest shard;
    - a dead worker (EOF, corrupt frame) is evicted and its shard requeued
      without charging the retry budget: the shard did nothing wrong;
    - once a campaign has evicted three workers, its remaining shards
      finish serially, however many workers keep joining.

    Evicted local workers are terminated and reaped; :meth:`close` shuts
    down and reaps the rest (terminating any still busy with the shard of
    an abandoned campaign).  Every fleet event — a join, retry, timeout,
    eviction or serial fallback — is one counter, one ``executor.<counter>``
    trace instant and one progress note under the counter's name, but
    records never change: shard execution is deterministic and the merge is
    order-independent.

    Workers stream back telemetry deltas and trace spans with each result;
    the spans are re-homed onto the worker's pid track under the
    ``executor.submit`` dispatch span
    (:func:`repro.core.tracing.stitch_remote_spans`).
    """

    def __init__(self, jobs: int = 2, *, workers_from: Optional[str] = None):
        self.jobs = max(1, int(jobs))
        self.workers_from = workers_from
        self._listener = None
        if workers_from is not None:
            self._listener = SocketListener(*parse_workers_from(workers_from))
        self._run_evictions = 0
        #: the running campaign's config, telemetry and progress reporter
        self._config = None
        self._telemetry: Optional[CampaignTelemetry] = None
        self._progress = None
        self._workers: Dict[str, _WorkerState] = {}
        self._worker_seq = 0
        self._plan_seq = 0
        self._lock = threading.Lock()
        self._shared = False
        self._closed = False

    @property
    def address(self):
        """The bound listen address of a ``workers_from`` fleet."""
        return self._listener.address

    # ------------------------------------------------------------------
    # Executor interface
    # ------------------------------------------------------------------
    def execute(self, plan, session, spec=None, progress=None):
        if spec is None:
            raise ValueError(
                "ParallelExecutor needs a SessionSpec to ship to workers; "
                "construct the engine via DelayAVFEngine.from_spec(...)"
            )
        # Shared fleets serve several engines: one campaign at a time, each
        # under its own fault policy, its events charged to its telemetry.
        with self._lock:
            self._config = spec.config
            self._telemetry = session.telemetry
            self._progress = progress
            try:
                return self._execute_locked(plan, session, spec)
            finally:
                self._config = self._telemetry = self._progress = None

    def _event(self, counter: str, **attrs: Any) -> None:
        """Count one executor event, mark it in the trace as an instant
        ``executor.<counter>`` and note it on the progress stream under the
        counter's own name."""
        self._telemetry.incr(counter)
        tracing.tracer().instant(f"executor.{counter}", cat="executor", **attrs)
        if self._progress is not None:
            self._progress.note(counter)

    def _execute_locked(self, plan, session, spec):
        shards: Dict[int, WorkShard] = {s.index: s for s in plan.shards}
        done = self._served_by_cache(plan, session)
        pending: List[int] = sorted(set(shards) - set(done))
        if not pending:
            return [done[index] for index in sorted(done)]
        if self._listener is None:
            self._spawn_local_workers()
        spec_payload, digest = self._wire_spec(spec)
        self._plan_seq += 1
        plan_id = f"{digest[:8]}:{self._plan_seq}"
        inflight: Dict[int, str] = {}  #: shard index -> worker key
        attempts: Dict[int, int] = {index: 0 for index in shards}
        retry_rounds = 0
        fleet_empty_since = None
        self._run_evictions = 0
        with tracing.span(
            "executor.submit", cat="executor", shards=len(shards)
        ) as dispatch_span:
            while True:
                self._accept_new_workers()
                if self._collect(
                    plan_id, shards, inflight, pending, done, attempts,
                    dispatch_span,
                ):
                    retry_rounds += 1
                    time.sleep(
                        min(2.0, _RETRY_BACKOFF * (2 ** (retry_rounds - 1)))
                    )
                if len(done) == len(shards):
                    break
                self._check_timeouts(inflight, pending, attempts)
                # Collect before dispatch: a worker that just answered gets
                # its next shard in the same round, not after a wait.
                self._dispatch(
                    pending, inflight, spec_payload, digest, plan_id, shards
                )
                if self._workers:
                    fleet_empty_since = None
                elif fleet_empty_since is None:
                    fleet_empty_since = time.monotonic()
                # A local fleet never regrows within a call; a listener
                # fleet gets _WORKER_WAIT_SECONDS for a worker to join.
                fleet_gone = fleet_empty_since is not None and (
                    self._listener is None
                    or time.monotonic() - fleet_empty_since
                    >= _WORKER_WAIT_SECONDS
                )
                if fleet_gone or self._run_evictions >= _MAX_EVICTIONS:
                    # No worker left, or this run keeps losing them: limp
                    # home in-process.
                    pending.extend(inflight)
                    self._serial_finish(pending, shards, session, done)
                    break
                self._wait_for_messages(0.02)
        return [done[index] for index in sorted(done)]

    def _served_by_cache(self, plan, session) -> Dict[int, ShardResult]:
        """Evaluate here the shards whose every record the live session's
        verdict cache holds, so only shards with injections left are
        dispatched: a plan the cache serves whole forks no worker and waits
        for none."""
        if session.verdict_cache is None:
            return {}
        done: Dict[int, ShardResult] = {}
        for shard in plan.shards:
            prepared = _look_up_shard(session, shard)
            if not prepared.pending:
                done[shard.index] = _evaluate_shard(
                    session, prepared, self._progress
                )
        return done

    def _wire_spec(self, spec: SessionSpec):
        """The spec as shipped to workers, plus its content digest.

        The wire config must not recurse: workers run their shards
        in-process, so ``jobs`` collapses to 1 and ``workers_from`` is
        stripped.  ``trace`` survives — worker spans come back with each
        result.  Sessions are cached per digest on workers, so two engines
        with identical wire specs share one warm session.
        """
        config = dataclasses.replace(spec.config, jobs=1, workers_from=None)
        payload = dataclasses.replace(spec, config=config).to_payload()
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        return payload, digest

    # ------------------------------------------------------------------
    # Fleet management
    # ------------------------------------------------------------------
    def _join(self, channel, process=None) -> None:
        self._worker_seq += 1
        key = f"worker-{self._worker_seq}"
        self._workers[key] = _WorkerState(
            key=key, channel=channel, process=process
        )
        self._event("workers_joined", worker=key)

    def _spawn_local_workers(self) -> None:
        """Fork local workers until *jobs* of them are alive."""
        import multiprocessing

        from repro.distrib.worker import serve_forked

        for worker in list(self._workers.values()):
            if not worker.process.is_alive():  # died since the last call
                self._evict(worker, {}, [])
        context = multiprocessing.get_context("fork")
        while len(self._workers) < self.jobs:
            coordinator_end, worker_end = socket.socketpair()
            channel = SocketChannel(coordinator_end)
            inherited = [w.channel for w in self._workers.values()]
            process = context.Process(
                target=serve_forked,
                args=(SocketChannel(worker_end), inherited + [channel]),
                name="repro-worker", daemon=True,
            )
            try:
                process.start()
            finally:
                # Only the child may hold the worker end, or its death would
                # never read as EOF here.
                worker_end.close()
            self._join(channel, process=process)

    def _accept_new_workers(self) -> None:
        if self._listener is None:
            return
        for channel in self._listener.accept():
            self._join(channel)

    def _wait_for_messages(self, seconds: float) -> None:
        """Sleep up to *seconds*, waking early when a worker speaks, so a
        worker that finishes a shard gets its next one at once."""
        channels = [worker.channel for worker in self._workers.values()]
        select.select(channels, [], [], seconds)

    def _release(self, worker: _WorkerState, graceful: bool) -> None:
        """Forget *worker*, close its channel, reap it if it is local.

        A graceful release gives a local worker told to shut down time to
        flush and exit; otherwise it is terminated outright (it may be hung
        mid-shard).
        """
        self._workers.pop(worker.key, None)
        worker.channel.close()
        process = worker.process
        if process is not None:
            if graceful:
                process.join(_JOIN_SECONDS)
            if process.is_alive():
                process.terminate()
            process.join()

    def _evict(
        self, worker: _WorkerState, inflight, pending,
        error: Optional[TransportError] = None,
    ) -> None:
        """Drop a dead or hung worker; its in-flight shard is requeued.

        Requeueing does *not* charge the shard's retry budget: a worker's
        death is not the shard's fault.  A corrupt frame (*error*) is
        counted on top of the eviction.
        """
        if isinstance(error, CorruptFrameError):
            self._event("corrupt_frames", detail=str(error))
        self._release(worker, graceful=False)
        self._event("workers_evicted", worker=worker.key)
        if worker.busy is not None and worker.busy in inflight:
            inflight.pop(worker.busy)
            pending.append(worker.busy)
        worker.busy = None
        self._run_evictions += 1

    def _dispatch(
        self, pending, inflight, spec_payload, digest, plan_id, shards
    ) -> None:
        """Hand one pending shard to every idle worker (warming it first)."""
        for worker in list(self._workers.values()):
            if not pending:
                break
            if worker.busy is not None:
                continue
            index = min(pending)
            try:
                if digest not in worker.sessions:
                    worker.channel.send(
                        {"type": "session", "digest": digest,
                         "spec": spec_payload}
                    )
                    worker.sessions.add(digest)
                worker.channel.send(
                    {"type": "shard", "plan_id": plan_id, "digest": digest,
                     "shard": shards[index].to_payload()}
                )
            except TransportError as exc:
                self._evict(worker, inflight, pending, exc)
                continue
            pending.remove(index)
            worker.busy = index
            timeout = self._config.shard_timeout
            worker.deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            inflight[index] = worker.key

    # ------------------------------------------------------------------
    # Result collection / fault handling
    # ------------------------------------------------------------------
    def _collect(
        self, plan_id, shards, inflight, pending, done, attempts,
        dispatch_span,
    ) -> bool:
        """Poll every worker once; returns True when a shard was retried."""
        had_retries = False
        for worker in list(self._workers.values()):
            try:
                messages = worker.channel.poll()
            except TransportError as exc:
                self._evict(worker, inflight, pending, exc)
                continue
            for message in messages:
                kind = message.get("type")
                if kind in ("result", "error"):
                    if message.get("plan_id") != plan_id:
                        worker.busy = None  # stale answer to an old plan
                        continue
                    index = int(message["shard_index"])
                    worker.busy = None
                    worker.deadline = None
                    if index in done or index not in inflight:
                        continue  # already answered elsewhere
                    inflight.pop(index)
                    if kind == "error":
                        attempts[index] += 1
                        if attempts[index] > self._config.max_retries:
                            raise ShardExecutionError(
                                f"shard {index} (cycle {shards[index].cycle}) "
                                f"failed {attempts[index]} times on worker "
                                f"{worker.key}; giving up: "
                                f"{message.get('message')}"
                            )
                        self._event("shard_retries", shard=index)
                        pending.append(index)
                        had_retries = True
                        continue
                    result = shard_result_from_payload(
                        message["result"], shards[index]
                    )
                    if result.spans:
                        result.spans = tracing.stitch_remote_spans(
                            result.spans,
                            pid=message.get("pid"),
                            parent=dispatch_span,
                            parent_pid=os.getpid(),
                        )
                    done[index] = result
                    self._telemetry.incr("worker_shards_completed")
                    if self._progress is not None:
                        self._progress.shard_done(result.telemetry)
        return had_retries

    def _check_timeouts(self, inflight, pending, attempts) -> None:
        """Evict workers whose shard overran ``shard_timeout``.

        A running shard cannot be cancelled, so its worker is evicted
        outright; the timeout charges the shard one attempt but never
        raises — a shard that times out everywhere ends in the serial
        fallback once the fleet is gone.
        """
        if self._config.shard_timeout is None:
            return
        now = time.monotonic()
        for index, worker_key in list(inflight.items()):
            worker = self._workers.get(worker_key)
            if worker is None or worker.deadline is None:
                continue
            if now < worker.deadline:
                continue
            self._event("shard_timeouts", shard=index)
            attempts[index] += 1
            self._evict(worker, inflight, pending)

    def _serial_finish(self, pending, shards, session, done) -> None:
        """Run every remaining shard in-process against the engine's live
        session (the fleet is gone): records and telemetry then flow exactly
        like a :class:`SerialExecutor` run."""
        self._event("serial_fallbacks")
        with tracing.span(
            "executor.serial_fallback", cat="executor", shards=len(pending)
        ):
            remaining = [shards[index] for index in sorted(set(pending))]
            [results] = execute_shards(
                [(session, remaining)], [self._progress]
            )
        done.update((result.shard_index, result) for result in results)
        pending.clear()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the fleet — unless shared, then only the registry may."""
        if not self._shared:
            self.shutdown()

    def shutdown(self) -> None:
        """Shut every worker down (reaping local ones), close the listener.

        A local fleet is forked afresh by the next :meth:`execute`.
        """
        workers = list(self._workers.values())
        for worker in workers:  # all at once: they flush and exit in parallel
            try:
                worker.channel.send({"type": "shutdown"})
            except TransportError:
                pass
        for worker in workers:
            # A worker still busy when the campaign was abandoned (it raised,
            # or was interrupted) is running a shard nobody will collect.
            self._release(worker, graceful=worker.busy is None)
        if self._listener is not None:
            self._listener.close()
        self._closed = True

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# Shared fleets: one listener per address, however many engines use it
# ----------------------------------------------------------------------
_SHARED: Dict[str, ParallelExecutor] = {}
_SHARED_LOCK = threading.Lock()


def shared_remote_executor(workers_from: str) -> ParallelExecutor:
    """The process-wide ``workers_from`` coordinator for one listen address.

    A listen address binds once; every engine configured with the same
    address (the service runs one engine per benchmark/structure pair) gets
    the same executor, whose :meth:`~ParallelExecutor.execute` is internally
    serialized and applies each campaign's own fault policy.  Engine
    ``close()`` calls are no-ops on shared instances;
    :func:`shutdown_shared_executors` — wired into ``repro.api.shutdown`` and
    ``atexit`` — releases the fleets.
    """
    with _SHARED_LOCK:
        executor = _SHARED.get(workers_from)
        if executor is None or executor._closed:
            executor = ParallelExecutor(workers_from=workers_from)
            executor._shared = True
            _SHARED[workers_from] = executor
        return executor


def shutdown_shared_executors() -> None:
    """Tear down every shared fleet (workers get a shutdown message)."""
    with _SHARED_LOCK:
        executors = list(_SHARED.values())
        _SHARED.clear()
    for executor in executors:
        executor.shutdown()


atexit.register(shutdown_shared_executors)
