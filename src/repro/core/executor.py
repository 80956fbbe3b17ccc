"""Campaign execution: pluggable executors over planned work shards.

The campaign engine plans a structure campaign into per-cycle
:class:`repro.core.plan.WorkShard` descriptors and hands them to an
:class:`Executor`:

- :class:`SerialExecutor` runs every shard in-process against the engine's
  live :class:`repro.core.campaign.CampaignSession` (the historical
  behaviour, and the default).
- :class:`ParallelExecutor` is the one shard coordinator.  It dispatches
  shards to worker processes running the :mod:`repro.distrib.worker` loop —
  forked locally (``jobs=N``) or joining over a socket or file queue
  (``workers_from=ADDR``).  Each worker rebuilds the session once from a
  wire-serializable :class:`SessionSpec` (system factory + program +
  config) and serves shards from its warm caches; the fleet is kept alive
  across ``run_structure`` calls so consecutive structure campaigns reuse
  worker sessions exactly like the serial engine reuses its one session.

The coordinator is fault tolerant: raised shards are retried with backoff,
hung or dead workers are evicted and their shards requeued, and when no
worker is left the remaining shards finish in-process on the serial path.
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
import importlib
import json
import os
import select
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core import tracing
from repro.core.breaker import HALF_OPEN, OPEN, CircuitBreaker
from repro.core.cache import (
    record_from_payload,
    record_key,
    record_to_payload,
    shard_key,
)
from repro.core.plan import CampaignPlan, WorkShard
from repro.core.results import DelayAVFResult, InjectionRecord, StructureCampaignResult
from repro.core.telemetry import CampaignTelemetry
from repro.distrib.transport import (
    CorruptFrameError,
    FileQueueListener,
    SocketChannel,
    SocketListener,
    TransportError,
    parse_workers_from,
)


@dataclass(frozen=True)
class SessionSpec:
    """Everything a worker needs to rebuild a campaign session.

    ``system_factory`` must be importable by reference (a module-level
    callable, e.g. :func:`repro.soc.system.build_system`); ``factory_kwargs``
    is a tuple of ``(name, value)`` pairs so the spec stays comparable and
    wire-serializable (:meth:`to_payload`).
    """

    system_factory: Callable[..., Any]
    program: Any  #: :class:`repro.isa.assembler.Program`
    config: Any  #: :class:`repro.core.campaign.CampaignConfig`
    factory_kwargs: Tuple[Tuple[str, Any], ...] = ()

    def build_system(self):
        return self.system_factory(**dict(self.factory_kwargs))

    def build_session(self):
        """Rebuild the full campaign session (golden run, analyzers, cache)."""
        from repro.core.campaign import CampaignSession

        system = self.build_system()
        return CampaignSession(
            system,
            self.program,
            self.config,
            verdict_cache=open_configured_cache(system, self.program, self.config),
            _internal=True,
        )

    # ------------------------------------------------------------------
    # Wire round-trip: the JSON-safe form the coordinator ships to workers,
    # which may share no process ancestry (and possibly no machine).
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """A JSON-safe dict :meth:`from_payload` rebuilds exactly.

        The factory travels by dotted reference (``module:qualname``) — the
        same by-reference contract pickling already imposes — the program
        image as base64, the config through its own payload round-trip.
        Factory kwarg values must be JSON-representable primitives (the
        existing specs only carry booleans).
        """
        factory = self.system_factory
        return {
            "system_factory": f"{factory.__module__}:{factory.__qualname__}",
            "program": {
                "name": self.program.name,
                "image": base64.b64encode(self.program.image).decode("ascii"),
                "entry": self.program.entry,
                "symbols": dict(self.program.symbols),
            },
            "config": self.config.to_payload(),
            "factory_kwargs": [[name, value] for name, value in self.factory_kwargs],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SessionSpec":
        """Rebuild a spec from its wire form (inverse of :meth:`to_payload`).

        Trusts its coordinator: the factory reference is imported and
        resolved, exactly as unpickling would.  Workers only ever deserialize
        specs from the coordinator they explicitly connected to.
        """
        from repro.core.campaign import CampaignConfig
        from repro.isa.assembler import Program

        module_name, _, qualname = str(payload["system_factory"]).partition(":")
        factory: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            factory = getattr(factory, part)
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
            system_factory=factory,
            program=program,
            config=CampaignConfig.from_payload(payload["config"]),
            factory_kwargs=tuple(
                (str(name), value)
                for name, value in payload.get("factory_kwargs") or ()
            ),
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
# The shard inner loop (shared verbatim by both executors)
# ----------------------------------------------------------------------
def execute_shard(session, plan: CampaignPlan, shard: WorkShard) -> ShardResult:
    """Run every (wire, delay) injection of one sampled cycle.

    Loops are wire-outer / delay-inner within the shard — combined with the
    plan's cycle-per-shard decomposition this reproduces the legacy engine's
    cycle-outermost §V-C cache-reuse order exactly.

    Completed injections are served from the persistent record cache when one
    is attached; the shard only builds waveforms and checkpoints (the
    expensive timing-aware event simulation) for the injections it actually
    has to evaluate, so a fully warm shard never touches the event simulator.
    Cold injections first flow through the batched timing-aware engine
    (:meth:`DynamicReachability.reachable_set_batch`), which amortizes
    fan-out-cone construction and fault-free waveform slicing across the
    whole cycle before the per-record evaluation loop runs.
    """
    with tracing.span(
        "shard.execute",
        cat="shard",
        structure=plan.structure,
        shard=shard.index,
        cycle=shard.cycle,
        wires=len(shard.wire_indices),
        delays=len(shard.delay_fractions),
    ):
        return _execute_shard_body(session, plan, shard)


@dataclass
class _PreparedShard:
    """A shard's timing-aware pass, paused before GroupACE resolution."""

    shard: WorkShard
    chosen: List[Tuple[int, Any]]  #: (wire index, wire) pairs
    cached: Dict[Tuple[int, float], InjectionRecord]
    waves: Any = None
    checkpoint: Any = None
    reach_sets: List[Dict[int, int]] = None


def _prepare_shard(session, plan: CampaignPlan, shard: WorkShard) -> _PreparedShard:
    """Record-cache lookups plus the batched timing-aware reachability pass.

    Everything *before* GroupACE resolution: the returned object carries the
    dynamically reachable error sets the prefetch (per-shard or
    campaign-spanning) still has to resolve.
    """
    config = session.config
    telemetry = session.telemetry
    cache = session.verdict_cache
    with_orace = bool(config.compute_orace)
    wires = session.system.structure_wires(plan.structure)
    chosen = [(index, wires[index]) for index in shard.wire_indices]

    cached: Dict[Tuple[int, float], InjectionRecord] = {}
    if cache is not None:
        for index, _ in chosen:
            for delay in shard.delay_fractions:
                payload = cache.get_record(
                    _record_key_of(session, plan, shard, index, delay)
                )
                if payload is not None:
                    cached[(index, delay)] = record_from_payload(
                        payload, index, shard.cycle, delay
                    )
        telemetry.incr("record_cache_hits", len(cached))

    prepared = _PreparedShard(shard=shard, chosen=chosen, cached=cached)
    pending = shard.injection_pairs(skip=cached)
    if pending:
        prepared.waves = session.waveforms(shard.cycle)
        prepared.checkpoint = session.checkpoint(shard.cycle)
        # Batched timing-aware pass: resolve every pending dynamically
        # reachable set through the shared-cone batch API up front, so the
        # per-record evaluation afterwards runs against warm per-cycle memos.
        wire_of = dict(chosen)
        lane_width = int(getattr(plan, "lane_width", config.lane_width))
        prepared.reach_sets = session.dynamic.reachable_set_batch(
            prepared.waves,
            [(wire_of[index], delay) for index, delay in pending],
            lanes=lane_width,
        )
    return prepared


def _record_key_of(session, plan, shard, index: int, delay: float) -> str:
    return record_key(
        plan.structure, shard.cycle, index, delay,
        bool(session.config.compute_orace), session.system.clock_period,
    )


def _evaluate_shard(
    session, plan: CampaignPlan, prepared: _PreparedShard
) -> ShardResult:
    """The per-record evaluation loop over a prepared shard."""
    shard = prepared.shard
    config = session.config
    cache = session.verdict_cache
    with_orace = bool(config.compute_orace)
    by_delay: Dict[float, List[InjectionRecord]] = {
        delay: [] for delay in shard.delay_fractions
    }
    with session.telemetry.timer("evaluate"):
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
                            _record_key_of(session, plan, shard, index, delay),
                            record_to_payload(record),
                        )
                by_delay[delay].append(record)
    if cache is not None:
        # Every record of this shard is now in the store: mark the shard
        # complete (resume skips it) and persist incrementally.  The flush is
        # throttled — per-shard read-merge-rewrite under the inter-process
        # lock would serialize workers on disk I/O — with unconditional
        # flushes at worker exit and campaign end guaranteeing completeness.
        cache.mark_shard_complete(
            shard_key(
                plan.structure, shard.cycle, shard.wire_indices,
                shard.delay_fractions, with_orace, session.system.clock_period,
            )
        )
        cache.flush_throttled(
            every_n=getattr(config, "flush_every_shards", 8),
            max_seconds=getattr(config, "flush_max_seconds", 10.0),
        )
    return ShardResult(shard_index=shard.index, by_delay=by_delay)


def _execute_shard_body(session, plan: CampaignPlan, shard: WorkShard) -> ShardResult:
    prepared = _prepare_shard(session, plan, shard)
    lane_width = int(getattr(plan, "lane_width", session.config.lane_width))
    if prepared.reach_sets and lane_width > 1:
        with session.telemetry.timer("prefetch"):
            session.group_ace.prefetch_spanning(
                _group_ace_queries(
                    session, [(prepared.checkpoint, prepared.reach_sets)]
                ),
                lanes=lane_width,
            )
    return _evaluate_shard(session, plan, prepared)


def _group_ace_queries(session, checkpointed_sets):
    """Flatten (checkpoint, reach sets) pairs into spanning prefetch items.

    ``checkpointed_sets`` holds one entry per prepared shard.  Collects each
    non-empty dynamically reachable set — plus the per-member singleton sets
    ORACE requires for multi-bit errors — so one lane-parallel resolution
    makes the scalar evaluation pass afterwards pure cache hits.
    """
    queries = []
    orace = bool(session.config.compute_orace)
    for checkpoint, reach_sets in checkpointed_sets:
        for errors in reach_sets:
            if not errors:
                continue
            queries.append((checkpoint, errors))
            if orace and len(errors) > 1:
                queries.extend(
                    (checkpoint, {dff: value}) for dff, value in errors.items()
                )
    return queries


def prepare_plan_shards(
    session, plan: CampaignPlan
) -> List[_PreparedShard]:
    """Prepare every shard of a plan (pass 1 of the spanning path)."""
    prepared_shards: List[_PreparedShard] = []
    for shard in plan.shards:
        with tracing.span(
            "shard.execute",
            cat="shard",
            structure=plan.structure,
            shard=shard.index,
            cycle=shard.cycle,
            wires=len(shard.wire_indices),
            delays=len(shard.delay_fractions),
        ):
            prepared_shards.append(_prepare_shard(session, plan, shard))
    return prepared_shards


def plan_queries(session, prepared_shards: List[_PreparedShard]):
    """Spanning GroupACE/ORACE queries still unresolved after preparation."""
    return _group_ace_queries(
        session,
        [
            (prepared.checkpoint, prepared.reach_sets)
            for prepared in prepared_shards
            if prepared.reach_sets
        ],
    )


def evaluate_prepared_shards(
    session, plan: CampaignPlan, prepared_shards: List[_PreparedShard],
    progress=None,
) -> List[ShardResult]:
    """Per-shard evaluation loops (pass 3 of the spanning path)."""
    telemetry = session.telemetry
    results = []
    for prepared in prepared_shards:
        before = telemetry.snapshot() if progress is not None else None
        with tracing.span(
            "shard.evaluate", cat="executor",
            structure=plan.structure, shard=prepared.shard.index,
        ):
            result = _evaluate_shard(session, plan, prepared)
        if progress is not None:
            progress.shard_done(telemetry.diff(before))
        results.append(result)
    return results


def execute_shards_spanning(
    session, plan: CampaignPlan, progress=None
) -> List[ShardResult]:
    """Run a plan's shards with lane packing spanning the whole campaign.

    Single cycles rarely contribute enough unique error sets to fill a
    64-lane word, so per-shard prefetching leaves most planes idle.  This
    path prepares *every* shard first (record-cache lookups, waveforms, the
    batched timing-aware reachability pass), resolves all GroupACE/ORACE
    queries of the campaign in one cross-checkpoint lane-parallel prefetch,
    then runs the per-shard evaluation loops against the warm cache.
    Records are byte-identical to the per-shard path — only the packing of
    the timing-agnostic simulations changes.  (One engine can pack even
    wider — across whole campaigns — via
    :meth:`repro.core.campaign.DelayAVFEngine.run_structures`.)
    """
    telemetry = session.telemetry
    prepared_shards = prepare_plan_shards(session, plan)
    queries = plan_queries(session, prepared_shards)
    lane_width = int(getattr(plan, "lane_width", session.config.lane_width))
    if queries:
        with tracing.span(
            "campaign.prefetch", cat="executor",
            queries=len(queries), lanes=lane_width,
        ):
            with telemetry.timer("prefetch"):
                session.group_ace.prefetch_spanning(queries, lanes=lane_width)
    return evaluate_prepared_shards(session, plan, prepared_shards, progress)


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
        session=None,
        spec: Optional[SessionSpec] = None,
        progress=None,
    ) -> List[ShardResult]:
        """Run every shard of *plan*; results may arrive in any order.

        *progress*, when given, is a :class:`repro.core.progress.ProgressReporter`
        notified as shards complete (``shard_done``) and as recovery actions
        fire (``note``) so long campaigns stream liveness to stderr and the
        heartbeat file.
        """

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release executor resources (worker processes); idempotent."""


class SerialExecutor(Executor):
    """In-process execution against a live session (default behaviour).

    With a packed lane width (``plan.lane_width > 1``) the serial path packs
    GroupACE resolution *across* shards (:func:`execute_shards_spanning`);
    at width 1 it runs the historical one-shard-at-a-time loop.
    """

    def execute(self, plan, session=None, spec=None, progress=None):
        if session is None:
            if spec is None:
                raise ValueError("SerialExecutor needs a session or a spec")
            session = spec.build_session()
        lane_width = int(getattr(plan, "lane_width", session.config.lane_width))
        if lane_width > 1:
            return execute_shards_spanning(session, plan, progress)
        results = []
        for shard in plan.shards:
            before = session.telemetry.snapshot() if progress is not None else None
            result = execute_shard(session, plan, shard)
            if progress is not None:
                progress.shard_done(session.telemetry.diff(before))
            results.append(result)
        return results


class ShardExecutionError(RuntimeError):
    """A shard kept failing after its full retry budget was spent."""


#: Seconds between file-queue spool GC sweeps (see ``sweep_stale_files``).
_SWEEP_INTERVAL = 30.0

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
    plans: Set[str] = field(default_factory=set)  #: plan ids sent
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
    - ``workers_from=ADDR`` (which makes ``jobs`` moot) listens at
      ``HOST:PORT`` (socket transport) or ``queue:DIR`` (shared-filesystem
      queue) for ``repro worker`` processes, which may join at any time,
      mid-campaign included.  An empty fleet waits *worker_wait_seconds*
      for one before falling back to serial.

    Either way each worker rebuilds the campaign session once per
    :class:`SessionSpec` and serves shards from its warm caches, one shard
    in flight per worker.  One fault model covers both sources:

    - a shard its worker *raises* on is retried with exponential backoff, up
      to *max_retries* further attempts, then :class:`ShardExecutionError`;
    - a shard exceeding *shard_timeout* evicts its (presumed hung) worker and
      is requeued, charged one attempt.  The clock starts at dispatch, so
      budget for a cold worker's session build plus the slowest shard;
    - a dead worker (EOF, corrupt frame) is evicted and its shard requeued
      without charging the retry budget: the shard did nothing wrong;
    - consecutive evictions trip a circuit breaker; while it is open,
      campaigns short-circuit to the serial path until a half-open probe
      campaign decides whether the fleet is back.

    Evicted local workers are terminated and reaped; :meth:`close` shuts
    down and reaps the rest (terminating any still busy with the shard of
    an abandoned campaign).  Every recovery action lands in telemetry and
    progress notes, but records never change: shard execution is
    deterministic and the merge is order-independent.

    Workers stream back telemetry deltas and trace spans with each result;
    the spans are re-homed onto the worker's pid track under the
    ``executor.submit`` dispatch span
    (:func:`repro.core.tracing.stitch_remote_spans`).
    """

    def __init__(
        self,
        jobs: int = 2,
        *,
        workers_from: Optional[str] = None,
        shard_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        worker_wait_seconds: float = 30.0,
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 60.0,
    ):
        self.jobs = max(1, int(jobs))
        self.workers_from = workers_from
        self.shard_timeout = shard_timeout
        self.max_retries = max(0, int(max_retries))
        self.retry_backoff = max(0.0, float(retry_backoff))
        self.worker_wait_seconds = max(0.0, float(worker_wait_seconds))
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            reset_seconds=breaker_reset_seconds,
        )
        self._listener = None
        if workers_from is not None:
            parsed = parse_workers_from(workers_from)
            if parsed[0] == "queue":
                self._listener = FileQueueListener(parsed[1])
            else:
                self._listener = SocketListener(parsed[1], parsed[2])
        self._run_evictions = 0
        self._last_sweep = time.monotonic()
        self._workers: Dict[str, _WorkerState] = {}
        self._worker_seq = 0
        self._plan_seq = 0
        self._fallback_session = None
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
    def execute(self, plan, session=None, spec=None, progress=None):
        if spec is None:
            raise ValueError(
                "ParallelExecutor needs a SessionSpec to ship to workers; "
                "construct the engine via DelayAVFEngine.from_spec(...)"
            )
        # Shared fleets serve several engines: one campaign at a time.
        with self._lock:
            return self._execute_locked(plan, session, spec, progress)

    def _execute_locked(self, plan, session, spec, progress):
        # Recovery actions are charged to the campaign's telemetry when the
        # engine's live session rides along (the normal path); direct calls
        # without one still work, their counters just land in a throwaway.
        telemetry = (
            session.telemetry if session is not None else CampaignTelemetry()
        )
        shards: Dict[int, WorkShard] = {s.index: s for s in plan.shards}
        pending: List[int] = sorted(shards)
        done: Dict[int, ShardResult] = {}
        if not self._admit_fleet(telemetry, progress):
            # Breaker open and still cooling down: do not even wait for
            # workers — short-circuit the whole campaign to the serial path.
            self._serial_finish(
                pending, shards, plan, session, spec, done, telemetry, progress
            )
            return [done[index] for index in sorted(done)]
        if self._listener is None:
            self._spawn_local_workers(telemetry, progress)
        spec_payload, digest = self._wire_spec(spec)
        self._plan_seq += 1
        plan_id = f"{digest[:8]}:{self._plan_seq}"
        plan_payload = plan.to_payload()
        inflight: Dict[int, str] = {}  #: shard index -> worker key
        attempts: Dict[int, int] = {index: 0 for index in shards}
        retry_rounds = 0
        fleet_empty_since = None
        self._run_evictions = 0
        with tracing.span(
            "executor.submit", cat="executor", shards=len(shards)
        ) as dispatch_span:
            while True:
                self._accept_new_workers(telemetry, progress)
                if self._collect(
                    plan_id, shards, inflight, pending, done, attempts,
                    telemetry, progress, dispatch_span,
                ):
                    retry_rounds += 1
                    time.sleep(
                        min(2.0, self.retry_backoff * (2 ** (retry_rounds - 1)))
                    )
                if len(done) == len(shards):
                    break
                self._check_timeouts(
                    inflight, pending, attempts, telemetry, progress
                )
                # Collect before dispatch: a worker that just answered gets
                # its next shard in the same round, not after a wait.
                self._dispatch(
                    pending, inflight, spec_payload, digest, plan_id,
                    plan_payload, shards, telemetry, progress,
                )
                if self._workers:
                    fleet_empty_since = None
                elif fleet_empty_since is None:
                    fleet_empty_since = time.monotonic()
                # A local fleet never regrows within a call; a listener
                # fleet gets worker_wait_seconds for a worker to join.
                fleet_gone = fleet_empty_since is not None and (
                    self._listener is None
                    or time.monotonic() - fleet_empty_since
                    >= self.worker_wait_seconds
                )
                if fleet_gone or self.breaker.state == OPEN:
                    # No worker left, or evictions during this run tripped
                    # the breaker: limp home in-process.
                    pending.extend(inflight)
                    self._serial_finish(
                        pending, shards, plan, session, spec, done,
                        telemetry, progress,
                    )
                    break
                self._wait_for_messages(0.02)
        if self._run_evictions == 0 and self.breaker.record_success():
            # A clean run through a previously tripped breaker: the fleet
            # (or lack of one) is healthy again.
            telemetry.incr("breaker_recoveries")
            tracing.instant("executor.breaker_recovered", cat="executor")
            if progress is not None:
                progress.note("breaker_recoveries")
        return [done[index] for index in sorted(done)]

    def _admit_fleet(self, telemetry, progress) -> bool:
        """Consult the breaker; True means the fleet may be used this run."""
        probing = self.breaker.state == HALF_OPEN
        if not self.breaker.allow():
            telemetry.incr("breaker_short_circuits")
            tracing.instant("executor.breaker_short_circuit", cat="executor")
            if progress is not None:
                progress.note("breaker_short_circuits")
            return False
        if probing:
            telemetry.incr("breaker_probes")
            tracing.instant("executor.breaker_probe", cat="executor")
        return True

    def _wire_spec(self, spec: SessionSpec):
        """The spec as shipped to workers, plus its content digest.

        The wire config is neutralized (no progress stream, metrics file, or
        stats printing fighting the coordinator's) and must not recurse:
        workers run their shards in-process, so ``jobs`` collapses to 1 and
        ``workers_from`` is stripped.  ``trace`` survives — worker spans come
        back with each result.  Sessions are cached per digest on workers, so
        two engines with identical wire specs share one warm session.
        """
        config = dataclasses.replace(
            spec.config.neutral(), jobs=1, workers_from=None
        )
        payload = dataclasses.replace(spec, config=config).to_payload()
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        return payload, digest

    # ------------------------------------------------------------------
    # Fleet management
    # ------------------------------------------------------------------
    def _join(self, channel, telemetry, progress, process=None) -> None:
        self._worker_seq += 1
        key = str(getattr(channel, "worker_id", f"worker-{self._worker_seq}"))
        self._workers[key] = _WorkerState(
            key=key, channel=channel, process=process
        )
        telemetry.incr("workers_joined")
        tracing.instant("executor.worker_joined", cat="executor", worker=key)
        if progress is not None:
            progress.note("workers_joined")

    def _spawn_local_workers(self, telemetry, progress) -> None:
        """Fork local workers until *jobs* of them are alive."""
        import multiprocessing

        from repro.distrib.worker import serve_forked

        for worker in list(self._workers.values()):
            if not worker.process.is_alive():  # died since the last call
                self._evict(worker, {}, [], telemetry, progress)
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
            self._join(channel, telemetry, progress, process=process)

    def _accept_new_workers(self, telemetry, progress) -> None:
        if self._listener is None:
            return
        self._sweep_spool(telemetry)
        for channel in self._listener.accept():
            self._join(channel, telemetry, progress)

    def _sweep_spool(self, telemetry) -> None:
        """Throttled GC of the file-queue spool (no-op on socket fleets)."""
        sweep = getattr(self._listener, "sweep", None)
        if sweep is None:
            return
        now = time.monotonic()
        if now - self._last_sweep < _SWEEP_INTERVAL:
            return
        self._last_sweep = now
        try:
            swept = sweep()
        except OSError:
            return
        if swept:
            telemetry.incr("spool_files_swept", swept)
            tracing.instant(
                "executor.spool_swept", cat="executor", files=swept
            )

    def _wait_for_messages(self, seconds: float) -> None:
        """Sleep up to *seconds*, waking early when a socket worker speaks,
        so a worker that finishes a shard gets its next one at once."""
        channels = [worker.channel for worker in self._workers.values()]
        if all(isinstance(channel, SocketChannel) for channel in channels):
            select.select(channels, [], [], seconds)
        else:
            time.sleep(seconds)

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

    def _note_transport_error(self, exc: TransportError, telemetry) -> None:
        """Corrupt frames get their own counter on top of the eviction."""
        if isinstance(exc, CorruptFrameError):
            telemetry.incr("corrupt_frames")
            tracing.instant(
                "executor.corrupt_frame", cat="executor", detail=str(exc)
            )

    def _evict(
        self, worker: _WorkerState, inflight, pending, telemetry, progress
    ) -> None:
        """Drop a dead or hung worker; its in-flight shard is requeued.

        Requeueing does *not* charge the shard's retry budget: a worker's
        death is not the shard's fault.
        """
        self._release(worker, graceful=False)
        telemetry.incr("workers_evicted")
        tracing.instant(
            "executor.worker_evicted", cat="executor", worker=worker.key
        )
        if progress is not None:
            progress.note("evictions")
        if worker.busy is not None and worker.busy in inflight:
            inflight.pop(worker.busy)
            pending.append(worker.busy)
        worker.busy = None
        self._run_evictions += 1
        if self.breaker.record_failure():
            telemetry.incr("breaker_trips")
            tracing.instant("executor.breaker_tripped", cat="executor")
            if progress is not None:
                progress.note("breaker_trips")

    def _dispatch(
        self, pending, inflight, spec_payload, digest, plan_id, plan_payload,
        shards, telemetry, progress,
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
                if plan_id not in worker.plans:
                    worker.channel.send(
                        {"type": "plan", "plan_id": plan_id,
                         "digest": digest, "plan": plan_payload}
                    )
                    worker.plans.add(plan_id)
                worker.channel.send(
                    {"type": "shard", "plan_id": plan_id,
                     "shard": shards[index].to_payload()}
                )
            except TransportError as exc:
                self._note_transport_error(exc, telemetry)
                self._evict(worker, inflight, pending, telemetry, progress)
                continue
            pending.remove(index)
            worker.busy = index
            worker.deadline = (
                None if self.shard_timeout is None
                else time.monotonic() + self.shard_timeout
            )
            inflight[index] = worker.key

    # ------------------------------------------------------------------
    # Result collection / fault handling
    # ------------------------------------------------------------------
    def _collect(
        self, plan_id, shards, inflight, pending, done, attempts,
        telemetry, progress, dispatch_span,
    ) -> bool:
        """Poll every worker once; returns True when a shard was retried."""
        had_retries = False
        for worker in list(self._workers.values()):
            try:
                messages = worker.channel.poll()
            except TransportError as exc:
                self._note_transport_error(exc, telemetry)
                self._evict(worker, inflight, pending, telemetry, progress)
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
                        if attempts[index] > self.max_retries:
                            raise ShardExecutionError(
                                f"shard {index} (cycle {shards[index].cycle}) "
                                f"failed {attempts[index]} times on worker "
                                f"{worker.key}; giving up: "
                                f"{message.get('message')}"
                            )
                        telemetry.incr("shard_retries")
                        tracing.instant(
                            "executor.retry", cat="executor", shard=index
                        )
                        if progress is not None:
                            progress.note("retries")
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
                    telemetry.incr("worker_shards_completed")
                    if progress is not None:
                        progress.shard_done(result.telemetry)
        return had_retries

    def _check_timeouts(
        self, inflight, pending, attempts, telemetry, progress
    ) -> None:
        """Evict workers whose shard overran *shard_timeout*.

        A running shard cannot be cancelled, so its worker is evicted
        outright; the timeout charges the shard one attempt but never
        raises — a shard that times out everywhere ends in the serial
        fallback once the fleet is gone.
        """
        if self.shard_timeout is None:
            return
        now = time.monotonic()
        for index, worker_key in list(inflight.items()):
            worker = self._workers.get(worker_key)
            if worker is None or worker.deadline is None:
                continue
            if now < worker.deadline:
                continue
            telemetry.incr("shard_timeouts")
            tracing.instant(
                "executor.shard_timeout", cat="executor", shard=index
            )
            if progress is not None:
                progress.note("timeouts")
            attempts[index] += 1
            self._evict(worker, inflight, pending, telemetry, progress)

    def _serial_finish(
        self, pending, shards, plan, session, spec, done, telemetry, progress
    ) -> None:
        """Run every remaining shard in-process (the fleet is gone)."""
        telemetry.incr("serial_fallbacks")
        if progress is not None:
            progress.note("serial_fallbacks")
        with tracing.span(
            "executor.serial_fallback", cat="executor", shards=len(pending)
        ):
            fallback = self._serial_session(session, spec)
            for index in sorted(set(pending)):
                before = (
                    fallback.telemetry.snapshot()
                    if progress is not None else None
                )
                done[index] = execute_shard(fallback, plan, shards[index])
                if progress is not None:
                    progress.shard_done(fallback.telemetry.diff(before))
        pending.clear()

    def _serial_session(self, session, spec: SessionSpec):
        """The session serial-fallback shards run against.

        Prefers the engine's live session (records and telemetry then flow
        exactly like a :class:`SerialExecutor` run); a standalone executor
        builds one from the spec and keeps it for subsequent fallbacks.
        """
        if session is not None:
            return session
        if self._fallback_session is None:
            self._fallback_session = spec.build_session()
        return self._fallback_session

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
        if self._fallback_session is not None:
            if self._fallback_session.verdict_cache is not None:
                self._fallback_session.verdict_cache.flush()
            self._fallback_session = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# Shared fleets: one listener per address, however many engines use it
# ----------------------------------------------------------------------
_SHARED: Dict[str, ParallelExecutor] = {}
_SHARED_LOCK = threading.Lock()


def shared_remote_executor(workers_from: str, **kwargs) -> ParallelExecutor:
    """The process-wide ``workers_from`` coordinator for one listen address.

    A listen address binds once; every engine configured with the same
    address (the service runs one engine per benchmark/structure pair) gets
    the same executor, whose :meth:`~ParallelExecutor.execute` is internally
    serialized.  Engine ``close()`` calls are no-ops on shared instances;
    :func:`shutdown_shared_executors` — wired into ``repro.api.shutdown``
    and ``atexit`` — releases the fleets.
    """
    with _SHARED_LOCK:
        executor = _SHARED.get(workers_from)
        if executor is None or executor._closed:
            executor = ParallelExecutor(workers_from=workers_from, **kwargs)
            executor._shared = True
            _SHARED[workers_from] = executor
        return executor


def breaker_states() -> Dict[str, Dict[str, Any]]:
    """Breaker snapshot per live shared fleet (``/v1/healthz`` reads this)."""
    with _SHARED_LOCK:
        return {
            address: executor.breaker.snapshot()
            for address, executor in _SHARED.items()
            if not executor._closed
        }


def shutdown_shared_executors() -> None:
    """Tear down every shared fleet (workers get a shutdown message)."""
    with _SHARED_LOCK:
        executors = list(_SHARED.values())
        _SHARED.clear()
    for executor in executors:
        executor.shutdown()


atexit.register(shutdown_shared_executors)
