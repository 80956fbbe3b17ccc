"""Job model and shared worker pool for the campaign service.

A *job* is one analysis question — ``analyze`` (one structure, one workload,
the full delay sweep), ``sweep`` (a structure x workload cross-product),
``savf`` (the particle-strike baseline), or ``genwork`` (coverage-directed
generated-workload proposal) — described entirely by a JSON spec.
Jobs are identified by the SHA-256 of their canonical spec (priority
excluded), so two clients asking the identical question submit the *same*
job: the second submission deduplicates onto the first — onto its in-flight
run if it is still executing, onto its stored result if it already finished —
and never simulates anything twice.

Execution happens on a bounded pool of worker threads inside the service
process.  Workers share the :mod:`repro.api` engine cache (engines keyed by
program content signature, ``ecc`` and config), so concurrent jobs over
one workload share the golden run, the warm waveform/GroupACE caches, and
the persistent verdict store.  The engines of one ``ecc`` share one system
(:func:`repro.api.system_for`), whose simulators are not safe for
overlapping campaigns, so the manager serializes runs per system, not per
engine: a job holds its system's run lock while it builds its engines and
runs, and a sweep or genwork job needs just that one lock.

Results are exactly what the :mod:`repro.api` facade returns — the job
runner drives the same engine entry points with the same arguments — so a
job's enveloped result payload is byte-identical to the same query run
through :func:`repro.api.analyze` directly.
"""

from __future__ import annotations

import hashlib
import json
import queue
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import api
from repro.core.campaign import CampaignConfig
from repro.core.progress import ProgressReporter
from repro.core.results import envelope
from repro.core.savf import SAVFEngine
from repro.core.telemetry import CampaignTelemetry
from repro.errors import (
    InputError,
    ServiceDrainingError,
    ServiceOverloadedError,
    UnknownJobError,
    error_payload,
)
from repro.service.journal import JobJournal
from repro.soc.core import STRUCTURE_SCOPES
from repro.testing import chaos
from repro.workloads.generator import GeneratorKnobs
from repro.workloads.registry import canonical_workload_name

JOB_KINDS = ("analyze", "sweep", "savf", "genwork")

#: Job lifecycle states (the status endpoint reports these verbatim).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


def _require(condition: bool, message: str, hint: Optional[str] = None) -> None:
    if not condition:
        raise InputError(message, hint=hint)


def _valid_structure(name: Any) -> str:
    _require(
        isinstance(name, str) and name in STRUCTURE_SCOPES,
        f"unknown structure {name!r}",
        hint="known structures: " + ", ".join(sorted(STRUCTURE_SCOPES)),
    )
    return name


def _valid_benchmark(name: Any) -> str:
    _require(isinstance(name, str), f"benchmark must be a string, got {name!r}")
    # Accepts bundled benchmark names and gen:<seed>[:knobs] specs; generated
    # specs canonicalize (default knobs dropped), so equivalent spellings
    # produce the same canonical form — and hence the same job id.
    return canonical_workload_name(name)


@dataclass(frozen=True)
class JobSpec:
    """One validated, content-addressed job description.

    Everything except ``priority`` participates in the job's identity:
    priority decides *when* a job runs, never *what* it computes, so two
    submissions differing only in priority are the same job (the higher
    priority wins — see :meth:`JobManager.submit`).
    """

    kind: str
    structures: Tuple[str, ...]
    benchmarks: Tuple[str, ...]
    config: CampaignConfig
    ecc: bool = False
    bits: int = 24  #: savf only: state bits sampled per cycle
    seed: int = 0  #: savf: bit-sample seed / genwork: first candidate seed
    target_half_width: Optional[float] = None  #: analyze only: adaptive CI
    confidence: float = 0.95
    priority: int = 0
    count: int = 10  #: genwork only: workloads to select
    pool: Optional[int] = None  #: genwork only: candidate pool size
    knobs: Optional[str] = None  #: genwork only: generator knob overrides

    @classmethod
    def from_payload(cls, payload: Any) -> "JobSpec":
        """Validate a wire-format job submission into a spec.

        Every failure raises :class:`repro.errors.InputError` (HTTP 400 via
        the taxonomy) with a hint naming the acceptable values.
        """
        _require(isinstance(payload, dict), "job spec must be a JSON object")
        kind = payload.get("kind")
        _require(
            kind in JOB_KINDS,
            f"unknown job kind {kind!r}",
            hint="known kinds: " + ", ".join(JOB_KINDS),
        )
        known_keys = {
            "kind", "structure", "structures", "benchmark", "benchmarks",
            "config", "ecc", "bits", "seed", "target_half_width",
            "confidence", "priority", "count", "pool", "knobs",
        }
        unknown = sorted(set(payload) - known_keys)
        _require(
            not unknown,
            f"unknown job field(s): {', '.join(unknown)}",
            hint="known fields: " + ", ".join(sorted(known_keys)),
        )
        for name in ("count", "pool", "knobs"):
            _require(
                kind == "genwork" or name not in payload,
                f"{name!r} only applies to genwork jobs",
            )
        if kind == "genwork":
            # Generation jobs name a target structure and *produce*
            # workloads, so they carry no benchmarks of their own.
            _require(
                "structure" in payload,
                "genwork jobs need a 'structure' (the coverage target)",
            )
            _require(
                "benchmark" not in payload and "benchmarks" not in payload,
                "genwork jobs take no benchmarks (they generate them)",
            )
            structures = [payload["structure"]]
            benchmarks = []
        elif kind == "sweep":
            structures = payload.get("structures")
            benchmarks = payload.get("benchmarks")
            _require(
                isinstance(structures, list) and structures,
                "sweep jobs need a non-empty 'structures' list",
            )
            _require(
                isinstance(benchmarks, list) and benchmarks,
                "sweep jobs need a non-empty 'benchmarks' list",
            )
        else:
            _require(
                "structure" in payload,
                f"{kind} jobs need a 'structure'",
            )
            _require(
                "benchmark" in payload,
                f"{kind} jobs need a 'benchmark'",
            )
            structures = [payload["structure"]]
            benchmarks = [payload["benchmark"]]
        structures = tuple(_valid_structure(s) for s in structures)
        benchmarks = tuple(_valid_benchmark(b) for b in benchmarks)
        config = CampaignConfig.from_payload(payload.get("config") or {})
        target = payload.get("target_half_width")
        if target is not None:
            _require(
                isinstance(target, (int, float)) and target > 0,
                "target_half_width must be a positive number",
            )
            _require(
                kind == "analyze",
                "target_half_width only applies to analyze jobs",
            )
        confidence = payload.get("confidence", 0.95)
        _require(
            isinstance(confidence, (int, float)) and 0.0 < confidence < 1.0,
            "confidence must be in (0, 1)",
        )
        bits = payload.get("bits", 24)
        seed = payload.get("seed", 0)
        priority = payload.get("priority", 0)
        count = payload.get("count", 10)
        for name, value in (
            ("bits", bits), ("seed", seed), ("priority", priority),
            ("count", count),
        ):
            _require(
                isinstance(value, int) and not isinstance(value, bool),
                f"{name} must be an integer",
            )
        _require(bits >= 1, "bits must be >= 1")
        _require(count >= 1, "count must be >= 1")
        pool = payload.get("pool")
        if pool is not None:
            _require(
                isinstance(pool, int) and not isinstance(pool, bool)
                and pool >= count,
                f"pool must be an integer >= count ({count})",
            )
        knobs = payload.get("knobs")
        if knobs is not None:
            _require(isinstance(knobs, str), "knobs must be a string")
            try:
                knobs = GeneratorKnobs.from_spec(knobs).to_spec()
            except ValueError as exc:
                raise InputError(
                    f"invalid generator knobs: {exc}",
                    hint="knobs look like pattern=chase,blocks=3; see "
                    "repro.workloads.generator.GeneratorKnobs",
                ) from None
            knobs = knobs or None  # all-defaults canonicalizes to absent
        return cls(
            kind=kind,
            structures=structures,
            benchmarks=benchmarks,
            config=config,
            ecc=bool(payload.get("ecc", False)),
            bits=bits,
            seed=seed,
            target_half_width=None if target is None else float(target),
            confidence=float(confidence),
            priority=priority,
            count=count,
            pool=pool,
            knobs=knobs,
        )

    @classmethod
    def from_canonical(
        cls, payload: Dict[str, Any], priority: int = 0
    ) -> "JobSpec":
        """Rebuild a spec from its own :meth:`canonical` form (journal replay).

        The canonical form always uses the plural ``structures`` /
        ``benchmarks`` keys (:meth:`from_payload` only accepts those for
        sweeps), so replay needs this direct constructor.  Validation still
        runs — a journal written against a different structure/benchmark
        registry fails here, and recovery skips the job instead of crashing.
        """
        target = payload.get("target_half_width")
        return cls(
            kind=payload["kind"],
            structures=tuple(
                _valid_structure(s) for s in payload["structures"]
            ),
            benchmarks=tuple(
                _valid_benchmark(b) for b in payload["benchmarks"]
            ),
            config=CampaignConfig.from_payload(payload.get("config") or {}),
            ecc=bool(payload.get("ecc", False)),
            bits=int(payload.get("bits", 24)),
            seed=int(payload.get("seed", 0)),
            target_half_width=None if target is None else float(target),
            confidence=float(payload.get("confidence", 0.95)),
            priority=int(priority),
            count=int(payload.get("count", 10)),
            pool=(
                None if payload.get("pool") is None
                else int(payload["pool"])
            ),
            knobs=(
                None if payload.get("knobs") is None
                else str(payload["knobs"])
            ),
        )

    def canonical(self) -> Dict[str, Any]:
        """The identity-bearing wire form (priority excluded by design)."""
        payload = {
            "kind": self.kind,
            "structures": list(self.structures),
            "benchmarks": list(self.benchmarks),
            "config": self.config.to_payload(),
            "ecc": self.ecc,
            "bits": self.bits,
            "seed": self.seed,
            "target_half_width": self.target_half_width,
            "confidence": self.confidence,
        }
        if self.kind == "genwork":
            # Generation-only fields enter the identity only for genwork
            # jobs, so pre-existing analyze/sweep/savf job ids (and any
            # journals recording them) are unchanged by the new kind.
            payload["count"] = self.count
            payload["pool"] = self.pool
            payload["knobs"] = self.knobs
        return payload

    @property
    def job_id(self) -> str:
        """Content address: identical questions collapse onto one job."""
        digest = hashlib.sha256(
            json.dumps(self.canonical(), sort_keys=True).encode("utf-8")
        ).hexdigest()
        return f"job-{digest[:20]}"

    @property
    def label(self) -> str:
        benchmarks = "+".join(self.benchmarks) or f"gen[{self.count}]"
        return f"{benchmarks}/{'+'.join(self.structures)}:{self.kind}"


class Job:
    """One submitted job's mutable lifecycle state.

    Guarded by the owning :class:`JobManager`'s lock for state transitions;
    the progress reporter has its own internal lock, so status polls never
    block a running campaign.
    """

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.id = spec.job_id
        self.state = QUEUED
        self.priority = spec.priority
        self.submissions = 1  #: total submissions collapsed onto this job
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[Dict[str, Any]] = None
        self.telemetry: Optional[Dict[str, Dict]] = None
        self.reporter = ProgressReporter(enabled=False, label=spec.label)
        self.submitted_at = time.time()
        self.finished_at: Optional[float] = None
        self._done = threading.Event()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)

    def finish(self, result: Optional[Dict], error: Optional[Dict]) -> None:
        self.result = result
        self.error = error
        self.state = DONE if error is None else FAILED
        self.finished_at = time.time()
        self._done.set()

    def status_payload(self) -> Dict[str, Any]:
        """The enveloped status document (``GET /v1/jobs/<id>``)."""
        body: Dict[str, Any] = {
            "id": self.id,
            "kind": self.spec.kind,
            "label": self.spec.label,
            "state": self.state,
            "priority": self.priority,
            "submissions": self.submissions,
            "submitted_unix": self.submitted_at,
            "progress": self.reporter.snapshot(),
            "telemetry": self.telemetry,
            "error": self.error,
        }
        if self.finished_at is not None:
            body["finished_unix"] = self.finished_at
        return envelope("job", body)


class JobManager:
    """Priority queue + bounded worker pool over the shared engine cache.

    Call :meth:`start` to spin up the workers (separate from construction so
    tests can submit deterministically before anything runs), :meth:`submit`
    to enqueue, :meth:`drain` to stop accepting work and finish what is
    queued.  All public methods are thread-safe.
    """

    def __init__(
        self,
        workers: int = 2,
        cache_dir: Optional[str] = None,
        workers_from: Optional[str] = None,
        journal: Optional[JobJournal] = None,
        max_queued: Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queued is not None and max_queued < 1:
            raise ValueError("max_queued must be >= 1 (or None for unbounded)")
        self.workers = int(workers)
        self.cache_dir = cache_dir
        #: default remote-worker fleet listen address (``HOST:PORT``)
        #: applied to jobs whose config does not set one; the engines those
        #: jobs build then run their shards on the shared fleet through
        #: :class:`repro.core.executor.ParallelExecutor`, each job under its
        #: own config's fault policy.
        self.workers_from = workers_from
        #: write-ahead journal making restarts lossless (None = ephemeral)
        self.journal = journal
        #: bound on not-yet-finished jobs; beyond it, *new* submissions are
        #: rejected with :class:`ServiceOverloadedError` (HTTP 429) — dedupe
        #: hits are always admitted, they cost nothing
        self.max_queued = max_queued
        self.telemetry = CampaignTelemetry()
        self.draining = False
        self._jobs: Dict[str, Job] = {}
        self._queue: "queue.PriorityQueue[Tuple[int, int, str]]" = (
            queue.PriorityQueue()
        )
        self._lock = threading.Lock()
        self._seq = 0
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        #: serializes campaign runs per system (its engines share its
        #: simulators); keyed by system identity
        self._run_locks: Dict[int, threading.Lock] = {}

    # ------------------------------------------------------------------
    # Submission / lookup
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Tuple[Job, bool]:
        """Enqueue *spec*; returns ``(job, deduplicated)``.

        An identical spec already known — queued, running, or finished —
        deduplicates onto the existing job instead of enqueueing a second
        run (a finished job's stored result is simply served again).  A
        duplicate submission with a higher priority raises the queued job's
        priority for its *next* dequeue.  Raises
        :class:`repro.errors.ServiceDrainingError` once :meth:`drain` has
        begun.
        """
        with self._lock:
            if self.draining:
                raise ServiceDrainingError(
                    "service is draining and no longer accepts jobs",
                    hint="retry against another instance, or wait for restart",
                )
            existing = self._jobs.get(spec.job_id)
            if existing is not None:
                existing.submissions += 1
                if spec.priority > existing.priority:
                    existing.priority = spec.priority
                    if existing.state == QUEUED:
                        # Re-push at the new priority so escalation actually
                        # changes dequeue order; the stale lower-priority
                        # entry is harmless (_run_job no-ops on non-QUEUED).
                        self._seq += 1
                        self._queue.put(
                            (-existing.priority, self._seq, existing.id)
                        )
                self.telemetry.incr("jobs_submitted")
                self.telemetry.incr("jobs_deduplicated")
                return existing, True
            backlog = sum(
                1 for j in self._jobs.values() if j.state in (QUEUED, RUNNING)
            )
            if self.max_queued is not None and backlog >= self.max_queued:
                self.telemetry.incr("jobs_rejected_overloaded")
                retry_after = max(1.0, min(30.0, 0.5 * backlog))
                raise ServiceOverloadedError(
                    f"job queue is full ({backlog} jobs pending, "
                    f"limit {self.max_queued})",
                    hint="retry after the Retry-After interval, or raise "
                    "--max-queued",
                    retry_after=retry_after,
                )
            job = Job(spec)
            self._jobs[job.id] = job
            self._seq += 1
            # PriorityQueue pops the smallest tuple: higher priority first,
            # then submission order.
            self._queue.put((-job.priority, self._seq, job.id))
            self.telemetry.incr("jobs_submitted")
            if self.journal is not None:
                self.journal.record_submitted(
                    job.id, spec.canonical(), spec.priority
                )
            return job, False

    def recover(self) -> Dict[str, int]:
        """Replay the journal into live jobs; call before :meth:`start`.

        Three outcomes per journaled job, mirroring the journal's promise
        semantics:

        - ``finished`` with a digest-verified stored result (or an inline
          error): rebuilt as a terminal job served straight from the store —
          zero re-simulation (``jobs_recovered``).
        - ``submitted``/``started`` without ``finished`` (the crash window),
          or a finished job whose stored result fails its digest: re-built
          as QUEUED and re-enqueued (``jobs_requeued``).
        - A spec that no longer validates, or whose recomputed content
          address disagrees with the journaled id (a foreign or tampered
          journal): skipped with a stderr warning — recovery must never
          crash the daemon.

        Returns the counts: ``{"recovered", "requeued", "skipped",
        "torn_tails"}``.
        """
        counts = {"recovered": 0, "requeued": 0, "skipped": 0, "torn_tails": 0}
        if self.journal is None:
            return counts
        events = self.journal.replay()
        counts["torn_tails"] = self.journal.torn_tails
        if self.journal.torn_tails:
            self.telemetry.incr(
                "journal_torn_tails", self.journal.torn_tails
            )
        # Fold events into per-job latest state, preserving submission order.
        order: List[str] = []
        submitted: Dict[str, Dict[str, Any]] = {}
        finished: Dict[str, Dict[str, Any]] = {}
        for event in events:
            job_id = event.get("job_id")
            kind = event.get("event")
            if not isinstance(job_id, str):
                continue
            if kind == "submitted":
                if job_id not in submitted:
                    order.append(job_id)
                    submitted[job_id] = event
                else:
                    prev = submitted[job_id]
                    prev["priority"] = max(
                        prev.get("priority", 0), event.get("priority", 0)
                    )
            elif kind == "finished":
                finished[job_id] = event
        with self._lock:
            for job_id in order:
                if job_id in self._jobs:
                    continue  # live submission already owns this identity
                event = submitted[job_id]
                try:
                    spec = JobSpec.from_canonical(
                        event.get("spec") or {},
                        priority=int(event.get("priority", 0)),
                    )
                except Exception as exc:  # noqa: BLE001 - skip, never crash
                    counts["skipped"] += 1
                    print(
                        f"repro: journal replay skipping {job_id}: "
                        f"spec no longer validates ({exc})",
                        file=sys.stderr,
                    )
                    continue
                if spec.job_id != job_id:
                    counts["skipped"] += 1
                    print(
                        f"repro: journal replay skipping {job_id}: content "
                        f"address mismatch (journal names {job_id}, spec "
                        f"hashes to {spec.job_id})",
                        file=sys.stderr,
                    )
                    continue
                job = Job(spec)
                job.submitted_at = float(event.get("ts", job.submitted_at))
                terminal = finished.get(job_id)
                if terminal is not None:
                    restored = self._restore_terminal(job, terminal)
                    if restored:
                        self._jobs[job.id] = job
                        counts["recovered"] += 1
                        self.telemetry.incr("jobs_recovered")
                        continue
                self._jobs[job.id] = job
                self._seq += 1
                self._queue.put((-job.priority, self._seq, job.id))
                counts["requeued"] += 1
                self.telemetry.incr("jobs_requeued")
        return counts

    def _restore_terminal(self, job: Job, event: Dict[str, Any]) -> bool:
        """Rebuild a finished job from its journal event; False = re-run."""
        telemetry = event.get("telemetry")
        if isinstance(telemetry, dict):
            job.telemetry = telemetry
        error = event.get("error")
        if error is not None:
            job.finish(None, dict(error))
            job.finished_at = float(event.get("ts", job.finished_at or 0.0))
            return True
        digest = event.get("result_sha256")
        if not isinstance(digest, str):
            return False
        result = self.journal.load_result(job.id, digest)
        if result is None:
            return False
        job.finish(result, None)
        job.finished_at = float(event.get("ts", job.finished_at or 0.0))
        return True

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(
                f"unknown job {job_id!r}",
                hint="job ids are returned by POST /v1/jobs",
            )
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spin up the worker threads (idempotent)."""
        if self._threads:
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-job-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                _, _, job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            try:
                self._run_job(self.get(job_id))
            finally:
                self._queue.task_done()

    def _run_lock(self, ecc: bool) -> threading.Lock:
        """The run lock of the shared system the *ecc* engines run on."""
        system = api.system_for(ecc=ecc)
        with self._lock:
            return self._run_locks.setdefault(id(system), threading.Lock())

    def _job_config(self, spec: JobSpec) -> CampaignConfig:
        """The spec's config with service-level defaults folded in (the
        shared cache dir, and the remote-worker fleet when one is mounted)."""
        import dataclasses

        config = spec.config
        if config.cache_dir is None and self.cache_dir is not None:
            config = dataclasses.replace(config, cache_dir=self.cache_dir)
        if config.workers_from is None and self.workers_from is not None:
            config = dataclasses.replace(
                config, workers_from=self.workers_from
            )
        return config

    def _run_job(self, job: Job) -> None:
        with self._lock:
            if job.state != QUEUED:
                return  # already handled (defensive; dedupe never re-queues)
            job.state = RUNNING
        if self.journal is not None:
            self.journal.record_started(job.id)
        # Chaos hook: a `kill` action here is a daemon SIGKILL mid-job —
        # the crash the journal's submitted-without-finished replay covers.
        chaos.fire("service.job")
        try:
            result = self._execute(job)
        except BaseException as exc:  # noqa: BLE001 - every failure is reported
            self.telemetry.incr("jobs_failed")
            error = error_payload(exc)
            if self.journal is not None:
                self.journal.record_finished(
                    job.id, error=error, telemetry=job.telemetry
                )
            job.finish(None, error)
        else:
            self.telemetry.incr("jobs_completed")
            if self.journal is not None:
                self.journal.record_finished(
                    job.id, result=result, telemetry=job.telemetry
                )
            job.finish(result, None)

    # ------------------------------------------------------------------
    # Execution — mirrors the repro.api facade exactly, so a job's result
    # payload is byte-identical to the same query through api.analyze.
    # ------------------------------------------------------------------
    def _execute(self, job: Job) -> Dict[str, Any]:
        spec = job.spec
        config = self._job_config(spec)
        if spec.kind == "sweep":
            return self._execute_sweep(job, config)
        if spec.kind == "genwork":
            return self._execute_genwork(job, config)
        with self._run_lock(spec.ecc):
            engine = api.engine_for(
                spec.benchmarks[0], ecc=spec.ecc, config=config
            )
            before = engine.telemetry.snapshot()
            if spec.kind == "savf":
                result = SAVFEngine(engine.session).run_structure(
                    spec.structures[0],
                    max_bits=spec.bits,
                    seed=spec.seed,
                    progress=job.reporter,
                )
                job.telemetry = engine.telemetry.diff(before)
                return result.to_payload()
            if spec.target_half_width is not None:
                result = engine.run_structure_adaptive(
                    spec.structures[0],
                    spec.target_half_width,
                    confidence=spec.confidence,
                    reporter=job.reporter,
                )
            else:
                result = engine.run_structure(
                    spec.structures[0], reporter=job.reporter
                )
            if result.telemetry is not None:
                job.telemetry = result.telemetry.snapshot()
            return result.to_payload()

    def _execute_genwork(
        self, job: Job, config: CampaignConfig
    ) -> Dict[str, Any]:
        """Coverage-directed generation under the run lock of its system,
        which all its candidates' probe engines share."""
        import dataclasses

        spec = job.spec
        knobs = (
            GeneratorKnobs.from_spec(spec.knobs)
            if spec.knobs is not None else None
        )
        if spec.config == CampaignConfig():
            # No explicit config: probe candidates with the facade's light
            # single-delay shape rather than a full default campaign each,
            # keeping the service-level cache/fleet defaults.
            config = dataclasses.replace(
                api._GENWORK_PROBE,
                cache_dir=config.cache_dir,
                workers_from=config.workers_from,
            )
        with self._run_lock(spec.ecc):
            selection = api.generate_workloads(
                spec.count,
                target_structure=spec.structures[0],
                pool=spec.pool,
                base_seed=spec.seed,
                knobs=knobs,
                config=config,
                ecc=spec.ecc,
            )
        return envelope("genwork", selection.to_payload())

    def _execute_sweep(self, job: Job, config: CampaignConfig) -> Dict[str, Any]:
        """Cross-product job: its engines share one system, so one run
        lock covers them."""
        with self._run_lock(job.spec.ecc):
            engines = [
                api.engine_for(benchmark, ecc=job.spec.ecc, config=config)
                for benchmark in job.spec.benchmarks
            ]
            before = {id(e): e.telemetry.snapshot() for e in engines}
            results = api.sweep(
                list(job.spec.structures),
                list(job.spec.benchmarks),
                config=config,
                ecc=job.spec.ecc,
            )
        merged = CampaignTelemetry()
        for engine in {id(e): e for e in engines}.values():
            merged.merge_snapshot(engine.telemetry.diff(before[id(engine)]))
        job.telemetry = merged.snapshot()
        return envelope(
            "sweep",
            {
                "results": [
                    {
                        "structure": structure,
                        "benchmark": benchmark,
                        "result": result.to_payload(),
                    }
                    for (structure, benchmark), result in sorted(results.items())
                ]
            },
        )

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting jobs, finish the queued/running ones, shut down.

        Returns ``True`` when every accepted job reached a terminal state
        within *timeout* (``None`` waits indefinitely).  Engines are closed
        through :func:`repro.api.shutdown` — worker pools stop, verdict
        caches flush — exactly the existing graceful path.
        """
        with self._lock:
            self.draining = True
        deadline = None if timeout is None else time.monotonic() + timeout
        clean = True
        for job in self.jobs():
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if not job.wait(remaining):
                clean = False
                break
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []
        api.shutdown()
        if self.journal is not None:
            self.journal.close()
        return clean
