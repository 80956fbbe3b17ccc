"""Statistical fault-injection campaign engine.

:class:`CampaignSession` owns the expensive per-(system, workload) artefacts
shared across structures and delay sweeps:

- the golden run with per-cycle state fingerprints and checkpoints at the
  sampled injection cycles,
- the fault-free event-driven waveforms of each sampled cycle (computed once
  and reused by every wire and delay examined there),
- the GroupACE and ORACE analyzers with their cross-injection caches (and,
  when configured, a persistent on-disk verdict cache),
- the shared :class:`repro.core.telemetry.CampaignTelemetry` instance.

:class:`DelayAVFEngine` runs structure campaigns on top of a session in three
explicit layers: *planning* (:mod:`repro.core.plan` expands the campaign into
per-cycle work shards), *execution* (:mod:`repro.core.executor` runs shards
serially or on worker processes), and *merging* (deterministic assembly into a
:class:`repro.core.results.StructureCampaignResult`).
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import tracing
from repro.core.cache import (
    observables_digest,
    program_signature,
    record_from_payload,
    record_key,
    record_to_payload,
    shard_key,
)
from repro.core.delay_model import DEFAULT_DELAY_FRACTIONS
from repro.core.delayavf import DelayAceEvaluator
from repro.core.dynamic_reach import DynamicReachability
from repro.core.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    SessionSpec,
    ShardResult,
    evaluate_prepared_shards,
    merge_shard_results,
    open_configured_cache,
    plan_queries,
    prepare_plan_shards,
    shared_remote_executor,
)
from repro.core.group_ace import GroupAceAnalyzer, prefetch_spanning_multi
from repro.core.guards import apply_guards, ensure_preflight, preflight_campaign
from repro.core.metrics import heartbeat_path, write_metrics
from repro.core.orace import OraceAnalyzer
from repro.core.progress import Heartbeat, ProgressReporter
from repro.core.plan import build_plan, build_refinement_plan
from repro.core.results import DelayAVFResult, StructureCampaignResult
from repro.core.sampling import (
    extend_cycle_sample,
    extend_index_sample,
    sample_cycles,
)
from repro.core.static_reach import StaticReachability
from repro.core.stats import (
    DEFAULT_CONFIDENCE,
    ConfidenceInterval,
    required_samples,
)
from repro.core.telemetry import CampaignTelemetry
from repro.isa.assembler import Program
from repro.sim.cyclesim import Checkpoint, RunResult
from repro.sim.eventsim import CycleWaveforms
from repro.sim.packed import MAX_LANES, PackedCycleSimulator
from repro.workloads.lengths import LengthStore, known_length


@dataclass(frozen=True)
class CampaignConfig:
    """Every knob of a statistical campaign, validated at construction.

    The paper's configuration corresponds to ``cycle_fraction=0.04`` and
    ``max_wires=None`` (all wires); the defaults here are laptop-sized.
    This is the one place campaign knobs live: sampling (wires, cycles,
    seed), the delay sweep, execution (``jobs``), persistence
    (``cache_dir``), and reporting (``stats``).  Build it directly, or from
    a parsed CLI namespace via :meth:`from_cli_args`.
    """

    delay_fractions: Tuple[float, ...] = DEFAULT_DELAY_FRACTIONS
    cycle_count: Optional[int] = 10  #: number of equally spaced cycles
    cycle_fraction: Optional[float] = None  #: alternative: fraction of cycles
    max_wires: Optional[int] = 48  #: wires sampled per structure (None = all)
    seed: int = 0
    warmup_cycles: int = 2
    margin_cycles: int = 3000  #: extra cycles before declaring a hang (DUE)
    max_run_cycles: int = 200_000
    compute_orace: bool = True
    #: lane width of every packed simulation layer — GroupACE bit-plane
    #: batches and the event simulator's word-packed cone passes (1 disables
    #: packing; 64 is a full machine word)
    lanes: int = 64
    #: REMOVED alias of ``lanes`` (the deprecation cycle is finished): any
    #: non-None value raises ``ValueError`` pointing at ``lanes``
    batch_lanes: Optional[int] = None
    #: local worker processes per structure campaign (>1 selects
    #: ParallelExecutor; requires the engine to be built from a SessionSpec)
    jobs: int = 1
    #: directory for the persistent verdict cache ('' / None disables it)
    cache_dir: Optional[str] = None
    #: collect-and-report campaign telemetry (CLI ``--stats``)
    stats: bool = False
    #: seconds a dispatched shard may run before its worker is presumed hung
    #: and evicted (None disables the timeout); budget for a cold worker's
    #: golden run plus the slowest shard
    shard_timeout: Optional[float] = None
    #: additional attempts granted to a shard whose worker raised
    max_retries: int = 2
    #: base of the exponential retry backoff, in seconds
    retry_backoff: float = 0.05
    #: completed shards between incremental verdict-cache flushes (1 flushes
    #: after every shard)
    flush_every_shards: int = 8
    #: seconds after which a pending incremental flush happens regardless
    flush_max_seconds: float = 10.0
    #: skip shards already marked complete in the verdict cache
    #: (CLI ``--resume``; requires ``cache_dir``)
    resume: bool = False
    #: validate system / workload / cache inputs before any shard executes
    #: (raises :class:`repro.errors.ReproError` on fatal problems)
    preflight: bool = True
    #: run the post-merge invariant guards (:mod:`repro.core.guards`) and
    #: flag violating results ``suspect``
    guards: bool = True
    #: refinement rounds an adaptive campaign may run after the initial wave
    refine_max_rounds: int = 8
    #: maximum per-round sample growth factor of an adaptive campaign
    refine_growth: float = 2.0
    #: collect span-based tracing (CLI ``--trace PATH`` sets this; workers
    #: inherit it through the SessionSpec so their spans travel back with
    #: shard results)
    trace: bool = False
    #: stream live shard progress to stderr (CLI ``--progress``)
    progress: bool = False
    #: write a Prometheus-textfile / JSON metrics snapshot here when the
    #: campaign finishes, and a throttled ``<path>.heartbeat`` JSON while it
    #: runs (CLI ``--metrics-out PATH``)
    metrics_out: Optional[str] = None
    #: minimum seconds between heartbeat-file rewrites
    heartbeat_seconds: float = 2.0
    #: distributed execution: the listen address remote ``repro worker``
    #: processes join — ``HOST:PORT`` (socket transport) or ``queue:DIR``
    #: (shared-filesystem queue); None keeps every shard on this host
    workers_from: Optional[str] = None
    #: seconds a ``workers_from`` coordinator waits for (more) workers once
    #: the fleet is empty before the remaining shards fall back to serial
    worker_wait_seconds: float = 30.0
    #: consecutive worker evictions (deaths, timeouts, corrupt frames) that
    #: trip the fleet circuit breaker into serial fallback
    breaker_threshold: int = 3
    #: cool-down seconds before a tripped breaker admits a half-open probe
    breaker_reset_seconds: float = 60.0

    def __post_init__(self):
        if not self.delay_fractions:
            raise ValueError("delay_fractions must not be empty")
        bad = [d for d in self.delay_fractions if not 0.0 < d <= 1.0]
        if bad:
            raise ValueError(
                f"delay fractions must be in (0, 1]: {sorted(bad)}"
            )
        if self.cycle_count is None and self.cycle_fraction is None:
            raise ValueError("one of cycle_count / cycle_fraction is required")
        if self.cycle_count is not None and self.cycle_count < 1:
            raise ValueError("cycle_count must be >= 1")
        if self.cycle_fraction is not None and not 0.0 < self.cycle_fraction <= 1.0:
            raise ValueError("cycle_fraction must be in (0, 1]")
        if self.max_wires is not None and self.max_wires < 1:
            raise ValueError("max_wires must be >= 1 (or None for all wires)")
        if self.warmup_cycles < 0 or self.margin_cycles < 0:
            raise ValueError("warmup_cycles / margin_cycles must be >= 0")
        if self.max_run_cycles < 1:
            raise ValueError("max_run_cycles must be >= 1")
        if not 1 <= self.lanes <= 64:
            raise ValueError(
                f"lanes must be in 1..64 (bit-planes of one machine word), "
                f"got {self.lanes}"
            )
        if self.batch_lanes is not None:
            raise ValueError(
                "batch_lanes was removed; pass lanes="
                f"{self.batch_lanes!r} instead"
            )
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be > 0 seconds (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.flush_every_shards < 1:
            raise ValueError("flush_every_shards must be >= 1")
        if self.flush_max_seconds < 0:
            raise ValueError("flush_max_seconds must be >= 0")
        if self.refine_max_rounds < 1:
            raise ValueError("refine_max_rounds must be >= 1")
        if self.refine_growth <= 1.0:
            raise ValueError("refine_growth must be > 1.0")
        if self.heartbeat_seconds <= 0:
            raise ValueError("heartbeat_seconds must be > 0")
        if self.workers_from is not None:
            from repro.distrib.transport import parse_workers_from

            parse_workers_from(self.workers_from)  # raises ValueError
        if self.worker_wait_seconds < 0:
            raise ValueError("worker_wait_seconds must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_reset_seconds < 0:
            raise ValueError("breaker_reset_seconds must be >= 0")

    @property
    def lane_width(self) -> int:
        """Effective packed-lane width (``lanes``; the ``batch_lanes`` alias
        is gone)."""
        return self.lanes

    @classmethod
    def from_cli_args(cls, args) -> "CampaignConfig":
        """Build a validated config from a parsed CLI namespace.

        Accepts any object exposing (a subset of) the ``delayavf``
        subcommand's attributes — ``delays``, ``cycles``, ``wires``,
        ``seed``, ``jobs``, ``cache_dir``, ``stats``, ``shard_timeout``,
        ``max_retries``, ``resume`` — falling back to the dataclass defaults
        for whatever is absent.
        """
        defaults = cls()

        def pick(name, fallback):
            value = getattr(args, name, None)
            return fallback if value is None else value

        return cls(
            delay_fractions=tuple(pick("delays", defaults.delay_fractions)),
            cycle_count=pick("cycles", defaults.cycle_count),
            max_wires=pick("wires", defaults.max_wires),
            seed=pick("seed", defaults.seed),
            lanes=pick("lanes", defaults.lanes),
            jobs=pick("jobs", defaults.jobs),
            cache_dir=getattr(args, "cache_dir", None),
            stats=bool(getattr(args, "stats", False)),
            shard_timeout=pick("shard_timeout", defaults.shard_timeout),
            max_retries=pick("max_retries", defaults.max_retries),
            resume=bool(getattr(args, "resume", False)),
            trace=bool(getattr(args, "trace", None)),
            progress=bool(getattr(args, "progress", False)),
            metrics_out=getattr(args, "metrics_out", None),
            workers_from=getattr(args, "workers_from", None),
        )

    def neutral(self) -> "CampaignConfig":
        """This config with the per-call reporting channels stripped.

        ``progress`` / ``metrics_out`` / ``stats`` only decide where a run
        *reports*, never what it computes (``trace`` stays: workers inherit
        it through the :class:`SessionSpec`, so it is engine state).  Keying
        engine caches on the neutral form lets clients that differ only in
        reporting share one engine — the multi-tenant service depends on it.
        """
        return dataclasses.replace(
            self, progress=False, metrics_out=None, stats=False
        )

    # ------------------------------------------------------------------
    # Wire round-trip (job submissions carry configs as JSON)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """A JSON-serializable dict :meth:`from_payload` rebuilds exactly."""
        payload = dataclasses.asdict(self)
        payload["delay_fractions"] = list(self.delay_fractions)
        payload.pop("batch_lanes", None)  # removed alias: never on the wire
        return payload

    @classmethod
    def from_payload(cls, payload) -> "CampaignConfig":
        """Build a validated config from a JSON payload (service job specs).

        Unknown keys raise :class:`repro.errors.InputError` — a client
        sending a knob this build does not have must hear about it rather
        than silently run with defaults.
        """
        from repro.errors import InputError

        if not isinstance(payload, dict):
            raise InputError(
                f"config must be a JSON object, got {type(payload).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InputError(
                f"unknown config field(s): {', '.join(unknown)}",
                hint="known fields: " + ", ".join(sorted(known - {'batch_lanes'})),
            )
        kwargs = dict(payload)
        if "delay_fractions" in kwargs and kwargs["delay_fractions"] is not None:
            kwargs["delay_fractions"] = tuple(kwargs["delay_fractions"])
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise InputError(f"invalid campaign configuration: {exc}") from exc


class CampaignSession:
    """Shared golden-run state for one (system, program) pair.

    The golden state normally needs two full runs: a *probe* pass to learn
    the cycle count (the equally spaced injection cycles depend on it) and an
    instrumented pass recording fingerprints + checkpoints at those cycles.
    The probe is skipped whenever the workload's fault-free length is already
    known — from an earlier session on the same system object (in-process
    memo) or from a persistent verdict cache's workload metadata — and the
    instrumented run is then verified against the recorded observables
    instead of a fresh probe.  The remaining double-run case is the first
    cold session for a (system, program) pair, where the checkpoint positions
    genuinely cannot be known before a full run has measured the length.

    Everything is materialized lazily: constructing a session runs nothing.
    ``total_cycles``/``sampled_cycles`` resolve from the memo or cache
    metadata (falling back to the probe run), and the instrumented golden run
    plus the analyzers that need it appear on first use.  A campaign served
    entirely from the persistent record cache therefore never simulates at
    all — which is what makes warm worker processes cheap.
    """

    def __init__(
        self,
        system,
        program: Program,
        config: CampaignConfig,
        telemetry: Optional[CampaignTelemetry] = None,
        verdict_cache=None,
        _internal: bool = False,
        allow_legacy: bool = False,
    ):
        if not (_internal or allow_legacy):
            raise TypeError(
                "Constructing CampaignSession directly is no longer "
                "supported (the deprecation cycle ended): use the repro.api "
                "facade (repro.api.analyze / repro.api.sweep) or "
                "DelayAVFEngine, which manage the session for you, or pass "
                "allow_legacy=True to opt into the unsupported path."
            )
        self.system = system
        self.program = program
        self.config = config
        self.telemetry = telemetry if telemetry is not None else CampaignTelemetry()
        self.verdict_cache = verdict_cache
        if verdict_cache is not None:
            verdict_cache.attach_telemetry(self.telemetry)

        memo = getattr(system, "_workload_memo", None)
        if memo is None:
            memo = {}
            system._workload_memo = memo
        self._memo = memo
        self._psig = program_signature(program)
        self._lengths = (
            LengthStore(config.cache_dir) if config.cache_dir else None
        )
        self._total_cycles: Optional[int] = None
        self._sampled_cycles: Optional[List[int]] = None
        self._golden: Optional[RunResult] = None
        self._static: Optional[StaticReachability] = None
        self._dynamic: Optional[DynamicReachability] = None
        self._group_ace: Optional[GroupAceAnalyzer] = None
        self._orace: Optional[OraceAnalyzer] = None
        self._evaluator: Optional[DelayAceEvaluator] = None
        self._waveforms: Dict[int, CycleWaveforms] = {}

    # ------------------------------------------------------------------
    def _known_length(self):
        """``(cycles, observables, digest, source)`` known without running.

        Sources, most to least authoritative: the in-process memo
        (``"memo"``), a persistent verdict cache's workload metadata
        (``"cache"``), the cache directory's cross-scope length store
        (``"store"``, :class:`repro.workloads.lengths.LengthStore`), and
        the bundled measured-length table (``"hint"``,
        :mod:`repro.workloads.lengths`).  The first two are measured on
        this exact setup and treated as invariants; a store entry or hint
        is advisory and verified (with graceful fallback) by
        :attr:`golden`.
        """
        if self._psig in self._memo:
            cycles, observables = self._memo[self._psig]
            return cycles, observables, None, "memo"
        if self.verdict_cache is not None:
            meta = self.verdict_cache.workload_meta()
            if meta is not None and meta[0] <= self.config.max_run_cycles:
                return meta[0], None, meta[1], "cache"
        if self._lengths is not None:
            stored = self._lengths.get(self._psig)
            if stored is not None and stored[0] <= self.config.max_run_cycles:
                return stored[0], None, stored[1], "store"
        hint = known_length(self._psig)
        if hint is not None and hint <= self.config.max_run_cycles:
            return hint, None, None, "hint"
        return None, None, None, None

    def _record_workload(self, run: RunResult) -> None:
        self._memo[self._psig] = (run.cycles, run.observables)
        if self.verdict_cache is not None:
            self.verdict_cache.record_workload(run.cycles, run.observables)
        if self._lengths is not None:
            self._lengths.put(
                self._psig, run.cycles, observables_digest(run.observables)
            )

    def _halt_error(self) -> RuntimeError:
        return RuntimeError(
            f"workload {self.program.name!r} did not halt within "
            f"{self.config.max_run_cycles} cycles"
        )

    @property
    def total_cycles(self) -> int:
        if self._total_cycles is None:
            known, _, _, source = self._known_length()
            if known is None:
                # Pass 1 (cold only): plain probe run to learn the length.
                with self.telemetry.timer("golden"), tracing.span(
                    "session.probe_run", cat="session",
                    benchmark=self.program.name,
                ):
                    self.telemetry.incr("probe_runs")
                    probe = self.system.run_program(
                        self.program, max_cycles=self.config.max_run_cycles
                    )
                if not probe.halted:
                    raise self._halt_error()
                self._record_workload(probe)
                known = probe.cycles
            else:
                self.telemetry.incr("probe_skips")
                if source == "hint":
                    self.telemetry.incr("length_hint_hits")
                elif source == "store":
                    self.telemetry.incr("length_store_hits")
            self._total_cycles = known
        return self._total_cycles

    @property
    def sampled_cycles(self) -> List[int]:
        if self._sampled_cycles is None:
            self._sampled_cycles = sample_cycles(
                self.total_cycles,
                count=self.config.cycle_count,
                fraction=self.config.cycle_fraction,
                warmup=self.config.warmup_cycles,
            )
        return self._sampled_cycles

    def _instrumented_run(self) -> RunResult:
        """One fingerprinting + checkpointing pass over the workload."""
        return self._instrumented_run_at(self.sampled_cycles)

    @property
    def golden(self) -> RunResult:
        if self._golden is None:
            expected = self.total_cycles  # may probe (cold start)
            _, known_observables, known_digest, source = self._known_length()
            # Pass 2: record fingerprints + checkpoints at the sampled cycles.
            golden = self._instrumented_run()
            if golden.cycles != expected and source in ("hint", "store"):
                # Stale advisory length (bundled hint or cross-scope store
                # entry): the instrumented run itself measured the true
                # length, but its checkpoints sit at positions sampled from
                # the wrong length.  Re-sample and re-run — a stale entry
                # costs exactly what the probe used to.
                self.telemetry.incr("stale_length_hints")
                self._total_cycles = golden.cycles
                self._sampled_cycles = None
                self._record_workload(golden)
                expected = golden.cycles
                known_observables = golden.observables
                known_digest = None
                golden = self._instrumented_run()
            # Verify against whatever we know: the probe's observables (cold)
            # or the memoized/persisted golden behaviour (warm start).
            assert golden.cycles == expected
            if known_observables is not None:
                assert golden.observables == known_observables
            elif known_digest is not None:
                assert observables_digest(golden.observables) == known_digest
            self._record_workload(golden)
            self._golden = golden
        return self._golden

    def adopt_golden(self, golden: RunResult) -> bool:
        """Install an externally computed golden run (the packed path).

        Applies the same verification the scalar :attr:`golden` property
        does — cycle count against the known workload length, observables
        against the memo/persisted digest.  Returns ``False`` (and installs
        nothing) when the run cannot be trusted, e.g. a stale bundled length
        hint: the caller simply leaves the session to its scalar path, which
        re-samples and re-runs.  ``True`` when the session already has a
        golden run or *golden* was verified and installed.
        """
        if self._golden is not None:
            return True
        if not golden.halted:
            raise self._halt_error()
        expected, known_observables, known_digest, _ = self._known_length()
        if expected is None or golden.cycles != expected:
            return False
        if (
            known_observables is not None
            and golden.observables != known_observables
        ):
            return False
        if (
            known_digest is not None
            and observables_digest(golden.observables) != known_digest
        ):
            return False
        self._record_workload(golden)
        self._golden = golden
        self.telemetry.incr("golden_runs")
        return True

    # ------------------------------------------------------------------
    @property
    def static(self) -> StaticReachability:
        if self._static is None:
            self._static = StaticReachability(self.system.sta)
        return self._static

    @property
    def dynamic(self) -> DynamicReachability:
        if self._dynamic is None:
            self._dynamic = DynamicReachability(
                self.system.event_sim, self.static, telemetry=self.telemetry
            )
        return self._dynamic

    @property
    def group_ace(self) -> GroupAceAnalyzer:
        if self._group_ace is None:
            self._group_ace = GroupAceAnalyzer(
                self.system,
                self.program,
                self.golden,
                margin_cycles=self.config.margin_cycles,
                verdict_cache=self.verdict_cache,
                telemetry=self.telemetry,
            )
        return self._group_ace

    @property
    def orace(self) -> OraceAnalyzer:
        if self._orace is None:
            self._orace = OraceAnalyzer(self.group_ace)
        return self._orace

    @property
    def evaluator(self) -> DelayAceEvaluator:
        if self._evaluator is None:
            self._evaluator = DelayAceEvaluator(
                self.static,
                self.dynamic,
                self.group_ace,
                self.orace,
                telemetry=self.telemetry,
            )
        return self._evaluator

    def ensure_checkpoints(self, cycles: Sequence[int]) -> None:
        """Guarantee golden checkpoints exist at every cycle in *cycles*.

        Adaptive refinement widens the cycle sample after the instrumented
        golden run was recorded, so the new cycles have no checkpoints yet.
        One extra instrumented pass over the *union* of checkpoint positions
        repairs that; the fresh run is verified cycle- and observable-
        identical before it replaces the old one.  The analyzers keep only
        invariant golden data (length, fingerprints, observables), so they
        carry over untouched — and so do their §V-C caches.
        """
        missing = sorted(set(cycles) - set(self.golden.checkpoints))
        if not missing:
            return
        union = sorted(set(self.golden.checkpoints) | set(missing))
        fresh = self._instrumented_run_at(union)
        assert fresh.cycles == self.golden.cycles
        assert fresh.observables == self.golden.observables
        self._golden = fresh

    def _instrumented_run_at(self, checkpoint_cycles: Sequence[int]) -> RunResult:
        with self.telemetry.timer("golden"), tracing.span(
            "session.golden_run", cat="session",
            benchmark=self.program.name, checkpoints=len(checkpoint_cycles),
        ):
            self.telemetry.incr("golden_runs")
            golden = self.system.run_program(
                self.program,
                max_cycles=self.config.max_run_cycles,
                checkpoint_cycles=checkpoint_cycles,
                record_fingerprints=True,
            )
        if not golden.halted:
            raise self._halt_error()
        return golden

    def checkpoint(self, cycle: int) -> Checkpoint:
        if cycle not in self.golden.checkpoints:
            self.ensure_checkpoints([cycle])
        return self.golden.checkpoints[cycle]

    def waveforms(self, cycle: int) -> CycleWaveforms:
        """Fault-free event-simulated waveforms of one sampled cycle."""
        waves = self._waveforms.get(cycle)
        if waves is None:
            with self.telemetry.timer("waveforms"), tracing.span(
                "session.waveforms", cat="session", cycle=cycle
            ):
                ckpt = self.checkpoint(cycle)
                waves = self.system.event_sim.simulate_cycle(
                    ckpt.prev_settled, ckpt.dff_values, ckpt.input_values, cycle=cycle
                )
            self.telemetry.incr("waveforms_built")
            self._waveforms[cycle] = waves
        return waves


class DelayAVFEngine:
    """Runs DelayAVF campaigns for one workload on one system.

    The engine owns the session and orchestrates plan → execute → merge.  To
    run campaigns on worker processes (``config.jobs > 1``,
    ``config.workers_from``, or an explicit :class:`ParallelExecutor`),
    construct the engine from a :class:`SessionSpec` via :meth:`from_spec`
    so workers can rebuild the session.
    """

    def __init__(
        self,
        system,
        program: Program,
        config: Optional[CampaignConfig] = None,
        spec: Optional[SessionSpec] = None,
    ):
        self.config = config if config is not None else CampaignConfig()
        self.spec = spec
        if self.config.trace:
            # Enable before anything expensive so session bootstrap (probe /
            # golden runs) is captured too.  No reset: an api/CLI layer may
            # already have primed the buffer.
            tracing.enable()
        if self.config.preflight:
            # Fail fast on bad inputs — before the cache is opened, before
            # any golden run, and long before any shard executes.
            ensure_preflight(preflight_campaign(system, program, self.config))
        self.verdict_cache = open_configured_cache(system, program, self.config)
        self.session = CampaignSession(
            system,
            program,
            self.config,
            verdict_cache=self.verdict_cache,
            _internal=True,
        )
        self.telemetry = self.session.telemetry
        self._executor: Optional[Executor] = None
        # Resolve the workload length up front: free on warm starts (memo or
        # cache metadata) and fails fast on non-halting workloads when cold.
        self.session.total_cycles

    @classmethod
    def from_spec(cls, spec: SessionSpec) -> "DelayAVFEngine":
        """Build the engine (and its system) from a session spec."""
        return cls(spec.build_system(), spec.program, spec.config, spec=spec)

    @property
    def system(self):
        return self.session.system

    @property
    def program(self) -> Program:
        return self.session.program

    # ------------------------------------------------------------------
    def default_executor(self) -> Executor:
        """The executor selected by the config (kept across campaigns).

        ``workers_from`` wins over ``jobs``: a fleet of joining workers
        subsumes local ones.  Its coordinator is the process-wide shared
        instance for its address (one listener per address, however many
        engines), so ``close()`` on this engine leaves the fleet up for its
        siblings.
        """
        if self._executor is None:
            knobs = dict(
                shard_timeout=self.config.shard_timeout,
                max_retries=self.config.max_retries,
                retry_backoff=self.config.retry_backoff,
                worker_wait_seconds=self.config.worker_wait_seconds,
                breaker_threshold=self.config.breaker_threshold,
                breaker_reset_seconds=self.config.breaker_reset_seconds,
            )
            if self.config.workers_from:
                self._executor = shared_remote_executor(
                    self.config.workers_from, **knobs
                )
            elif self.config.jobs > 1:
                self._executor = ParallelExecutor(self.config.jobs, **knobs)
            else:
                self._executor = SerialExecutor()
        return self._executor

    def close(self) -> None:
        """Shut down any worker fleet and flush the verdict cache."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        if self.verdict_cache is not None:
            self.verdict_cache.flush()

    # ------------------------------------------------------------------
    def run_structure(
        self,
        structure: str,
        delay_fractions: Optional[Sequence[float]] = None,
        max_wires: Optional[int] = None,
        seed: Optional[int] = None,
        executor: Optional[Executor] = None,
        resume: Optional[bool] = None,
        reporter: Optional[ProgressReporter] = None,
    ) -> StructureCampaignResult:
        """Estimate DelayAVF of *structure* across the delay sweep.

        The plan orders shards cycle-outermost so the fault-free waveforms
        and GroupACE caches are reused maximally (the paper's §V-C caching);
        the executor (serial by default, worker processes when
        ``config.jobs > 1``, ``config.workers_from`` or passed explicitly)
        decides where shards run.  Results merge deterministically by
        (cycle, wire, delay), so every executor yields identical records.

        With *resume* (default ``config.resume``; needs a persistent verdict
        cache) shards the cache marks complete are reassembled from the
        record table instead of executed, so an interrupted campaign picks
        up from its last incrementally-flushed shard.  The result's
        ``degraded`` flag reports whether fault-tolerant execution had to
        evict workers, time shards out, or fall back to serial on the way.
        """
        resume = self.config.resume if resume is None else bool(resume)
        before = self.telemetry.snapshot()
        started = time.perf_counter()
        if reporter is None:
            reporter = self._make_reporter(structure)
        with tracing.span(
            "campaign.run", cat="campaign",
            structure=structure, benchmark=self.program.name,
        ):
            with self.telemetry.timer("plan"):
                plan = build_plan(
                    structure,
                    self.program.name,
                    self.system.structure_wires(structure),
                    self.session.sampled_cycles,
                    self.config,
                    delay_fractions=delay_fractions,
                    max_wires=max_wires,
                    seed=seed,
                )
            executor = executor if executor is not None else self.default_executor()
            result = self._execute_plan(plan, executor, resume, reporter)
            self._finalize(result, before, started)
        if reporter is not None:
            reporter.finish("degraded" if result.degraded else "done")
        return result

    def run_structures(
        self,
        structures: Sequence[str],
        delay_fractions: Optional[Sequence[float]] = None,
        max_wires: Optional[int] = None,
        seed: Optional[int] = None,
        resume: Optional[bool] = None,
    ) -> Dict[str, StructureCampaignResult]:
        """Run several structures' campaigns with one shared packed prefetch.

        One engine serves every structure of its benchmark, and GroupACE/
        ORACE resolution is timing-agnostic, so the forward simulations of
        *all* the campaigns pack into the same 64-lane words: each campaign
        alone rarely fills a word, and every extra batch costs a full
        program-length simulation.  Records are byte-identical to sequential
        :meth:`run_structure` calls — only the packing changes.

        Falls back to sequential :meth:`run_structure` calls when lane
        packing is off (``lanes=1``) or shards run on worker processes
        (``jobs > 1`` or ``workers_from``; workers pack per-shard instead).  Because the
        prefetch is shared, the per-campaign ``campaign`` wall-clock slices
        overlap: the shared prefetch seconds are reported once, not split
        per structure.
        """
        structures = list(structures)
        if (
            self.config.lane_width <= 1
            or self.config.jobs > 1
            or self.config.workers_from
        ):
            return {
                structure: self.run_structure(
                    structure,
                    delay_fractions=delay_fractions,
                    max_wires=max_wires,
                    seed=seed,
                    resume=resume,
                )
                for structure in structures
            }
        staged = self._stage_structures(
            structures, delay_fractions, max_wires, seed, resume
        )
        queries = []
        for stage in staged:
            queries.extend(plan_queries(self.session, stage.prepared))
        lanes = self.config.lane_width
        if queries:
            with tracing.span(
                "campaign.prefetch", cat="executor",
                queries=len(queries), lanes=lanes, structures=len(staged),
            ):
                with self.telemetry.timer("prefetch"):
                    self.session.group_ace.prefetch_spanning(
                        queries, lanes=lanes
                    )
        return self._finish_staged(staged)

    def _stage_structures(
        self,
        structures: Sequence[str],
        delay_fractions=None,
        max_wires=None,
        seed=None,
        resume=None,
    ) -> List["_StagedCampaign"]:
        """Plan, resume-split, and prepare every structure's shards."""
        resume_flag = self.config.resume if resume is None else bool(resume)
        with_orace = bool(self.config.compute_orace)
        clock = self.system.clock_period
        staged: List[_StagedCampaign] = []
        for structure in structures:
            before = self.telemetry.snapshot()
            started = time.perf_counter()
            reporter = self._make_reporter(structure)
            with tracing.span(
                "campaign.prepare", cat="campaign",
                structure=structure, benchmark=self.program.name,
            ):
                with self.telemetry.timer("plan"):
                    plan = build_plan(
                        structure,
                        self.program.name,
                        self.system.structure_wires(structure),
                        self.session.sampled_cycles,
                        self.config,
                        delay_fractions=delay_fractions,
                        max_wires=max_wires,
                        seed=seed,
                    )
                resumed: List = []
                exec_plan = plan
                if resume_flag and self.verdict_cache is not None:
                    resumed, remaining = self._split_resumable(
                        plan, with_orace, clock
                    )
                    if resumed:
                        self.telemetry.incr("shards_resumed", len(resumed))
                        exec_plan = dataclasses.replace(
                            plan, shards=tuple(remaining)
                        )
                if reporter is not None:
                    reporter.start(len(plan.shards), resumed=len(resumed))
                prepared = prepare_plan_shards(self.session, exec_plan)
            staged.append(
                _StagedCampaign(
                    engine=self, structure=structure, plan=plan,
                    exec_plan=exec_plan, prepared=prepared, resumed=resumed,
                    before=before, started=started, reporter=reporter,
                )
            )
        return staged

    def _finish_staged(
        self, staged: Sequence["_StagedCampaign"]
    ) -> Dict[str, StructureCampaignResult]:
        """Evaluate, merge, persist, and finalize staged campaigns."""
        results: Dict[str, StructureCampaignResult] = {}
        for stage in staged:
            with tracing.span(
                "campaign.run", cat="campaign",
                structure=stage.structure, benchmark=self.program.name,
                grouped=True,
            ):
                with self.telemetry.timer("execute"):
                    shard_results = evaluate_prepared_shards(
                        self.session, stage.exec_plan, stage.prepared,
                        progress=stage.reporter,
                    )
                with self.telemetry.timer("merge"), tracing.span(
                    "campaign.merge", cat="campaign", structure=stage.structure
                ):
                    result = merge_shard_results(
                        stage.plan, shard_results + stage.resumed
                    )
                self._persist_result(stage.plan, result)
                self._finalize(result, stage.before, stage.started)
            if stage.reporter is not None:
                stage.reporter.finish("done")
            results[stage.structure] = result
        return results

    def run_structure_adaptive(
        self,
        structure: str,
        target_half_width: float,
        *,
        confidence: float = DEFAULT_CONFIDENCE,
        delay_fractions: Optional[Sequence[float]] = None,
        max_wires: Optional[int] = None,
        seed: Optional[int] = None,
        executor: Optional[Executor] = None,
        resume: Optional[bool] = None,
        max_rounds: Optional[int] = None,
        growth: Optional[float] = None,
        reporter: Optional[ProgressReporter] = None,
    ) -> StructureCampaignResult:
        """Run a campaign, then refine it until its CIs meet a precision
        target.

        After the initial wave (identical to :meth:`run_structure`), each
        round checks the widest Wilson interval across the delay sweep
        (DelayAVF and, when computed, OrDelayAVF).  While it exceeds
        *target_half_width*, the wire/cycle sample is widened — wires first
        (their cycles' waveforms are already warm), then cycles — by the
        factor :func:`repro.core.stats.required_samples` predicts, capped at
        *growth* per round.  Refinement plans cover exactly the not-yet-
        sampled (wire, cycle) pairs, so no (wire, cycle, delay) triple is
        ever simulated twice; with a verdict cache configured the rounds
        persist and resume like any other shards.

        Stops at the target, after *max_rounds* refinement rounds, or when
        the structure's full (wire × cycle) population is exhausted —
        whichever comes first.  ``telemetry`` reports ``refinement_rounds``,
        ``extra_shards``, and the final ``ci_half_width`` gauge.
        """
        if target_half_width <= 0.0:
            raise ValueError("target_half_width must be > 0")
        resume = self.config.resume if resume is None else bool(resume)
        max_rounds = (
            self.config.refine_max_rounds if max_rounds is None else max_rounds
        )
        growth_cap = self.config.refine_growth if growth is None else growth
        executor = executor if executor is not None else self.default_executor()
        base_seed = self.config.seed if seed is None else seed
        before = self.telemetry.snapshot()
        started = time.perf_counter()
        if reporter is None:
            reporter = self._make_reporter(structure)
        with tracing.span(
            "campaign.run", cat="campaign",
            structure=structure, benchmark=self.program.name, adaptive=True,
        ):
            with self.telemetry.timer("plan"):
                plan = build_plan(
                    structure,
                    self.program.name,
                    self.system.structure_wires(structure),
                    self.session.sampled_cycles,
                    self.config,
                    delay_fractions=delay_fractions,
                    max_wires=max_wires,
                    seed=seed,
                )
            result = self._execute_plan(plan, executor, resume, reporter)
            for round_index in range(1, max_rounds + 1):
                worst = self._worst_interval(result, confidence)
                if reporter is not None:
                    reporter.refinement(
                        round_index - 1, worst.half_width, target_half_width
                    )
                if worst.half_width <= target_half_width:
                    break
                with self.telemetry.timer("refine"):
                    new_wires, new_cycles = self._plan_growth(
                        plan, worst, target_half_width, confidence, growth_cap,
                        structure, base_seed, round_index,
                    )
                if not new_wires and not new_cycles:
                    break  # full population sampled; as tight as it gets
                if new_cycles:
                    self.session.ensure_checkpoints(new_cycles)
                with self.telemetry.timer("plan"):
                    refinement = build_refinement_plan(plan, new_wires, new_cycles)
                self.telemetry.incr("refinement_rounds")
                self.telemetry.incr("extra_shards", len(refinement.shards))
                round_result = self._execute_plan(
                    refinement, executor, resume, reporter
                )
                for delay, delay_result in round_result.by_delay.items():
                    result.by_delay[delay].records.extend(delay_result.records)
                plan = dataclasses.replace(
                    plan,
                    wire_indices=refinement.wire_indices,
                    sampled_cycles=refinement.sampled_cycles,
                )
                result.sampled_wires = len(plan.wire_indices)
                result.sampled_cycles = plan.sampled_cycles
            final_half_width = self._worst_interval(result, confidence).half_width
            self.telemetry.set_gauge("ci_half_width", final_half_width)
            if reporter is not None:
                reporter.set_half_width(final_half_width)
            self._finalize(result, before, started)
        if reporter is not None:
            reporter.finish("degraded" if result.degraded else "done")
        return result

    # ------------------------------------------------------------------
    def _worst_interval(
        self, result: StructureCampaignResult, confidence: float
    ) -> ConfidenceInterval:
        """The widest interval the campaign currently reports."""
        worst = None
        for delay_result in result.by_delay.values():
            candidates = [delay_result.delay_avf_ci(confidence)]
            if self.config.compute_orace:
                candidates.append(delay_result.or_delay_avf_ci(confidence))
            for interval in candidates:
                if worst is None or interval.half_width > worst.half_width:
                    worst = interval
        assert worst is not None  # by_delay is never empty
        return worst

    def _plan_growth(
        self,
        plan,
        worst: ConfidenceInterval,
        target_half_width: float,
        confidence: float,
        growth_cap: float,
        structure: str,
        base_seed: int,
        round_index: int,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Pick the new wires and cycles for one refinement round.

        Sizes the round from the Wilson-width inversion (clamped to
        [1.25, *growth_cap*] so rounds neither stall nor explode), then
        allocates the growth to wires before cycles: new wires reuse the
        already-built waveforms and checkpoints of every sampled cycle,
        while each new cycle costs a waveform build and a checkpoint run.
        """
        n_now = max(worst.samples, 1)
        needed = required_samples(
            round(worst.point * worst.samples), worst.samples,
            target_half_width, confidence,
        )
        factor = min(max(needed / n_now, 1.25), growth_cap)
        cur_wires = len(plan.wire_indices)
        cur_cycles = len(plan.sampled_cycles)
        usable_cycles = self.session.total_cycles - self.config.warmup_cycles
        desired = min(
            math.ceil(factor * n_now), plan.wire_count * usable_cycles
        )
        if desired <= cur_wires * cur_cycles:
            return (), ()
        want_wires = min(math.ceil(desired / cur_cycles), plan.wire_count)
        new_wires = extend_index_sample(
            plan.wire_count,
            plan.wire_indices,
            want_wires - cur_wires,
            f"{structure}:{base_seed}:{round_index}",
        )
        wires_after = cur_wires + len(new_wires)
        want_cycles = min(math.ceil(desired / wires_after), usable_cycles)
        new_cycles = extend_cycle_sample(
            self.session.total_cycles,
            plan.sampled_cycles,
            want_cycles - cur_cycles,
            self.config.warmup_cycles,
        )
        return tuple(new_wires), tuple(new_cycles)

    def _make_reporter(self, structure: str) -> Optional[ProgressReporter]:
        """A progress reporter when any liveness channel is configured."""
        if not (self.config.progress or self.config.metrics_out):
            return None
        heartbeat = None
        if self.config.metrics_out:
            heartbeat = Heartbeat(
                heartbeat_path(self.config.metrics_out),
                min_interval=self.config.heartbeat_seconds,
            )
        return ProgressReporter(
            enabled=bool(self.config.progress),
            heartbeat=heartbeat,
            label=f"{self.program.name}/{structure}",
        )

    def _execute_plan(
        self, plan, executor: Executor, resume: bool, reporter=None
    ) -> StructureCampaignResult:
        """Resume-split, execute, merge, and persist one plan."""
        with_orace = bool(self.config.compute_orace)
        clock = self.system.clock_period
        resumed: List = []
        exec_plan = plan
        if resume and self.verdict_cache is not None:
            resumed, remaining = self._split_resumable(plan, with_orace, clock)
            if resumed:
                self.telemetry.incr("shards_resumed", len(resumed))
                exec_plan = dataclasses.replace(plan, shards=tuple(remaining))
        if reporter is not None:
            # First wave starts the counters (resumed shards count as done);
            # refinement waves only grow the budget.
            if reporter.state == "idle":
                reporter.start(len(plan.shards), resumed=len(resumed))
            else:
                reporter.add_total(len(exec_plan.shards))
        with self.telemetry.timer("execute"), tracing.span(
            "campaign.execute", cat="campaign",
            structure=plan.structure, shards=len(exec_plan.shards),
        ):
            shard_results = (
                list(
                    executor.execute(
                        exec_plan,
                        session=self.session,
                        spec=self.spec,
                        progress=reporter,
                    )
                )
                if exec_plan.shards
                else []
            )
        with self.telemetry.timer("merge"), tracing.span(
            "campaign.merge", cat="campaign", structure=plan.structure
        ):
            result = merge_shard_results(plan, shard_results + resumed)
        # Worker telemetry arrives as per-shard snapshot deltas; fold it into
        # the session-wide telemetry, then report this campaign's slice.
        # Worker trace buffers ride along the same way.
        for shard_result in shard_results:
            if shard_result.telemetry is not None:
                self.telemetry.merge_snapshot(shard_result.telemetry)
            tracing.extend(shard_result.spans)
        self._persist_result(plan, result)
        return result

    def _persist_result(self, plan, result: StructureCampaignResult) -> None:
        """Write a merged campaign's records and shard markers to the cache.

        Worker flushes already wrote records shard-by-shard, but persisting
        from the owning process too guarantees a complete record table even
        if a worker died mid-campaign.
        """
        if self.verdict_cache is None:
            return
        with_orace = bool(self.config.compute_orace)
        clock = self.system.clock_period
        for delay, delay_result in result.by_delay.items():
            for record in delay_result.records:
                self.verdict_cache.put_record(
                    record_key(
                        plan.structure, record.cycle, record.wire_index,
                        delay, with_orace, clock,
                    ),
                    record_to_payload(record),
                )
        for shard in plan.shards:
            self.verdict_cache.mark_shard_complete(
                shard_key(
                    plan.structure, shard.cycle, shard.wire_indices,
                    shard.delay_fractions, with_orace, clock,
                )
            )
        # Coverage extraction is pure bookkeeping over the already-merged
        # records; persist the vector alongside them so coverage-directed
        # selection can read it back without re-running the campaign.
        from repro.core.coverage import coverage_from_result, coverage_key_for_plan

        vector = coverage_from_result(result)
        self.verdict_cache.put_coverage(
            coverage_key_for_plan(plan, clock), vector.to_payload()
        )
        self.telemetry.incr("coverage_vectors")
        self.verdict_cache.flush()

    def _finalize(
        self, result: StructureCampaignResult, before, started: Optional[float] = None
    ) -> None:
        """Guard-check the merged result and attach its telemetry slice."""
        if self.config.guards:
            with self.telemetry.timer("guards"), tracing.span(
                "campaign.guards", cat="campaign", structure=result.structure
            ):
                apply_guards(result, self.telemetry)
        if started is not None:
            # End-to-end campaign wall-clock, recorded last so it bounds every
            # other phase's wall column in the result's telemetry slice.
            self.telemetry.add_seconds("campaign", time.perf_counter() - started)
        # Lane-occupancy gauges, recomputed from this campaign's slice of the
        # merged (coordinator + worker) counters: how full the packed words
        # actually ran.
        before_counters = before.get("counters", {})

        def campaign_count(name: str) -> int:
            return self.telemetry.count(name) - before_counters.get(name, 0)

        slots = campaign_count("packed_cone_lane_slots")
        if slots:
            self.telemetry.set_gauge(
                "packed_lane_occupancy",
                campaign_count("packed_cone_lanes") / slots,
            )
        ace_slots = campaign_count("lane_slots")
        if ace_slots:
            self.telemetry.set_gauge(
                "group_ace_lane_occupancy",
                campaign_count("lanes_filled") / ace_slots,
            )
        # The coordinator session's shared EvalPlan program cache (satellite
        # of the bounded-memoization work: observable size + evictions).
        plan_obj = getattr(self.session.system, "plan", None)
        if plan_obj is not None and hasattr(plan_obj, "program_cache_size"):
            self.telemetry.set_gauge(
                "eval_programs_cached", float(plan_obj.program_cache_size)
            )
            self.telemetry.set_gauge(
                "eval_program_evictions",
                float(plan_obj.program_cache_evictions),
            )
        result.telemetry = CampaignTelemetry.from_snapshot(
            self.telemetry.diff(before)
        )
        result.degraded = any(
            result.telemetry.count(counter)
            for counter in (
                "shard_timeouts",
                "serial_fallbacks",
                "workers_evicted",
            )
        )
        if self.config.metrics_out:
            write_metrics(
                self.config.metrics_out,
                result.telemetry,
                labels={
                    "structure": result.structure,
                    "benchmark": result.benchmark,
                },
                extra={
                    "degraded": bool(result.degraded),
                    "suspect": bool(result.suspect),
                },
            )

    # ------------------------------------------------------------------
    def _split_resumable(self, plan, with_orace: bool, clock: float):
        """Partition the plan into cache-reassembled and still-to-run shards.

        A shard resumes only if its completion mark *and* every one of its
        records survived in the cache; a mark whose records were lost (torn
        file recovered cold, for instance) silently re-executes.
        """
        cache = self.verdict_cache
        resumed: List[ShardResult] = []
        remaining = []
        for shard in plan.shards:
            loaded = None
            if cache.shard_complete(
                shard_key(
                    plan.structure, shard.cycle, shard.wire_indices,
                    shard.delay_fractions, with_orace, clock,
                )
            ):
                loaded = self._load_shard_result(plan, shard, with_orace, clock)
            if loaded is None:
                remaining.append(shard)
            else:
                resumed.append(loaded)
        return resumed, remaining

    def _load_shard_result(
        self, plan, shard, with_orace: bool, clock: float
    ) -> Optional[ShardResult]:
        by_delay: Dict[float, List] = {delay: [] for delay in shard.delay_fractions}
        for index in shard.wire_indices:
            for delay in shard.delay_fractions:
                payload = self.verdict_cache.get_record(
                    record_key(plan.structure, shard.cycle, index, delay,
                               with_orace, clock)
                )
                if payload is None:
                    return None
                by_delay[delay].append(
                    record_from_payload(payload, index, shard.cycle, delay)
                )
        return ShardResult(shard_index=shard.index, by_delay=by_delay)

    def estimate(
        self,
        structure: str,
        delay_fraction: float = 0.5,
        max_wires: Optional[int] = 32,
        max_cycles: Optional[int] = None,
        seed: int = 0,
    ) -> DelayAVFResult:
        """Convenience single-delay estimate (used by the quickstart).

        *max_cycles* further restricts the session's sampled cycles (it
        cannot exceed the session's ``cycle_count``).  The returned result is
        a copy restricted to those cycles; the underlying campaign result is
        never mutated.
        """
        campaign = self.run_structure(
            structure, delay_fractions=(delay_fraction,), max_wires=max_wires,
            seed=seed,
        )
        result = campaign.by_delay[delay_fraction]
        if max_cycles is not None:
            result = result.restricted_to_cycles(
                self.session.sampled_cycles[:max_cycles]
            )
        return result


@dataclass
class _StagedCampaign:
    """One structure campaign paused between preparation and evaluation."""

    engine: DelayAVFEngine
    structure: str
    plan: object
    exec_plan: object
    prepared: List
    resumed: List
    before: object
    started: float
    reporter: Optional[ProgressReporter]


def run_structures_spanning(
    runs: Sequence[Tuple[DelayAVFEngine, Sequence[str]]],
) -> List[Dict[str, StructureCampaignResult]]:
    """Run several *engines'* structure campaigns with one packed prefetch.

    The widest packing the lane dimension supports: every workload of one
    SoC runs on the same netlist (programs live in the per-lane
    environments), so the GroupACE resolutions of *all* the campaigns —
    across structures AND workloads — share the same 64-lane words.  Each
    lane converges against its own workload's golden run; records are
    byte-identical to sequential :meth:`DelayAVFEngine.run_structure` calls
    per engine.

    Engines that cannot join a packed group (lane packing off, or worker
    processes configured) fall back to their own :meth:`run_structures` path;
    engines whose netlists differ (e.g. ECC variants) still batch — the
    packer partitions lanes by netlist internally.  Returns one
    ``{structure: result}`` dict per input engine, in order.
    """
    packed: List[Tuple[int, DelayAVFEngine, Sequence[str]]] = []
    results: List[Optional[Dict[str, StructureCampaignResult]]] = [
        None
    ] * len(runs)
    for index, (engine, structures) in enumerate(runs):
        if (
            engine.config.lane_width <= 1
            or engine.config.jobs > 1
            or engine.config.workers_from
        ):
            results[index] = engine.run_structures(structures)
        else:
            packed.append((index, engine, list(structures)))
    if not packed:
        return results
    # The golden runs themselves are lane-packable: they are plain scalar
    # simulations of the same netlist from reset, one per workload.  Run
    # them as one packed word before staging touches session.golden.
    packed_golden_runs([engine.session for _, engine, _ in packed])
    staged_by_engine: List[Tuple[int, DelayAVFEngine, List[_StagedCampaign]]] = []
    for index, engine, structures in packed:
        staged_by_engine.append(
            (index, engine, engine._stage_structures(structures))
        )
    groups = []
    total_queries = 0
    for _, engine, staged in staged_by_engine:
        queries = []
        for stage in staged:
            queries.extend(plan_queries(engine.session, stage.prepared))
        total_queries += len(queries)
        if queries:
            groups.append((engine.session.group_ace, queries))
    if groups:
        lanes = min(engine.config.lane_width for _, engine, _ in staged_by_engine)
        first_engine = staged_by_engine[0][1]
        with tracing.span(
            "campaign.prefetch", cat="executor",
            queries=total_queries, lanes=lanes, engines=len(groups),
        ):
            with first_engine.telemetry.timer("prefetch"):
                prefetch_spanning_multi(groups, lanes=lanes)
    for index, engine, staged in staged_by_engine:
        results[index] = engine._finish_staged(staged)
    return results


def packed_golden_runs(sessions: Sequence[CampaignSession]) -> None:
    """Run several sessions' golden runs through shared packed words.

    Each eligible session's instrumented golden run — fingerprint every
    cycle, checkpoint at its sampled cycles — is one scalar simulation of
    the shared netlist from reset, so up to :data:`MAX_LANES` of them pack
    into the bit-planes of one word, exactly like injected re-simulations
    do.  Produces per-lane :class:`RunResult`\\ s bit-identical to scalar
    :meth:`CycleSimulator.run` (same fingerprints, same checkpoints
    including ``prev_settled``, same observables) and installs them via
    :meth:`CampaignSession.adopt_golden`.

    A session is eligible only if its workload length is already known
    (memo, cache, or bundled hint) — checkpoint positions are sampled from
    the length, and probing it here would itself cost a scalar run.
    Sessions that are ineligible, already golden, or whose packed run fails
    adoption (stale hint) simply keep their lazy scalar path.  Best-effort
    by design: never changes what a session's golden run contains, only how
    it is computed.
    """
    eligible: List[CampaignSession] = []
    for session in sessions:
        if session._golden is not None:
            continue
        known, _, _, _ = session._known_length()
        if known is None:
            continue
        eligible.append(session)
    by_netlist: Dict[int, List[CampaignSession]] = {}
    for session in eligible:
        by_netlist.setdefault(id(session.system.netlist), []).append(session)
    for group in by_netlist.values():
        for start in range(0, len(group), MAX_LANES):
            _run_packed_golden_chunk(group[start : start + MAX_LANES])


def _run_packed_golden_chunk(chunk: Sequence[CampaignSession]) -> None:
    """One packed word's worth of golden runs, scalar-run-exact per lane.

    Mirrors the scalar :meth:`CycleSimulator.run` loop per lane: at each
    cycle boundary append the state fingerprint, capture a checkpoint if
    the cycle is sampled (``prev_settled`` is the lane's just-settled net
    values — available because :meth:`PackedCycleSimulator.step` leaves the
    settled values of the cycle it latched), then step.  A lane whose
    environment halts (or that hits its ``max_run_cycles`` cap) finalizes
    its result and retires; the word keeps stepping for the rest.
    """
    first = chunk[0]
    with first.telemetry.timer("golden"), tracing.span(
        "session.golden_run_packed", cat="session", workloads=len(chunk),
    ):
        scalar = first.system.simulator()
        psim = PackedCycleSimulator(scalar.netlist, scalar.plan)
        envs = [s.system.make_env(s.program) for s in chunk]
        wanted = [set(s.sampled_cycles) for s in chunk]
        caps = [s.config.max_run_cycles for s in chunk]
        results = [
            RunResult(cycles=0, halted=False, observables=()) for _ in chunk
        ]
        psim.load_reset(envs)
        psim.settle()  # boundary-0 settled values (scalar reset() semantics)
        active = set(range(len(chunk)))
        while active:
            for lane in sorted(active):
                run = results[lane]
                cycle = psim.lane_cycles[lane]
                run.fingerprints.append(psim.lane_fingerprint(lane))
                if cycle in wanted[lane]:
                    run.checkpoints[cycle] = Checkpoint(
                        cycle=cycle,
                        dff_values=psim.lane_dff_values(lane),
                        input_values=dict(psim.lane_inputs[lane]),
                        env_snapshot=envs[lane].snapshot(),
                        prev_settled=psim.lane_settled_values(lane),
                    )
            psim.step()
            for lane in sorted(active):
                halted = envs[lane].halted()
                if halted or psim.lane_cycles[lane] >= caps[lane]:
                    run = results[lane]
                    run.cycles = psim.lane_cycles[lane]
                    run.halted = halted
                    run.observables = envs[lane].observables()
                    active.discard(lane)
                    psim.retire_lane(lane)
    for session, run in zip(chunk, results):
        session.adopt_golden(run)
