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
    record_key,
    record_to_payload,
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
    execute_shards,
    merge_shard_results,
    open_configured_cache,
    shared_remote_executor,
)
from repro.core.group_ace import GroupAceAnalyzer
from repro.core.guards import apply_guards, ensure_preflight, preflight_campaign
from repro.core.orace import OraceAnalyzer
from repro.core.progress import ProgressReporter
from repro.core.plan import (
    CampaignPlan,
    build_plan,
    build_refinement_plan,
    check_delay_fractions,
)
from repro.core.results import StructureCampaignResult
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
from repro.sim.cyclesim import Checkpoint, DffRows, RunResult
from repro.sim.eventsim import CycleWaveforms
from repro.sim.packed import MAX_LANES, PackedCycleSimulator
from repro.workloads import lengths


#: Leading cycles no injection is sampled in (reset and pipeline fill).
WARMUP_CYCLES = 2
#: Refinement rounds an adaptive campaign may run after its initial wave.
REFINE_MAX_ROUNDS = 8
#: Largest per-round sample growth factor of an adaptive campaign.
REFINE_GROWTH = 2.0


@dataclass(frozen=True)
class CampaignConfig:
    """Every knob a caller sets on a statistical campaign, validated at
    construction.

    The paper's configuration corresponds to ``cycle_count=None,
    cycle_fraction=0.04`` and ``max_wires=None`` (all wires); the defaults
    here are laptop-sized.  Exactly one of ``cycle_count`` and
    ``cycle_fraction`` is set.  The fields are sampling (wires, cycles,
    seed), the delay sweep, the DUE hang budget, execution (``jobs``,
    ``workers_from`` and the fault policy), persistence (``cache_dir``) and
    ``trace``.  Every packed simulation layer runs
    :data:`~repro.sim.packed.MAX_LANES` lanes to a word, always.  A
    campaign over a ``cache_dir`` that already holds some of its injection
    records simulates only the rest, so a re-run after an interrupt needs
    no flag.
    Where a run *reports* (``--stats``, ``--progress``, ``--metrics-out``)
    is an argument of each :mod:`repro.api` call, not a config field.
    Build it directly, or from a parsed CLI namespace via
    :meth:`from_cli_args`.
    """

    delay_fractions: Tuple[float, ...] = DEFAULT_DELAY_FRACTIONS
    cycle_count: Optional[int] = 10  #: number of equally spaced cycles
    cycle_fraction: Optional[float] = None  #: alternative: fraction of cycles
    max_wires: Optional[int] = 48  #: wires sampled per structure (None = all)
    seed: int = 0
    margin_cycles: int = 3000  #: extra cycles before declaring a hang (DUE)
    compute_orace: bool = True
    #: local worker processes per structure campaign (>1 selects
    #: ParallelExecutor; requires the engine to be built from a SessionSpec)
    jobs: int = 1
    #: directory for the persistent verdict cache ('' / None disables it)
    cache_dir: Optional[str] = None
    #: seconds a dispatched shard may run before its worker is presumed hung
    #: and evicted (None disables the timeout); budget for a cold worker's
    #: golden run plus the slowest shard
    shard_timeout: Optional[float] = None
    #: additional attempts granted to a shard whose worker raised
    max_retries: int = 2
    #: collect span-based tracing (CLI ``--trace PATH`` sets this; workers
    #: inherit it through the SessionSpec so their spans travel back with
    #: shard results)
    trace: bool = False
    #: distributed execution: the ``HOST:PORT`` socket address remote
    #: ``repro worker`` processes join; None keeps every shard on this host
    workers_from: Optional[str] = None

    def __post_init__(self):
        check_delay_fractions(self.delay_fractions)
        if (self.cycle_count is None) == (self.cycle_fraction is None):
            raise ValueError(
                "specify exactly one of cycle_count / cycle_fraction (got "
                f"cycle_count={self.cycle_count!r}, "
                f"cycle_fraction={self.cycle_fraction!r})"
            )
        if self.cycle_count is not None and self.cycle_count < 1:
            raise ValueError("cycle_count must be >= 1")
        if self.cycle_fraction is not None and not 0.0 < self.cycle_fraction <= 1.0:
            raise ValueError("cycle_fraction must be in (0, 1]")
        if self.max_wires is not None and self.max_wires < 1:
            raise ValueError("max_wires must be >= 1 (or None for all wires)")
        if self.margin_cycles < 0:
            raise ValueError("margin_cycles must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be > 0 seconds (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.workers_from is not None:
            from repro.distrib.transport import parse_workers_from

            parse_workers_from(self.workers_from)  # raises ValueError

    @classmethod
    def from_cli_args(cls, args) -> "CampaignConfig":
        """Build a validated config from a parsed CLI namespace.

        Accepts any object exposing (a subset of) the ``delayavf``
        subcommand's attributes — ``delays``, ``cycles``, ``wires``,
        ``seed``, ``jobs``, ``cache_dir``, ``shard_timeout``,
        ``max_retries``, ``trace``, ``workers_from`` — falling
        back to the dataclass defaults for whatever is absent.
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
            jobs=pick("jobs", defaults.jobs),
            cache_dir=getattr(args, "cache_dir", None),
            shard_timeout=pick("shard_timeout", defaults.shard_timeout),
            max_retries=pick("max_retries", defaults.max_retries),
            trace=bool(getattr(args, "trace", None)),
            workers_from=getattr(args, "workers_from", None),
        )

    # ------------------------------------------------------------------
    # Wire round-trip (job submissions carry configs as JSON)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """A JSON-serializable dict :meth:`from_payload` rebuilds exactly."""
        payload = dataclasses.asdict(self)
        payload["delay_fractions"] = list(self.delay_fractions)
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
                hint="known fields: " + ", ".join(sorted(known)),
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

    A *probe* run learns the cycle count (the equally spaced injection
    cycles depend on it) unless the length is already known (see
    :meth:`_known_length`); the instrumented golden run then records
    fingerprints + checkpoints at those cycles and is verified against what
    is known.  The workload memo and static-reach cache live on the system,
    shared by all its sessions.

    Everything is materialized lazily: constructing a session runs nothing,
    and the golden run plus the analyzers that need it appear on first use.
    A campaign or sweep served entirely from the persistent record cache
    therefore never simulates at all.
    """

    def __init__(
        self,
        system,
        program: Program,
        config: CampaignConfig,
        telemetry: Optional[CampaignTelemetry] = None,
        verdict_cache=None,
    ):
        self.system = system
        self.program = program
        self.config = config
        self.telemetry = telemetry if telemetry is not None else CampaignTelemetry()
        self.verdict_cache = verdict_cache
        if verdict_cache is not None:
            verdict_cache.attach_telemetry(self.telemetry)

        self._memo = vars(system).setdefault("_workload_memo", {})
        self._psig = program_signature(program)
        self._total_cycles: Optional[int] = None
        self._sampled_cycles: Optional[List[int]] = None
        self._golden: Optional[RunResult] = None
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
        (``"cache"``), and the bundled measured-length table (``"hint"``,
        :mod:`repro.workloads.lengths`).  The first two are measured on
        this exact setup and treated as invariants; a hint is advisory and
        verified (with graceful fallback) by :attr:`golden`.
        """
        if self._psig in self._memo:
            cycles, observables = self._memo[self._psig]
            return cycles, observables, None, "memo"
        cap = lengths.MAX_RUN_CYCLES
        if self.verdict_cache is not None:
            meta = self.verdict_cache.workload_meta()
            if meta is not None and meta[0] <= cap:
                return meta[0], None, meta[1], "cache"
        hint = lengths.known_length(self._psig)
        if hint is not None and hint <= cap:
            return hint, None, None, "hint"
        return None, None, None, None

    def _record_workload(self, run: RunResult) -> None:
        self._memo[self._psig] = (run.cycles, run.observables)
        if self.verdict_cache is not None:
            self.verdict_cache.record_workload(run.cycles, run.observables)

    def _halt_error(self) -> RuntimeError:
        return RuntimeError(
            f"workload {self.program.name!r} did not halt within "
            f"{lengths.MAX_RUN_CYCLES} cycles"
        )

    @property
    def total_cycles(self) -> int:
        if self._total_cycles is None:
            known, _, _, source = self._known_length()
            if known is None:
                # Pass 1 (cold only): plain probe run to learn the length.
                with self.telemetry.phase(
                    "golden", "session.probe_run", cat="session",
                    benchmark=self.program.name,
                ):
                    self.telemetry.incr("probe_runs")
                    probe = self.system.run_program(
                        self.program, max_cycles=lengths.MAX_RUN_CYCLES
                    )
                if not probe.halted:
                    raise self._halt_error()
                self._record_workload(probe)
                known = probe.cycles
            else:
                self.telemetry.incr("probe_skips")
                if source == "hint":
                    self.telemetry.incr("length_hint_hits")
            self._total_cycles = known
        return self._total_cycles

    @property
    def sampled_cycles(self) -> List[int]:
        if self._sampled_cycles is None:
            self._sampled_cycles = sample_cycles(
                self.total_cycles,
                count=self.config.cycle_count,
                fraction=self.config.cycle_fraction,
                warmup=WARMUP_CYCLES,
            )
        return self._sampled_cycles

    @property
    def has_golden(self) -> bool:
        """Whether the golden run is installed (asking never runs it)."""
        return self._golden is not None

    @property
    def length_verified(self) -> bool:
        """Whether :attr:`total_cycles` was measured here (golden run, memo,
        cache metadata), not just advised by a bundled hint."""
        known, _, _, source = self._known_length()
        return source in ("memo", "cache") and known == self.total_cycles

    def verify_length(self) -> None:
        """Make :attr:`sampled_cycles` trustworthy before anyone reads it.

        An advisory length (a bundled hint) is verified with the golden run
        the caller needs anyway, which re-samples from the measured length
        when the hint was stale.  Every in-process caller that plans from
        the sample (a local campaign, an sAVF run) calls this first.
        """
        if not self.length_verified:
            self.golden

    @property
    def golden(self) -> RunResult:
        """The scalar golden run, installed by :meth:`adopt_golden`."""
        if self._golden is None:
            advisory = not self.length_verified  # may probe (cold start)
            # Record fingerprints + checkpoints at the sampled cycles.
            run = self._instrumented_run_at(self.sampled_cycles)
            if not self.adopt_golden(run) and advisory:
                # Stale bundled hint: the instrumented run itself measured
                # the true length, but its checkpoints sit at positions
                # sampled from the wrong length.  Re-sample and re-run — a
                # stale hint costs exactly what the probe used to.
                self.telemetry.incr("stale_length_hints")
                self._total_cycles = run.cycles
                self._sampled_cycles = None
                self._record_workload(run)
                self.adopt_golden(self._instrumented_run_at(self.sampled_cycles))
            if self._golden is None:
                raise RuntimeError(f"{self.program.name}: golden run "
                                   f"disagrees with its known length or output")
        return self._golden

    def adopt_golden(self, golden: RunResult) -> bool:
        """Verify and install a golden run, scalar or packed.

        The one verification rule: the run halted, is as long as the length
        the injection cycles were sampled from, and matches the known
        observables (memo or persisted digest).  ``False``, installing
        nothing, when it cannot be trusted (a stale length hint); ``True``
        when installed or the session already had a golden run.
        """
        if self._golden is not None:
            return True
        if not golden.halted:
            raise self._halt_error()
        _, observables, digest, _ = self._known_length()
        if observables is not None:
            digest = observables_digest(observables)
        if golden.cycles != self.total_cycles or digest not in (
            None, observables_digest(golden.observables),
        ):
            return False
        self._record_workload(golden)
        self._golden = golden
        return True

    # ------------------------------------------------------------------
    @property
    def static(self) -> StaticReachability:
        """The system's static-reach cache, shared by all its sessions."""
        if getattr(self.system, "_static_reach", None) is None:
            self.system._static_reach = StaticReachability(self.system.sta)
        return self.system._static_reach

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
        with self.telemetry.phase(
            "golden", "session.golden_run", cat="session",
            benchmark=self.program.name, checkpoints=len(checkpoint_cycles),
        ):
            self.telemetry.incr("golden_runs")
            golden = self.system.run_program(
                self.program,
                max_cycles=lengths.MAX_RUN_CYCLES,
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
            with self.telemetry.phase(
                "waveforms", "session.waveforms", cat="session", cycle=cycle
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
        # Fail fast on bad inputs — before the cache is opened, before any
        # golden run, and long before any shard executes.
        ensure_preflight(preflight_campaign(system, program, self.config))
        self.verdict_cache = open_configured_cache(system, program, self.config)
        self.session = CampaignSession(
            system,
            program,
            self.config,
            verdict_cache=self.verdict_cache,
        )
        self.telemetry = self.session.telemetry
        self._executor: Optional[Executor] = None
        # Resolve the workload length up front: free on warm starts (memo or
        # cache metadata) and fails fast on non-halting workloads when cold.
        self.session.total_cycles

    @classmethod
    def from_spec(cls, spec: SessionSpec, system=None) -> "DelayAVFEngine":
        """Build the engine from a session spec, on *system* if given."""
        system = system if system is not None else spec.build_system()
        return cls(system, spec.program, spec.config, spec=spec)

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
        siblings.  Either coordinator reads its fault policy
        (``shard_timeout``, ``max_retries``, ...) from each campaign's spec.
        """
        if self._executor is None:
            if self.config.workers_from:
                self._executor = shared_remote_executor(self.config.workers_from)
            elif self.config.jobs > 1:
                self._executor = ParallelExecutor(self.config.jobs)
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
        reporter: Optional[ProgressReporter] = None,
    ) -> StructureCampaignResult:
        """Estimate DelayAVF of *structure* across the delay sweep.

        The plan orders shards cycle-outermost so the fault-free waveforms
        and GroupACE caches are reused maximally (the paper's §V-C caching);
        the executor (serial by default, worker processes when
        ``config.jobs > 1``, ``config.workers_from`` or passed explicitly)
        decides where shards run.  Results merge deterministically by
        (cycle, wire, delay), so every executor yields identical records.

        With a persistent verdict cache, every injection whose record the
        cache holds is served from it, on every executor, so an interrupted
        campaign re-run picks up from its last incrementally-flushed shard.
        The result's ``degraded`` flag reports whether fault-tolerant
        execution had to evict workers, time shards out, or fall back to
        serial on the way.
        """
        executor = executor if executor is not None else self.default_executor()
        with tracing.span(
            "campaign.run", cat="campaign",
            structure=structure, benchmark=self.program.name,
        ):
            campaign = self._open(
                structure, delay_fractions, max_wires, seed, reporter,
                local=isinstance(executor, SerialExecutor),
            )
            shard_results = self._execute(
                campaign.plan, executor, campaign.reporter
            )
            return self._close(
                campaign, self._merge(campaign.plan, shard_results)
            )

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
        :data:`REFINE_GROWTH` per round.  Refinement plans cover exactly the
        not-yet-sampled (wire, cycle) pairs, so no (wire, cycle, delay)
        triple is ever simulated twice; with a verdict cache configured the
        rounds' records persist and serve re-runs like the first wave's.

        Stops at the target, after :data:`REFINE_MAX_ROUNDS` refinement
        rounds, or when the structure's full (wire × cycle) population is
        exhausted — whichever comes first.  ``telemetry`` reports ``refinement_rounds``,
        ``extra_shards``, and the final ``ci_half_width`` gauge.
        """
        if target_half_width <= 0.0:
            raise ValueError("target_half_width must be > 0")
        executor = executor if executor is not None else self.default_executor()
        base_seed = self.config.seed if seed is None else seed
        with tracing.span(
            "campaign.run", cat="campaign",
            structure=structure, benchmark=self.program.name, adaptive=True,
        ):
            campaign = self._open(
                structure, delay_fractions, max_wires, seed, reporter,
                local=isinstance(executor, SerialExecutor),
            )
            plan, reporter = campaign.plan, campaign.reporter
            result = self._merge(plan, self._execute(plan, executor, reporter))
            for round_index in range(1, REFINE_MAX_ROUNDS + 1):
                worst = self._worst_interval(result, confidence)
                if reporter is not None:
                    reporter.refinement(
                        round_index - 1, worst.half_width, target_half_width
                    )
                if worst.half_width <= target_half_width:
                    break
                with self.telemetry.phase("refine"):
                    new_wires, new_cycles = self._plan_growth(
                        plan, worst, target_half_width, confidence,
                        structure, base_seed, round_index,
                    )
                if not new_wires and not new_cycles:
                    break  # full population sampled; as tight as it gets
                if new_cycles:
                    self.session.ensure_checkpoints(new_cycles)
                with self.telemetry.phase("plan"):
                    refinement = build_refinement_plan(plan, new_wires, new_cycles)
                self.telemetry.incr("refinement_rounds")
                self.telemetry.incr("extra_shards", len(refinement.shards))
                if reporter is not None:
                    reporter.add_total(len(refinement.shards))
                round_result = self._merge(
                    refinement, self._execute(refinement, executor, reporter)
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
            return self._close(campaign, result)

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
        structure: str,
        base_seed: int,
        round_index: int,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Pick the new wires and cycles for one refinement round.

        Sizes the round from the Wilson-width inversion (clamped to
        [1.25, :data:`REFINE_GROWTH`] so rounds neither stall nor explode),
        then allocates the growth to wires before cycles: new wires reuse
        the already-built waveforms and checkpoints of every sampled cycle,
        while each new cycle costs a waveform build and a checkpoint run.
        """
        n_now = max(worst.samples, 1)
        needed = required_samples(
            round(worst.point * worst.samples), worst.samples,
            target_half_width, confidence,
        )
        factor = min(max(needed / n_now, 1.25), REFINE_GROWTH)
        cur_wires = len(plan.wire_indices)
        cur_cycles = len(plan.sampled_cycles)
        usable_cycles = self.session.total_cycles - WARMUP_CYCLES
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
            WARMUP_CYCLES,
        )
        return tuple(new_wires), tuple(new_cycles)

    def _open(
        self, structure, delay_fractions=None, max_wires=None, seed=None,
        reporter=None, *, local: bool,
    ) -> "_Campaign":
        """Open a campaign: plan it and start the caller's progress
        *reporter*, if any.  A *local* campaign (shards run here) first
        verifies an advisory length (:meth:`CampaignSession.verify_length`),
        so a stale one samples no plan; a worker-fleet coordinator trusts a
        bundled hint (the tests pin the hints to the build).
        """
        before = self.telemetry.snapshot()
        started = time.perf_counter()
        if local:
            self.session.verify_length()
        with self.telemetry.phase("plan"):
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
        if reporter is not None:
            reporter.start(len(plan.shards))
        return _Campaign(plan, before, started, reporter)

    def _execute(self, plan, executor: Executor, reporter) -> List[ShardResult]:
        """Run *plan*'s shards on *executor* (nothing to run, no call)."""
        if not plan.shards:
            return []
        return list(
            executor.execute(plan, self.session, spec=self.spec, progress=reporter)
        )

    def _merge(
        self, plan, shard_results: List[ShardResult]
    ) -> StructureCampaignResult:
        """Merge a plan's shard results, fold in what workers sent, persist."""
        with self.telemetry.phase(
            "merge", "campaign.merge", structure=plan.structure
        ):
            result = merge_shard_results(plan, shard_results)
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
        """Write a merged campaign's records to the cache.

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
        self.verdict_cache.flush()

    def _close(
        self, campaign: "_Campaign", result: StructureCampaignResult
    ) -> StructureCampaignResult:
        """Close a campaign: guard-check its merged result, attach its
        telemetry slice, and finish its reporter."""
        with self.telemetry.phase(
            "guards", "campaign.guards", structure=result.structure
        ):
            apply_guards(result, self.telemetry)
        # End-to-end campaign wall-clock, recorded last so it bounds every
        # other phase's wall column in the result's telemetry slice.
        self.telemetry.add_seconds(
            "campaign", time.perf_counter() - campaign.started
        )
        # Lane-occupancy gauges, recomputed from this campaign's slice of the
        # merged (coordinator + worker) counters: how full the packed words
        # actually ran.
        before_counters = campaign.before.get("counters", {})

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
        result.telemetry = CampaignTelemetry.from_snapshot(
            self.telemetry.diff(campaign.before)
        )
        result.degraded = any(
            result.telemetry.count(counter)
            for counter in (
                "shard_timeouts",
                "serial_fallbacks",
                "workers_evicted",
            )
        )
        if campaign.reporter is not None:
            campaign.reporter.finish("degraded" if result.degraded else "done")
        return result


@dataclass
class _Campaign:
    """One structure campaign between its open and its close."""

    plan: CampaignPlan
    before: Dict  #: telemetry snapshot at open; the result reports the delta
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

    Every in-process campaign is opened first, their shards run as one
    :func:`~repro.core.executor.execute_shards` call (one packed golden
    word for the sessions whose record lookups missed, one prefetch), and
    each campaign is closed in turn.  Sessions whose length is only
    advisory are cold, and :meth:`DelayAVFEngine._open` verifies it: their
    golden runs pack into one word before planning.  A warm sweep runs
    none.  An engine with a worker fleet runs its campaigns through
    :meth:`DelayAVFEngine.run_structure`.  The packers partition lanes by
    netlist (e.g. ECC variants).  The shared ``execute`` and ``prefetch``
    seconds are timed once, on the first engine's telemetry.  Returns one
    ``{structure: result}`` dict per input engine, in order.
    """
    in_process = [
        isinstance(engine.default_executor(), SerialExecutor)
        for engine, _ in runs
    ]
    advisory = [
        engine.session
        for (engine, _), local in zip(runs, in_process)
        if local and not engine.session.length_verified
    ]
    if len(advisory) > 1:
        packed_golden_runs(advisory)
    results: List[Dict[str, StructureCampaignResult]] = []
    opened: List[Tuple[DelayAVFEngine, Dict, _Campaign]] = []
    for (engine, structures), local in zip(runs, in_process):
        by_structure: Dict[str, StructureCampaignResult] = {}
        results.append(by_structure)
        for structure in structures:
            if not local:
                by_structure[structure] = engine.run_structure(structure)
                continue
            with tracing.span(
                "campaign.prepare", cat="campaign",
                structure=structure, benchmark=engine.program.name,
            ):
                opened.append(
                    (engine, by_structure, engine._open(structure, local=True))
                )
    executed = []
    if opened:
        executed = execute_shards(
            [
                (engine.session, campaign.plan.shards)
                for engine, _, campaign in opened
            ],
            [campaign.reporter for _, _, campaign in opened],
        )
    for (engine, by_structure, campaign), shard_results in zip(
        opened, executed
    ):
        structure = campaign.plan.structure
        with tracing.span(
            "campaign.run", cat="campaign",
            structure=structure, benchmark=engine.program.name, grouped=True,
        ):
            by_structure[structure] = engine._close(
                campaign, engine._merge(campaign.plan, shard_results)
            )
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

    Callers hand it sessions about to need a golden run.  Only sessions of
    known length pack (checkpoint positions are sampled from it), and only
    on a netlist two or more share: a one-lane word is slower than the
    scalar run.  The rest, and a packed run that fails adoption (stale
    hint), keep the scalar path.
    """
    by_netlist: Dict[int, Dict[int, CampaignSession]] = {}
    for session in sessions:
        if session._golden is None and session._known_length()[0] is not None:
            group = by_netlist.setdefault(id(session.system.netlist), {})
            group[id(session)] = session
    for group in by_netlist.values():
        if len(group) < 2:
            continue
        members = list(group.values())
        for start in range(0, len(members), MAX_LANES):
            _run_packed_golden_chunk(members[start : start + MAX_LANES])


def _run_packed_golden_chunk(chunk: Sequence[CampaignSession]) -> None:
    """One packed word's worth of golden runs, scalar-run-exact per lane.

    Mirrors the scalar :meth:`CycleSimulator.run` loop per lane: at each
    cycle boundary append the state fingerprint, capture a checkpoint if
    the cycle is sampled (``prev_settled`` is the lane's just-settled net
    values — available because :meth:`PackedCycleSimulator.step` leaves the
    settled values of the cycle it latched), then step.  A lane whose
    environment halts (or that hits the
    :data:`~repro.workloads.lengths.MAX_RUN_CYCLES` cap) finalizes
    its result and retires; the word keeps stepping for the rest.
    """
    first = chunk[0]
    with first.telemetry.phase(
        "golden", "session.golden_run_packed", cat="session",
        workloads=len(chunk),
    ):
        scalar = first.system.simulator()
        psim = PackedCycleSimulator(scalar.netlist, scalar.plan)
        envs = [s.system.make_env(s.program) for s in chunk]
        wanted = [set(s.sampled_cycles) for s in chunk]
        cap = lengths.MAX_RUN_CYCLES
        results = [
            RunResult(cycles=0, halted=False, observables=()) for _ in chunk
        ]
        psim.load_reset(envs)
        psim.settle()  # boundary-0 settled values (scalar reset() semantics)
        active = set(range(len(chunk)))
        # Every lane starts at cycle 0, so word-step i holds each lane's
        # cycle-i state; each step latches into a fresh word.
        rows = DffRows(len(chunk))
        while active:
            rows.append(psim.dff_values)
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
                if halted or psim.lane_cycles[lane] >= cap:
                    run = results[lane]
                    run.cycles = psim.lane_cycles[lane]
                    run.halted = halted
                    run.observables = envs[lane].observables()
                    active.discard(lane)
                    psim.retire_lane(lane)
        for lane, run in enumerate(results):
            run.dff_rows = rows.lane(lane)[: run.cycles]
    for session, run in zip(chunk, results):
        session.telemetry.incr("golden_runs")
        session.adopt_golden(run)
