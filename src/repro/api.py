"""One-call analysis facade for DelayAVF campaigns.

This module is the supported programmatic entry point.  Instead of wiring a
system, a session, and an engine together by hand::

    system = build_system()
    session = CampaignSession(system, program, config)
    ...

callers make one call::

    from repro import analyze
    result = analyze("alu", "md5")
    print(result.delay_avf(0.5))

and get back a fully merged :class:`repro.core.results.StructureCampaignResult`.
Engines are cached per ``(workload, ecc, config)`` behind the scenes — the
workload keyed by its *content signature*, so two programs sharing a name
but differing in image never alias each other's engine — on one shared
system per ``ecc`` (:func:`system_for`), and repeated :func:`analyze`
calls against the same workload share the golden run, the warm
waveform/GroupACE caches, and (when ``config.jobs > 1``) the live local
workers, exactly like the CLI's engine does within one invocation.  Call
:func:`shutdown` to release workers and flush verdict caches explicitly;
an ``atexit`` hook drains whatever is still cached at interpreter exit, so
worker processes are not leaked even when callers forget.

The facade is a thin veneer: results are byte-identical to driving
:class:`repro.core.campaign.DelayAVFEngine` directly with the same
:class:`repro.core.campaign.CampaignConfig`, and the ``delayavf`` CLI is
itself built on these functions.  Where a run reports — the *progress*
ticker and the *metrics_out* snapshot and heartbeat — is an argument of
each call, never a config field, so it cannot split the engine cache.
"""

from __future__ import annotations

import atexit
import dataclasses
import threading
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.core import tracing
from repro.core.cache import program_signature
from repro.core.campaign import (
    CampaignConfig,
    DelayAVFEngine,
    run_structures_spanning,
)
from repro.core.coverage import (
    WorkloadSelection,
    coverage_from_result,
    select_workloads,
    union_coverage,
)
from repro.core.executor import SessionSpec, shutdown_shared_executors
from repro.core.metrics import heartbeat_path, write_metrics
from repro.core.progress import Heartbeat, ProgressReporter
from repro.core.results import SAVFResult, StructureCampaignResult
from repro.core.savf import SAVFEngine
from repro.core.stats import DEFAULT_CONFIDENCE
from repro.core.telemetry import CampaignTelemetry
from repro.isa.assembler import Program
from repro.soc.system import IbexMiniSystem, build_system
from repro.workloads.generator import GeneratorKnobs, format_gen_spec
from repro.workloads.registry import resolve_program

__all__ = [
    "analyze",
    "sweep",
    "savf",
    "fsck",
    "generate_workloads",
    "engine_for",
    "system_for",
    "engine_cache_stats",
    "shutdown",
    "CampaignConfig",
]

#: (program content signature, ecc, config) -> live engine
_ENGINES: Dict[Tuple, DelayAVFEngine] = {}
#: guards _ENGINES / _CACHE_STATS (never held while an engine is being
#: *built* — construction can run golden simulations)
_REGISTRY_LOCK = threading.Lock()
_BUILD_LOCK = threading.Lock()  #: one engine or system builds at a time
_CACHE_STATS = {"hits": 0, "misses": 0}
_SYSTEMS: Dict[bool, IbexMiniSystem] = {}  #: ecc -> the engines' one system


def _resolve_program(workload: Union[str, Program]) -> Program:
    if isinstance(workload, Program):
        return workload
    # Bundled benchmark names and gen:<seed>[:knobs] specs both resolve
    # here; generated specs are canonicalized so equivalent spellings share
    # one signature (and hence one cached engine).
    return resolve_program(workload)


def _engine(
    workload: Union[str, Program],
    ecc: bool,
    config: CampaignConfig,
) -> DelayAVFEngine:
    """The cached engine for this (workload, ecc, config) triple.

    ``CampaignConfig`` is frozen with tuple fields, so it hashes; programs
    key by :func:`repro.core.cache.program_signature` — a content hash of
    the image, not the name — so an ad-hoc program that happens to share a
    bundled benchmark's name can never silently reuse the wrong engine
    (wrong golden run, wrong verdicts).  Where a run reports is no config
    field but an argument of each call, so concurrent service jobs
    differing only in where they report share one engine — and its warm
    verdicts.

    Thread-safe: lookups synchronize on a registry lock, and construction
    (which may run golden simulations) happens under one build lock, so
    racing threads build an engine exactly once and never simulate on a
    shared system at the same time.
    """
    program = _resolve_program(workload)
    key = (program_signature(program), bool(ecc), config)
    with _REGISTRY_LOCK:
        engine = _ENGINES.get(key)
        if engine is not None:
            _CACHE_STATS["hits"] += 1
            return engine
    system = system_for(ecc=ecc)
    with _BUILD_LOCK:
        with _REGISTRY_LOCK:
            engine = _ENGINES.get(key)
            if engine is not None:
                _CACHE_STATS["hits"] += 1
                return engine
        spec = SessionSpec(program=program, config=config, ecc=bool(ecc))
        engine = DelayAVFEngine.from_spec(spec, system=system)
        with _REGISTRY_LOCK:
            _ENGINES[key] = engine
            _CACHE_STATS["misses"] += 1
    return engine


def system_for(*, ecc: bool = False) -> IbexMiniSystem:
    """The one system all facade engines of this *ecc* share; callers that
    run campaigns from several threads serialize them on it."""
    ecc = bool(ecc)
    with _BUILD_LOCK:
        if ecc not in _SYSTEMS:
            _SYSTEMS[ecc] = build_system(use_ecc=ecc)
        return _SYSTEMS[ecc]


def engine_for(
    workload: Union[str, Program],
    *,
    ecc: bool = False,
    config: Optional[CampaignConfig] = None,
) -> DelayAVFEngine:
    """The shared cached engine :func:`analyze` / :func:`savf` would use.

    Public handle for long-lived callers (the campaign service) that need
    the engine itself — e.g. to serialize runs on it per job.  Same cache,
    same key, same thread-safety as the internal path.
    """
    return _engine(workload, ecc, config or CampaignConfig())


def engine_cache_stats() -> Dict[str, int]:
    """Engine-cache effectiveness: ``{"hits": ..., "misses": ..., "size": ...}``."""
    with _REGISTRY_LOCK:
        return {
            "hits": _CACHE_STATS["hits"],
            "misses": _CACHE_STATS["misses"],
            "size": len(_ENGINES),
        }


def _observed_config(
    config: CampaignConfig, trace: Optional[str]
) -> CampaignConfig:
    """Fold a per-call *trace* file into a config (it turns tracing on)."""
    return dataclasses.replace(config, trace=True) if trace else config


def _reporter_for(
    progress: Optional[bool], metrics_out: Optional[str], label: str
) -> Optional[ProgressReporter]:
    """The one progress-reporter factory: a stderr ticker with *progress*,
    a throttled ``<metrics_out>.heartbeat`` file with *metrics_out*, or
    ``None`` when the call asked for neither."""
    if not (progress or metrics_out):
        return None
    return ProgressReporter(
        enabled=bool(progress),
        heartbeat=(
            Heartbeat(heartbeat_path(metrics_out)) if metrics_out else None
        ),
        label=label,
    )


def analyze(
    structure: str,
    workload: Union[str, Program],
    *,
    config: Optional[CampaignConfig] = None,
    ecc: bool = False,
    target_half_width: Optional[float] = None,
    confidence: float = DEFAULT_CONFIDENCE,
    trace: Optional[str] = None,
    progress: Optional[bool] = None,
    metrics_out: Optional[str] = None,
) -> StructureCampaignResult:
    """Run a DelayAVF campaign for one structure and workload.

    *workload* is a bundled benchmark name (``"md5"``), a generated
    workload spec (``"gen:7"``, ``"gen:7:pattern=chase"``), or a loaded
    :class:`~repro.isa.assembler.Program`.  *config* defaults to
    ``CampaignConfig()``; pass one explicitly to control the delay sweep,
    sampling, parallelism (``jobs``, or a ``workers_from`` fleet of joining
    ``repro worker`` processes), fault tolerance, or the persistent verdict
    cache.  With ``config.cache_dir`` the campaign simulates only the
    injections whose records the cache lacks, so re-running an interrupted
    campaign picks up where it left off.

    With *target_half_width* the campaign turns adaptive: after the initial
    wave it keeps widening the wire/cycle sample (never re-simulating an
    already-covered injection) until every reported Wilson interval at
    *confidence* is at most that wide, the structure's population is
    exhausted, or :data:`repro.core.campaign.REFINE_MAX_ROUNDS` refinement
    rounds have run.

    Inputs are preflighted up front and fatal problems raise
    :class:`repro.errors.ReproError` before any shard executes.  The
    result carries per-delay records with confidence
    intervals, the campaign's telemetry slice, a ``degraded`` flag
    reporting fault-tolerant recovery, and — when the post-merge invariant
    guards find impossible data — a ``suspect`` flag with machine-readable
    reasons.

    Observability per call: *trace* names a file that receives the
    campaign's span trace when the run finishes (Chrome trace-event JSON,
    loadable in Perfetto, or JSONL for a ``.jsonl`` path); *progress*
    streams live shard progress to stderr; *metrics_out* writes a
    Prometheus-textfile / JSON metrics snapshot (plus a throttled
    ``.heartbeat`` file while running).  *progress* and *metrics_out* are
    this call's alone; *trace* also turns on the config's ``trace`` field.
    """
    run_config = _observed_config(config or CampaignConfig(), trace)
    if trace:
        # Fresh buffer per traced call — engine construction below (probe /
        # golden runs on a cold engine) is part of the campaign's story.
        tracing.enable(reset=True)
    engine = _engine(workload, ecc, run_config)
    reporter = _reporter_for(
        progress, metrics_out, f"{engine.program.name}/{structure}"
    )
    if target_half_width is not None:
        result = engine.run_structure_adaptive(
            structure,
            target_half_width,
            confidence=confidence,
            reporter=reporter,
        )
    else:
        result = engine.run_structure(structure, reporter=reporter)
    if metrics_out:
        # Written here, per call, from the campaign's telemetry slice.
        write_metrics(
            metrics_out,
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
    if trace:
        tracing.write_trace(trace, tracing.drain())
    return result


def sweep(
    structures: Iterable[str],
    workloads: Iterable[Union[str, Program]],
    delays: Optional[Sequence[float]] = None,
    *,
    config: Optional[CampaignConfig] = None,
    ecc: bool = False,
) -> Dict[Tuple[str, str], StructureCampaignResult]:
    """Cross-product campaign: every structure under every workload.

    One :func:`~repro.core.campaign.run_structures_spanning` call: run
    in-process (the default), the whole cross-product's shards go through
    one :func:`~repro.core.executor.execute_shards` call, whose one packed
    prefetch resolves the GroupACE queries of every structure AND workload
    — every workload of the SoC runs on the same netlist, so all the
    campaigns' injected simulations share the same 64-lane words, as do its
    golden runs (none if all cached).
    With ``jobs > 1`` or ``workers_from`` each campaign runs on the worker
    fleet in turn.  Records are byte-identical to per-structure
    :func:`analyze` calls.  *delays* overrides the config's delay sweep for
    every campaign in the sweep.  Returns ``{(structure, workload_name):
    result}``.
    """
    config = config or CampaignConfig()
    if delays is not None:
        config = dataclasses.replace(config, delay_fractions=tuple(delays))
    results: Dict[Tuple[str, str], StructureCampaignResult] = {}
    structures = list(structures)
    engines = [_engine(workload, ecc, config) for workload in workloads]
    spanned = run_structures_spanning(
        [(engine, structures) for engine in engines]
    )
    for engine, by_structure in zip(engines, spanned):
        for structure, result in by_structure.items():
            results[(structure, engine.program.name)] = result
    return results


def savf(
    structure: str,
    workload: Union[str, Program],
    *,
    bits: int = 24,
    seed: int = 0,
    config: Optional[CampaignConfig] = None,
    ecc: bool = False,
    trace: Optional[str] = None,
    progress: Optional[bool] = None,
    metrics_out: Optional[str] = None,
) -> SAVFResult:
    """Particle-strike sAVF estimate (the paper's comparison baseline).

    Reuses the same cached campaign session as :func:`analyze`, so running
    both for one workload costs a single golden run.  *trace* / *progress* /
    *metrics_out* behave as in :func:`analyze` (per-cycle progress ticks;
    the metrics snapshot covers the telemetry delta of this call).
    """
    run_config = _observed_config(config or CampaignConfig(), trace)
    if trace:
        tracing.enable(reset=True)
    engine = _engine(workload, ecc, run_config)
    reporter = _reporter_for(
        progress, metrics_out, f"{engine.program.name}/{structure}:savf"
    )
    before = engine.telemetry.snapshot()
    result = SAVFEngine(engine.session).run_structure(
        structure, max_bits=bits, seed=seed, progress=reporter
    )
    if metrics_out:
        write_metrics(
            metrics_out,
            CampaignTelemetry.from_snapshot(engine.telemetry.diff(before)),
            labels={
                "structure": structure,
                "benchmark": engine.program.name,
                "mode": "savf",
            },
        )
    if trace:
        tracing.write_trace(trace, tracing.drain())
    return result


#: Default probe-campaign shape for coverage-directed selection: a small
#: single-delay sample, oracle analysis off — enough traffic diversity
#: signal to rank candidates without paying for a full sweep per seed.
#: The probe uses the deepest delay (0.9): it intrudes furthest into the
#: cycle, so it maximizes each injection's dynamic reach and hence the
#: coverage signal (shallow delays propagate almost nothing on logic-deep
#: structures like the decoder).
_GENWORK_PROBE = CampaignConfig(
    delay_fractions=(0.9,),
    max_wires=12,
    cycle_count=3,
    compute_orace=False,
)


def generate_workloads(
    count: int,
    *,
    target_structure: str = "decoder",
    pool: Optional[int] = None,
    base_seed: int = 0,
    knobs: Optional[GeneratorKnobs] = None,
    config: Optional[CampaignConfig] = None,
    ecc: bool = False,
) -> WorkloadSelection:
    """Propose *count* generated workloads maximizing structure coverage.

    Builds a candidate pool of constrained-random workloads (seeds
    ``base_seed .. base_seed + pool - 1`` under *knobs*; *pool* defaults to
    ``max(2 * count, count + 4)``), runs a small probe campaign for each on
    *target_structure* (a lighter single-delay :data:`_GENWORK_PROBE`
    config unless *config* is given), extracts a
    :class:`~repro.core.coverage.CoverageVector` per candidate, and picks
    *count* of them greedily by marginal wire coverage.

    The returned :class:`~repro.core.coverage.WorkloadSelection` carries
    the selected specs (usable directly as workload names in
    :func:`analyze` / :func:`sweep` / the CLI / the service), the per-step
    marginal gains, every candidate's vector, the selection's combined
    coverage, and the sequential-seed baseline (the first *count*
    candidates) it is measured against.  Vectors are computed from the
    probe results; with ``config.cache_dir`` set the probe campaigns
    persist their records, so re-proposing from a warm cache runs no
    simulation.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    pool_size = max(2 * count, count + 4) if pool is None else int(pool)
    if pool_size < count:
        raise ValueError(
            f"candidate pool ({pool_size}) smaller than count ({count})"
        )
    knobs = knobs or GeneratorKnobs()
    probe_config = config or _GENWORK_PROBE
    candidates = tuple(
        format_gen_spec(base_seed + index, knobs) for index in range(pool_size)
    )
    vectors = {}
    for spec in candidates:
        result = analyze(
            target_structure, spec, config=probe_config, ecc=ecc
        )
        vectors[spec] = coverage_from_result(result)
    selected, gains = select_workloads(vectors, count)
    return WorkloadSelection(
        structure=target_structure,
        selected=tuple(selected),
        gains=tuple(gains),
        candidates=candidates,
        vectors=vectors,
        union=union_coverage([vectors[name] for name in selected]),
        baseline=union_coverage(
            [vectors[name] for name in candidates[: len(selected)]]
        ),
    )


def fsck(cache_dir, quarantine: bool = False) -> Dict[str, list]:
    """Verify every verdict-cache scope file in *cache_dir*.

    Returns the :func:`repro.core.cache.verify_cache_dir` report:
    ``{"ok" | "foreign" | "corrupt": [(path, detail), ...],
    "quarantined": [(path, new_path), ...]}``.  With *quarantine* true,
    corrupt files are renamed aside exactly as a live campaign load would,
    so the next run rebuilds them from simulation.
    """
    from repro.core.cache import verify_cache_dir

    return verify_cache_dir(cache_dir, quarantine=quarantine)


def shutdown() -> None:
    """Close every cached engine: worker fleets stop, verdict caches flush,
    and the shared systems go with their workload memos.

    Idempotent, and also registered as an ``atexit`` hook so the parallel
    path's worker processes are reclaimed even when callers never shut down
    explicitly.
    """
    with _REGISTRY_LOCK:
        engines = list(_ENGINES.values())
        _ENGINES.clear()
    with _BUILD_LOCK:
        _SYSTEMS.clear()
    for engine in engines:
        engine.close()
    # Shared workers_from fleets are engine-independent (one per listen
    # address); engine.close() intentionally leaves them up, so release them.
    shutdown_shared_executors()


# Drain cached engines at interpreter exit: without this, a caller that used
# config.jobs > 1 and never called shutdown() leaked its worker processes.
atexit.register(shutdown)
