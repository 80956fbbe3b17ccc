"""Command-line interface.

Examples::

    python -m repro structures
    python -m repro run md5
    python -m repro disasm libstrstr --limit 20
    python -m repro paths alu
    python -m repro delayavf md5 alu --delays 0.5 0.9 --wires 24 --cycles 6
    python -m repro delayavf md5 alu --jobs 4 --cache-dir .verdicts --stats
    python -m repro delayavf md5 alu --jobs 4 --cache-dir .verdicts --resume
    python -m repro delayavf md5 alu --jobs 4 --shard-timeout 600 --max-retries 3
    python -m repro delayavf md5 alu --format json
    python -m repro delayavf md5 alu --target-half-width 0.02
    python -m repro doctor md5 alu --cache-dir .verdicts
    python -m repro fsck .verdicts --quarantine
    python -m repro savf libstrstr regfile --bits 24 --ecc
    python -m repro delayavf gen:7:pattern=chase alu --delays 0.5
    python -m repro genwork 10 --structure decoder --pool 24 --cache-dir .verdicts
    python -m repro serve --port 8321 --workers 2 --cache-dir .verdicts
    python -m repro delayavf md5 alu --workers-from 127.0.0.1:8765
    python -m repro worker --connect 127.0.0.1:8765

``doctor`` preflights inputs without running anything and exits 0 when every
check passes, 1 on a fatal input error, and 2 when there are only warnings,
so pipelines can gate campaign launches on it.

The ``delayavf`` and ``savf`` subcommands are thin wrappers around the
:mod:`repro.api` facade; scripts should call :func:`repro.api.analyze` /
:func:`repro.api.savf` directly instead of shelling out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro import api
from repro.analysis.figures import render_histogram
from repro.analysis.report import render_telemetry
from repro.analysis.tables import format_estimate, render_table
from repro.core.campaign import CampaignConfig
from repro.core.guards import (
    Finding,
    preflight_cache_dir,
    preflight_campaign,
    preflight_structure,
    preflight_system,
)
from repro.errors import (
    EXIT_FATAL,
    EXIT_OK,
    EXIT_WARNINGS,
    InputError,
    ReproError,
    exit_code_for,
)
from repro.isa.disasm import disassemble
from repro.netlist.stats import structure_stats
from repro.soc.system import build_system
from repro.timing.paths import path_length_distribution
from repro.workloads.beebs import BENCHMARK_NAMES
from repro.workloads.generator import GeneratorKnobs
from repro.workloads.registry import (
    resolve_expected_output,
    resolve_program,
    workload_name_hint,
)


_WORKLOAD_HELP = (
    "bundled benchmark (" + ", ".join(BENCHMARK_NAMES)
    + ") or a generated-workload spec like gen:7 or "
    "gen:7:pattern=chase,blocks=3"
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ecc", action="store_true",
        help="use the SEC-ECC-protected register file configuration",
    )


def _add_observability(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a span trace of the campaign to PATH when it finishes "
             "(Chrome trace-event JSON, loadable in Perfetto; use a .jsonl "
             "extension for one-span-per-line output)",
    )
    parser.add_argument(
        "--progress", action=argparse.BooleanOptionalAction, default=None,
        help="stream live shard progress (done/total, ETA, cache-hit rate, "
             "recovery events) to stderr",
    )
    parser.add_argument(
        "--metrics-out", default=None, dest="metrics_out", metavar="PATH",
        help="write a campaign metrics snapshot to PATH (Prometheus textfile "
             "format, or JSON for a .json extension) plus a throttled "
             "PATH.heartbeat JSON while the campaign runs",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DelayAVF: vulnerability analysis for small delay faults",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("structures", help="list analyzable structures (Table I)")
    _add_common(p)

    p = sub.add_parser("run", help="run a workload on the gate-level core")
    p.add_argument("benchmark", metavar="WORKLOAD", help=_WORKLOAD_HELP)
    p.add_argument("--max-cycles", type=int, default=60_000)
    _add_common(p)

    p = sub.add_parser("disasm", help="disassemble a workload image")
    p.add_argument("benchmark", metavar="WORKLOAD", help=_WORKLOAD_HELP)
    p.add_argument("--limit", type=int, default=None, help="max instructions")

    p = sub.add_parser("paths", help="path-length distribution (Fig. 6)")
    p.add_argument("structure")
    p.add_argument("--bins", type=int, default=10)
    _add_common(p)

    p = sub.add_parser("delayavf", help="run a DelayAVF campaign")
    p.add_argument("benchmark", metavar="WORKLOAD", help=_WORKLOAD_HELP)
    p.add_argument("structure")
    p.add_argument("--delays", type=float, nargs="+", default=[0.5, 0.9])
    p.add_argument("--wires", type=int, default=24)
    p.add_argument("--cycles", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--lanes", type=int, default=None,
        help="packed simulation width in bit-planes, 1..64 "
             "(1 disables lane packing; default 64)",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="local worker processes (>1 forks that many workers and shards "
             "the campaign over them)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="directory for the persistent verdict cache (warm-starts reruns)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="skip shards already completed in the verdict cache "
             "(resumes an interrupted campaign; requires --cache-dir)",
    )
    p.add_argument(
        "--shard-timeout", type=float, default=None, dest="shard_timeout",
        metavar="SECONDS",
        help="per-shard timeout before a hung worker is evicted "
             "(--jobs / --workers-from campaigns; default: no timeout)",
    )
    p.add_argument(
        "--max-retries", type=int, default=None, dest="max_retries",
        metavar="N",
        help="additional attempts granted to a failing shard (default: 2)",
    )
    p.add_argument(
        "--workers-from", default=None, dest="workers_from", metavar="ADDR",
        help="dispatch shards to remote 'repro worker' processes: listen on "
             "HOST:PORT (socket transport) or poll queue:DIR (shared "
             "filesystem); falls back to serial when no worker joins",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print campaign telemetry (cache hits, skips, phase times)",
    )
    p.add_argument(
        "--target-half-width", type=float, default=None,
        dest="target_half_width", metavar="W",
        help="adaptive precision: keep widening the sample until every "
             "reported confidence interval is at most +/-W wide",
    )
    p.add_argument(
        "--confidence", type=float, default=0.95,
        help="confidence level of the reported intervals (default: 0.95)",
    )
    p.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (json emits a machine-readable payload)",
    )
    _add_observability(p)
    _add_common(p)

    p = sub.add_parser(
        "doctor",
        help="preflight-check inputs without running a campaign "
             "(exit 0 clean, 1 fatal error, 2 warnings only)",
    )
    p.add_argument(
        "benchmark", nargs="?", default=None,
        help="benchmark to validate (optional; validated by name so an "
             "unknown one is a fatal finding, not a usage error)",
    )
    p.add_argument(
        "structure", nargs="?", default=None,
        help="structure to validate against the wire-sample request",
    )
    p.add_argument("--wires", type=int, default=None,
                   help="wire-sample size to validate against the structure")
    p.add_argument("--cache-dir", default=None,
                   help="verdict-cache directory to check for writability")
    p.add_argument(
        "--clock-period", type=float, default=None, dest="clock_period",
        metavar="PS",
        help="operating clock period override to validate against the "
             "longest register-to-register path",
    )
    p.add_argument(
        "--lanes", type=int, default=None,
        help="packed simulation width to validate (1..64 bit-planes)",
    )
    _add_common(p)

    p = sub.add_parser("savf", help="run a particle-strike sAVF campaign")
    p.add_argument("benchmark", metavar="WORKLOAD", help=_WORKLOAD_HELP)
    p.add_argument("structure")
    p.add_argument("--bits", type=int, default=24)
    p.add_argument("--cycles", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (json emits a machine-readable payload)",
    )
    _add_observability(p)
    _add_common(p)

    p = sub.add_parser(
        "genwork",
        help="propose generated workloads maximizing structure coverage",
    )
    p.add_argument(
        "count", nargs="?", type=int, default=10,
        help="how many workloads to select (default: 10)",
    )
    p.add_argument(
        "--structure", default="decoder",
        help="structure whose wire coverage to maximize (default: decoder)",
    )
    p.add_argument(
        "--pool", type=int, default=None,
        help="candidate pool size (default: max(2*count, count+4))",
    )
    p.add_argument(
        "--base-seed", type=int, default=0, dest="base_seed",
        help="first candidate seed; candidates are consecutive seeds",
    )
    p.add_argument(
        "--knobs", default=None,
        help="generator knob overrides for every candidate, e.g. "
             "pattern=chase,blocks=3 (see gen:<seed>:<knobs> specs)",
    )
    p.add_argument(
        "--delays", type=float, nargs="+", default=None,
        help="probe-campaign delay fractions (default: 0.5)",
    )
    p.add_argument(
        "--wires", type=int, default=None,
        help="probe-campaign wire sample per candidate (default: 12)",
    )
    p.add_argument(
        "--cycles", type=int, default=None,
        help="probe-campaign injection cycles per candidate (default: 3)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="persistent verdict cache for the probe campaigns (re-proposing "
             "from a warm cache runs no simulation)",
    )
    p.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (json emits the full selection payload)",
    )
    _add_common(p)

    p = sub.add_parser(
        "serve",
        help="run the campaign service daemon (JSON over HTTP, /v1 API)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 binds an ephemeral port; the bound address is "
             "printed once listening)",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="concurrent job-executing worker threads (default: 2)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="default persistent verdict-cache directory applied to jobs "
             "that do not set one (repeat queries then warm-start from it)",
    )
    p.add_argument(
        "--workers-from", default=None, dest="workers_from", metavar="ADDR",
        help="default remote-worker listen address applied to jobs that do "
             "not set one (HOST:PORT or queue:DIR; see 'repro worker')",
    )
    p.add_argument(
        "--journal-dir", default=None, dest="journal_dir", metavar="DIR",
        help="write-ahead job journal directory: accepted jobs survive "
             "daemon crashes (incomplete jobs re-run on restart, finished "
             "ones are served from the journal's result store)",
    )
    p.add_argument(
        "--journal-fsync", default="always", dest="journal_fsync",
        choices=("always", "interval", "never"),
        help="journal durability: fsync every event (always, default), "
             "at most every few seconds (interval), or leave flushing to "
             "the OS (never)",
    )
    p.add_argument(
        "--max-queued", type=int, default=None, dest="max_queued",
        metavar="N",
        help="reject new submissions with 429 + Retry-After once this many "
             "jobs are queued or running (default: unbounded)",
    )

    p = sub.add_parser(
        "fsck",
        help="verify verdict-cache file integrity "
             "(exit 0 clean, 1 corrupt files, 2 warnings only)",
    )
    p.add_argument(
        "cache_dir", metavar="CACHE_DIR",
        help="verdict-cache directory to scan (every verdicts-*.json)",
    )
    p.add_argument(
        "--quarantine", action="store_true",
        help="rename corrupt files to <name>.corrupt-<timestamp> so the "
             "next campaign rebuilds them instead of tripping on them",
    )

    p = sub.add_parser(
        "worker",
        help="serve campaign shards to a remote coordinator "
             "(the fleet side of --workers-from)",
    )
    p.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="coordinator socket address to connect to",
    )
    p.add_argument(
        "--queue", default=None, metavar="DIR",
        help="shared-filesystem queue directory to announce in "
             "(alternative to --connect)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="worker-local verdict-cache directory override (use when the "
             "worker does not share a filesystem with the coordinator)",
    )
    p.add_argument(
        "--retry-seconds", type=float, default=30.0, dest="retry_seconds",
        metavar="SECONDS",
        help="how long to retry connecting while the coordinator comes up "
             "(socket transport; default: 30)",
    )
    p.add_argument(
        "--max-idle", type=float, default=None, dest="max_idle",
        metavar="SECONDS",
        help="exit after this long without a message from the coordinator "
             "(default: wait forever)",
    )

    p = sub.add_parser(
        "trace", help="inspect span traces written with --trace"
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)
    ts = tsub.add_parser(
        "summarize",
        help="per-span-name wall-clock vs cumulative breakdown of a trace",
    )
    ts.add_argument("path", help="trace file (Chrome trace JSON or JSONL)")

    return parser


def cmd_structures(args) -> int:
    system = build_system(use_ecc=args.ecc)
    stats = structure_stats(system.netlist, system.structures)
    rows = [
        [name, s.num_wires, s.num_cells, s.num_state_bits]
        for name, s in stats.items()
    ]
    print(render_table(
        ["structure", "wires |E|", "cells", "state bits"],
        rows,
        title=f"{system.netlist.name}: clock period {system.clock_period:.0f} ps",
    ))
    return 0


def cmd_run(args) -> int:
    system = build_system(use_ecc=args.ecc)
    try:
        program = resolve_program(args.benchmark)
        expected = resolve_expected_output(args.benchmark)
    except ReproError as exc:
        print(f"error: {exc.describe()}", file=sys.stderr)
        return exit_code_for(exc)
    result = system.run_program(program, max_cycles=args.max_cycles)
    print(f"cycles:  {result.cycles}")
    print(f"halted:  {result.halted}")
    for event in result.observables:
        print(f"output:  {event}")
    ok = result.observables == expected
    print(f"matches expected output: {ok}")
    return 0 if (result.halted and ok) else 1


def cmd_disasm(args) -> int:
    try:
        program = resolve_program(args.benchmark)
    except ReproError as exc:
        print(f"error: {exc.describe()}", file=sys.stderr)
        return exit_code_for(exc)
    count = program.size // 4 if args.limit is None else args.limit
    labels = {addr: name for name, addr in program.symbols.items()}
    for index in range(count):
        addr = index * 4
        if addr >= program.size:
            break
        if addr in labels:
            print(f"{labels[addr]}:")
        print(f"  {addr:#06x}:  {disassemble(program.word_at(addr), addr)}")
    return 0


def cmd_paths(args) -> int:
    system = build_system(use_ecc=args.ecc)
    wires = system.structure_wires(args.structure)
    if not wires:
        print(f"error: no wires found for structure {args.structure!r}",
              file=sys.stderr)
        return 1
    dist = path_length_distribution(system.sta, args.structure, wires)
    print(render_histogram(
        dist.histogram(bins=args.bins),
        title=(
            f"{args.structure}: {len(dist.lengths)} wires, worst path / "
            f"clock period (T = {dist.clock_period:.0f} ps)"
        ),
    ))
    return 0


def _warn_health(*results) -> None:
    """Uniform stderr health warnings for any mix of campaign results.

    Fires whenever *any* result is degraded or suspect, regardless of the
    output format or subcommand — machine-readable stdout (``--format
    json``) must never silently swallow a health flag.  Results without
    health fields (e.g. :class:`SAVFResult`) contribute nothing.
    """
    degraded = [r for r in results if getattr(r, "degraded", False)]
    if degraded:
        names = ", ".join(
            sorted({getattr(r, "structure", "?") for r in degraded})
        )
        print(
            f"warning: campaign execution was degraded for {names} (worker "
            "faults were recovered; records are unaffected — see --stats)",
            file=sys.stderr,
        )
    suspect = [r for r in results if getattr(r, "suspect", False)]
    if suspect:
        print(
            "warning: result flagged SUSPECT by the invariant guards — do "
            "not trust these numbers:",
            file=sys.stderr,
        )
        for result in suspect:
            name = getattr(result, "structure", "?")
            for reason in getattr(result, "suspect_reasons", ()):
                print(f"  - [{name}] {reason}", file=sys.stderr)


def cmd_delayavf(args) -> int:
    try:
        config = CampaignConfig.from_cli_args(args)
    except ValueError as exc:
        print(f"error: invalid campaign configuration: {exc}", file=sys.stderr)
        return EXIT_FATAL
    try:
        result = api.analyze(
            args.structure, args.benchmark, config=config, ecc=args.ecc,
            target_half_width=args.target_half_width,
            confidence=args.confidence,
            trace=args.trace,
            progress=args.progress,
            metrics_out=args.metrics_out,
        )
    except ReproError as exc:
        print(f"error: {exc.describe()}", file=sys.stderr)
        return exit_code_for(exc)
    finally:
        api.shutdown()
    _warn_health(result)
    if args.format == "json":
        print(json.dumps(result.to_payload(), indent=2))
        return EXIT_OK
    rows = []
    achieved = 0
    for delay in config.delay_fractions:
        r = result.by_delay[delay]
        achieved = r.samples
        rows.append([
            f"{delay:.0%}", f"{r.static_reach_rate:.1%}",
            f"{r.dynamic_reach_rate:.1%}",
            format_estimate(r.delay_avf_ci(args.confidence)),
            format_estimate(r.or_delay_avf_ci(args.confidence)),
            f"{r.multi_bit_fraction:.1%}",
        ])
    print(render_table(
        ["d", "static", "dynamic", "DelayAVF", "OrDelayAVF", "multi-bit"],
        rows,
        title=(
            f"{args.structure} / {args.benchmark}: |E|={result.wire_count}, "
            f"{result.sampled_wires} wires x {len(result.sampled_cycles)} "
            f"cycles = {achieved} samples/delay "
            f"(+/- at {args.confidence:.0%} confidence)"
        ),
    ))
    if config.stats:
        print()
        print(render_telemetry(
            result.telemetry,
            title=f"campaign telemetry (jobs={config.jobs})",
        ))
    return 0


def cmd_doctor(args) -> int:
    """Preflight-check campaign inputs; exit 0 clean / 1 fatal / 2 warnings.

    The exit codes are the contract pipelines gate on: 0 means every check
    passed, 1 means at least one fatal input error (the campaign would
    refuse to start), 2 means warnings only (the campaign would run, with
    caveats).
    """
    system = build_system(use_ecc=args.ecc, clock_period_ps=args.clock_period)
    findings: List[Finding] = []
    try:
        config = CampaignConfig.from_cli_args(args)
    except ValueError as exc:
        findings.append(Finding(
            severity="error", code="config.invalid",
            message=f"invalid campaign configuration: {exc}",
            hint="campaign knobs are validated up front; fix the flag value",
        ))
        for finding in findings:
            print(finding.render())
        print(f"doctor: {len(findings)} error(s), 0 warning(s)")
        return EXIT_FATAL
    program = None
    if args.benchmark is not None:
        try:
            program = resolve_program(args.benchmark)
        except InputError as exc:
            findings.append(Finding(
                severity="error", code=exc.code, message=str(exc),
                hint=exc.hint or workload_name_hint(), error=exc,
            ))
    if program is not None:
        findings.extend(preflight_campaign(system, program, config))
    else:
        findings.extend(preflight_system(system))
        findings.extend(preflight_cache_dir(config.cache_dir))
    if args.structure is not None:
        findings.extend(preflight_structure(system, args.structure, args.wires))
    for finding in findings:
        print(finding.render())
    errors = sum(1 for f in findings if f.is_error)
    warns = len(findings) - errors
    if errors:
        print(f"doctor: {errors} error(s), {warns} warning(s)")
        return EXIT_FATAL
    if warns:
        print(f"doctor: {warns} warning(s), no errors")
        return EXIT_WARNINGS
    print("doctor: all checks passed")
    return EXIT_OK


def cmd_savf(args) -> int:
    config = CampaignConfig.from_cli_args(args)
    try:
        result = api.savf(
            args.structure, args.benchmark,
            bits=args.bits, seed=args.seed, config=config, ecc=args.ecc,
            trace=args.trace,
            progress=args.progress,
            metrics_out=args.metrics_out,
        )
    except ReproError as exc:
        print(f"error: {exc.describe()}", file=sys.stderr)
        return exit_code_for(exc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        api.shutdown()
    _warn_health(result)
    if args.format == "json":
        print(json.dumps(result.to_payload(), indent=2))
        return EXIT_OK
    print(render_table(
        ["structure", "samples", "ACE", "SDC", "DUE", "sAVF"],
        [[result.structure, result.samples, result.ace_count,
          result.sdc_count, result.due_count,
          format_estimate(result.savf_ci())]],
        title=f"sAVF — {args.structure} / {args.benchmark} "
              "(+/- at 95% confidence)",
    ))
    return 0


def cmd_genwork(args) -> int:
    """``repro genwork``: coverage-directed generated-workload proposal."""
    import dataclasses

    knobs = None
    if args.knobs:
        try:
            knobs = GeneratorKnobs.from_spec(args.knobs)
        except ValueError as exc:
            print(f"error: invalid --knobs: {exc}", file=sys.stderr)
            return EXIT_FATAL
    overrides = {}
    if args.delays is not None:
        overrides["delay_fractions"] = tuple(args.delays)
    if args.wires is not None:
        overrides["max_wires"] = args.wires
    if args.cycles is not None:
        overrides["cycle_count"] = args.cycles
    if args.cache_dir is not None:
        overrides["cache_dir"] = args.cache_dir
    try:
        config = (
            dataclasses.replace(api._GENWORK_PROBE, **overrides)
            if overrides else None
        )
    except ValueError as exc:
        print(f"error: invalid campaign configuration: {exc}", file=sys.stderr)
        return EXIT_FATAL
    try:
        selection = api.generate_workloads(
            args.count,
            target_structure=args.structure,
            pool=args.pool,
            base_seed=args.base_seed,
            knobs=knobs,
            config=config,
            ecc=args.ecc,
        )
    except ReproError as exc:
        print(f"error: {exc.describe()}", file=sys.stderr)
        return exit_code_for(exc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        api.shutdown()
    if args.format == "json":
        print(json.dumps(selection.to_payload(), indent=2))
        return EXIT_OK
    rows = []
    for step, spec in enumerate(selection.selected):
        vector = selection.vectors[spec]
        rows.append([
            step + 1,
            spec,
            vector.num_covered_wires,
            vector.num_covered_cycles,
            f"+{selection.gains[step]}",
        ])
    union = selection.union
    baseline = selection.baseline
    title = (
        f"{selection.structure}: {len(selection.selected)} of "
        f"{len(selection.candidates)} candidates; union covers "
        f"{union.num_covered_wires}/{union.wire_count} wires "
        f"({union.wire_coverage:.1%})"
    )
    if baseline is not None:
        title += (
            f" vs {baseline.num_covered_wires} sequential-seed baseline"
        )
    print(render_table(
        ["#", "workload", "wires", "cycles", "gain"], rows, title=title
    ))
    return EXIT_OK


def cmd_serve(args) -> int:
    """``repro serve``: run the campaign service until SIGTERM/SIGINT."""
    from repro.service import CampaignService, ServiceConfig

    try:
        service = CampaignService(ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_dir=args.cache_dir,
            workers_from=args.workers_from,
            journal_dir=args.journal_dir,
            journal_fsync=args.journal_fsync,
            max_queued=args.max_queued,
        ))
    except (OSError, ValueError) as exc:
        print(f"error: cannot start service: {exc}", file=sys.stderr)
        return EXIT_FATAL
    host, port = service.address
    # One parseable line, flushed before blocking, so scripts (and the CI
    # smoke) can discover an ephemeral port.
    print(f"repro-service listening on http://{host}:{port}", flush=True)
    service.serve_forever()
    print("repro-service drained and stopped", flush=True)
    return EXIT_OK


def cmd_fsck(args) -> int:
    """``repro fsck``: verdict-cache integrity scan, doctor exit contract.

    Exit 0 when every scope file verifies clean, 1 when any file is corrupt
    (torn write, bit rot, checksum mismatch), 2 when there are only
    warnings (legacy pre-checksum files, foreign schema versions).
    """
    report = api.fsck(args.cache_dir, quarantine=args.quarantine)
    if not os.path.isdir(args.cache_dir):
        print(f"error: {args.cache_dir!r} is not a directory", file=sys.stderr)
        return EXIT_FATAL
    for path, detail in report["ok"]:
        print(f"ok       {path}: {detail}")
    for path, detail in report["legacy"]:
        print(f"legacy   {path}: {detail}")
    for path, detail in report["foreign"]:
        print(f"foreign  {path}: {detail}")
    for path, detail in report["corrupt"]:
        print(f"CORRUPT  {path}: {detail}")
    for path, target in report["quarantined"]:
        print(f"         quarantined -> {target}")
    scanned = sum(
        len(report[key]) for key in ("ok", "legacy", "foreign", "corrupt")
    )
    corrupt = len(report["corrupt"])
    warns = len(report["legacy"]) + len(report["foreign"])
    summary = (
        f"fsck: {scanned} file(s) scanned, {corrupt} corrupt, "
        f"{warns} warning(s)"
    )
    if corrupt:
        if report["quarantined"]:
            summary += f", {len(report['quarantined'])} quarantined"
        elif not args.quarantine:
            summary += " (re-run with --quarantine to move them aside)"
        print(summary)
        return EXIT_FATAL
    print(summary)
    return EXIT_WARNINGS if warns else EXIT_OK


def cmd_worker(args) -> int:
    """``repro worker``: serve shards to a coordinator until shutdown."""
    from repro.distrib import transport
    from repro.distrib.worker import serve

    if bool(args.connect) == bool(args.queue):
        print(
            "error: pass exactly one of --connect HOST:PORT / --queue DIR",
            file=sys.stderr,
        )
        return EXIT_FATAL
    try:
        if args.connect:
            kind, host, port = transport.parse_workers_from(args.connect)
            if kind != "socket":
                raise ValueError("--connect takes HOST:PORT (use --queue for "
                                 "queue directories)")
            channel = transport.connect(
                host, port, retry_seconds=args.retry_seconds
            )
        else:
            channel = transport.announce(args.queue)
    except (transport.TransportError, ValueError, OSError) as exc:
        print(f"error: cannot reach coordinator: {exc}", file=sys.stderr)
        return EXIT_FATAL
    print(
        f"repro-worker serving "
        f"{args.connect or 'queue:' + args.queue} (pid {os.getpid()})",
        flush=True,
    )
    try:
        served = serve(
            channel, cache_dir=args.cache_dir, max_idle=args.max_idle
        )
    except transport.TransportError as exc:
        print(f"repro-worker coordinator gone: {exc}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        channel.close()
    print(f"repro-worker done after {served} shard(s)", flush=True)
    return EXIT_OK


def cmd_trace(args) -> int:
    """``repro trace summarize``: per-span wall vs cumulative breakdown."""
    from repro.core.tracing import load_trace, summarize_trace, trace_wall_seconds

    try:
        spans = load_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.path!r}: {exc}", file=sys.stderr)
        return 1
    if not spans:
        print(f"error: no spans in {args.path!r}", file=sys.stderr)
        return 1
    processes = {span.get("pid") for span in spans}
    rows = [
        [
            summary.name,
            summary.cat,
            summary.count,
            f"{summary.wall_seconds * 1000:.1f} ms",
            f"{summary.cpu_seconds * 1000:.1f} ms",
        ]
        for summary in summarize_trace(spans)
    ]
    print(render_table(
        ["span", "cat", "count", "wall", "cum"],
        rows,
        title=(
            f"{args.path}: {len(spans)} spans across {len(processes)} "
            f"process(es), {trace_wall_seconds(spans):.2f} s wall "
            "(wall merges overlaps; cum sums every span)"
        ),
    ))
    return 0


_COMMANDS = {
    "structures": cmd_structures,
    "run": cmd_run,
    "disasm": cmd_disasm,
    "paths": cmd_paths,
    "delayavf": cmd_delayavf,
    "doctor": cmd_doctor,
    "savf": cmd_savf,
    "genwork": cmd_genwork,
    "serve": cmd_serve,
    "fsck": cmd_fsck,
    "worker": cmd_worker,
    "trace": cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
