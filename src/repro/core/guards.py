"""Invariant guards and preflight validation for campaigns.

Two defensive layers around the campaign engine:

**Post-merge invariant guards** (:func:`check_campaign_result`,
:func:`apply_guards`) re-derive the algebraic facts the paper guarantees —
a delay-ACE injection must have produced state-element errors, an error set
cannot exceed the statically reachable set, static reachability is monotone
in the injected delay (a longer delay can only violate more paths), Eq. 4
forces ``DelayAVF <= OrDelayAVF`` in the absence of multi-bit compounding —
and mark a merged :class:`repro.core.results.StructureCampaignResult`
``suspect`` with machine-readable reasons when any fails.  A violation means
the result is *wrong* (cache corruption, a simulator bug, mixed-provenance
records), not merely imprecise, so the guards annotate instead of crashing:
a service returns the flagged result and lets the operator decide.

**Preflight validation** (:func:`preflight_campaign`,
:func:`ensure_preflight`) checks a campaign's inputs *before any shard
executes*: netlist connectivity, timing-library sanity, an operating clock
period the fault-free design can actually meet, workload feasibility, and
cache-directory writability.  Problems surface as :class:`Finding` rows —
``repro doctor`` prints all of them; :mod:`repro.api` raises the first
fatal one as a :class:`repro.errors.ReproError`.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.results import (
    DelayAVFResult,
    SAVFResult,
    StructureCampaignResult,
)
from repro.core.stats import DEFAULT_CONFIDENCE
from repro.errors import CacheError, InputError, ReproError, TimingError, WorkloadError

#: Slack for floating-point comparisons between derived rates.
_EPS = 1e-9


# ======================================================================
# Post-merge invariant guards
# ======================================================================
@dataclass(frozen=True)
class GuardViolation:
    """One violated invariant, in machine-readable form.

    ``code`` is stable (tests and pipelines dispatch on it); ``message``
    is the human-readable detail, including where the violation was seen
    and how often.
    """

    code: str
    message: str

    def render(self) -> str:
        return f"{self.code}: {self.message}"


def _record_violations(result: DelayAVFResult) -> List[GuardViolation]:
    """Per-record consistency checks, aggregated one violation per code."""
    hits: Dict[str, List[str]] = {}

    def hit(code: str, record, detail: str) -> None:
        hits.setdefault(code, []).append(
            f"wire {record.wire_index} cycle {record.cycle}: {detail}"
        )

    for record in result.records:
        if record.num_errors < 0 or record.num_statically_reachable < 0:
            hit(
                "negative-count", record,
                f"num_errors={record.num_errors}, "
                f"num_statically_reachable={record.num_statically_reachable}",
            )
            continue
        if not record.statically_reachable and (
            record.num_statically_reachable > 0
            or record.num_errors > 0
            or record.outcome.is_failure
        ):
            hit(
                "static-unreachable-inconsistent", record,
                "statically unreachable injection reports errors or a failure",
            )
        if record.num_errors > record.num_statically_reachable:
            hit(
                "error-count-exceeds-static", record,
                f"{record.num_errors} errors in a statically reachable set "
                f"of {record.num_statically_reachable}",
            )
        if record.outcome.is_failure and record.num_errors == 0:
            hit(
                "failure-without-errors", record,
                f"outcome {record.outcome.value} with an empty error set",
            )
        if record.or_ace and record.num_errors == 0:
            hit("orace-without-errors", record, "ORACE verdict on an empty error set")
        if (
            record.num_errors == 1
            and record.or_ace is not None
            and bool(record.or_ace) != record.delay_ace
        ):
            # On a single-bit error set GroupACE degenerates to ORACE, so the
            # two verdicts must agree (Definition 6 reduces to Definition 4).
            hit(
                "singleton-orace-mismatch", record,
                f"or_ace={record.or_ace} but delay_ace={record.delay_ace} "
                "on a single-bit error set",
            )
    violations = []
    for code, examples in sorted(hits.items()):
        suffix = "" if len(examples) == 1 else f" (+{len(examples) - 1} more)"
        violations.append(
            GuardViolation(
                code=code,
                message=f"d={result.delay_fraction}: {examples[0]}{suffix}",
            )
        )
    return violations


def _aggregate_violations(result: DelayAVFResult) -> List[GuardViolation]:
    """Cross-metric inequality checks on one delay's merged rates."""
    violations: List[GuardViolation] = []
    d = result.delay_fraction
    if result.delay_avf > result.dynamic_reach_rate + _EPS:
        violations.append(
            GuardViolation(
                "avf-ordering",
                f"d={d}: DelayAVF {result.delay_avf:.6f} exceeds dynamic "
                f"reach rate {result.dynamic_reach_rate:.6f}",
            )
        )
    if result.dynamic_reach_rate > result.static_reach_rate + _EPS:
        violations.append(
            GuardViolation(
                "reach-ordering",
                f"d={d}: dynamic reach rate {result.dynamic_reach_rate:.6f} "
                f"exceeds static reach rate {result.static_reach_rate:.6f}",
            )
        )
    if result.or_delay_avf > result.dynamic_reach_rate + _EPS:
        violations.append(
            GuardViolation(
                "orace-ordering",
                f"d={d}: OrDelayAVF {result.or_delay_avf:.6f} exceeds "
                f"dynamic reach rate {result.dynamic_reach_rate:.6f}",
            )
        )
    # Eq. 4 composes per-element ORACE over the error set, so OrDelayAVF can
    # only fall below DelayAVF through multi-bit compounding (Table III).
    # With no multi-bit sets and every error set carrying an ORACE verdict,
    # the ordering is exact.
    orace_complete = all(
        r.or_ace is not None for r in result.records if r.num_errors > 0
    )
    if (
        orace_complete
        and result.multi_bit_fraction == 0.0
        and result.delay_avf > result.or_delay_avf + _EPS
    ):
        violations.append(
            GuardViolation(
                "eq4-ordering",
                f"d={d}: DelayAVF {result.delay_avf:.6f} exceeds OrDelayAVF "
                f"{result.or_delay_avf:.6f} with no multi-bit error sets",
            )
        )
    return violations


def _cross_delay_violations(
    result: StructureCampaignResult,
) -> List[GuardViolation]:
    """Checks across the delay sweep: coverage parity and monotonicity."""
    violations: List[GuardViolation] = []
    delays = sorted(result.by_delay)
    if len(delays) < 2:
        return violations
    keyed = {
        d: {(r.wire_index, r.cycle): r for r in result.by_delay[d].records}
        for d in delays
    }
    base_keys = set(keyed[delays[0]])
    for d in delays[1:]:
        if set(keyed[d]) != base_keys:
            violations.append(
                GuardViolation(
                    "delay-coverage-mismatch",
                    f"d={delays[0]} and d={d} cover different "
                    "(wire, cycle) sets",
                )
            )
            return violations  # monotonicity needs matching keys
    # A larger injected delay can only lengthen paths, so the statically
    # reachable set grows monotonically in d (Definition 2).
    for lo, hi in zip(delays, delays[1:]):
        bad = [
            key
            for key, record in keyed[lo].items()
            if record.num_statically_reachable
            > keyed[hi][key].num_statically_reachable
        ]
        if bad:
            wire, cycle = bad[0]
            suffix = "" if len(bad) == 1 else f" (+{len(bad) - 1} more)"
            violations.append(
                GuardViolation(
                    "static-monotonicity",
                    f"wire {wire} cycle {cycle}: statically reachable set "
                    f"shrinks from d={lo} to d={hi}{suffix}",
                )
            )
            break
    return violations


def check_campaign_result(
    result: StructureCampaignResult,
) -> List[GuardViolation]:
    """Every invariant violation in a merged campaign result.

    An empty list means the result is internally consistent with the paper's
    algebra; any entry means some producing layer (simulator, cache, merge)
    emitted impossible data and the numbers cannot be trusted.
    """
    violations: List[GuardViolation] = []
    for _, delay_result in sorted(result.by_delay.items()):
        violations.extend(_record_violations(delay_result))
        violations.extend(_aggregate_violations(delay_result))
    violations.extend(_cross_delay_violations(result))
    return violations


def check_ecc_savf(
    baseline: SAVFResult,
    ecc: SAVFResult,
    confidence: float = DEFAULT_CONFIDENCE,
) -> Optional[GuardViolation]:
    """SEC ECC cannot *raise* a structure's sAVF.

    Compared at the interval level (ECC's lower bound above the baseline's
    upper bound) so ordinary sampling noise between two finite campaigns
    does not trip the guard.
    """
    if ecc.savf_ci(confidence).lo > baseline.savf_ci(confidence).hi + _EPS:
        return GuardViolation(
            "ecc-raises-savf",
            f"{ecc.structure}: ECC sAVF {ecc.savf:.6f} is significantly "
            f"above the unprotected {baseline.savf:.6f} "
            f"at {confidence:.0%} confidence",
        )
    return None


def apply_guards(
    result: StructureCampaignResult, telemetry=None
) -> List[GuardViolation]:
    """Run :func:`check_campaign_result` and annotate *result* in place.

    Sets ``suspect`` / ``suspect_reasons`` and bumps the
    ``guard_violations`` telemetry counter; returns the violations.
    """
    violations = check_campaign_result(result)
    if violations:
        result.suspect = True
        result.suspect_reasons = tuple(v.render() for v in violations)
        if telemetry is not None:
            telemetry.incr("guard_violations", len(violations))
    return violations


# ======================================================================
# Preflight validation
# ======================================================================
@dataclass(frozen=True)
class Finding:
    """One preflight observation: a fatal error or an advisory warning."""

    severity: str  #: ``"error"`` or ``"warning"``
    code: str  #: machine-readable category (mirrors ReproError.code)
    message: str
    hint: Optional[str] = None
    #: for errors: the exception :func:`ensure_preflight` raises
    error: Optional[ReproError] = field(default=None, compare=False)

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def render(self) -> str:
        tag = "ERROR" if self.is_error else "WARN "
        line = f"[{tag}] {self.code}: {self.message}"
        if self.hint:
            line += f" (hint: {self.hint})"
        return line


def _error(exc: ReproError) -> Finding:
    return Finding(
        severity="error",
        code=exc.code,
        message=str(exc),
        hint=exc.hint,
        error=exc,
    )


def _warning(code: str, message: str, hint: Optional[str] = None) -> Finding:
    return Finding(severity="warning", code=code, message=message, hint=hint)


def preflight_system(system) -> List[Finding]:
    """Validate the hardware side: netlist, timing library, clock period."""
    from repro.netlist.validate import NetlistError, validate
    from repro.timing.liberty import library_problems

    findings: List[Finding] = []
    try:
        validate(system.netlist)
    except NetlistError as exc:
        findings.append(
            _error(
                NetlistError(
                    f"netlist {system.netlist.name!r}: {exc}",
                    hint="regenerate the netlist; a campaign over a "
                    "malformed netlist cannot simulate",
                )
            )
        )
    problems = library_problems(system.library)
    if problems:
        findings.append(
            _error(
                TimingError(
                    f"timing library {system.library.name!r}: "
                    + "; ".join(problems),
                    hint="fix the library file; delays must be finite and "
                    "positive for STA to be meaningful",
                )
            )
        )
        return findings  # STA below would propagate the broken delays
    sta = system.sta
    if sta.clock_period + _EPS < sta.longest_path_ps:
        findings.append(
            _error(
                TimingError(
                    f"clock period {sta.clock_period:.1f} ps is below the "
                    f"longest register-to-register path "
                    f"{sta.longest_path_ps:.1f} ps",
                    hint="the fault-free design already misses setup; raise "
                    "clock_period_ps to at least the longest path",
                )
            )
        )
    return findings


def preflight_workload(system, program, config) -> List[Finding]:
    """Validate the workload side without running it."""
    from repro.soc import memmap

    findings: List[Finding] = []
    if not program.image:
        findings.append(
            _error(
                WorkloadError(
                    f"workload {program.name!r} has an empty image",
                    hint="assemble a program with at least one instruction",
                )
            )
        )
        return findings
    if len(program.image) > memmap.RAM_SIZE:
        findings.append(
            _error(
                WorkloadError(
                    f"workload {program.name!r} image is "
                    f"{len(program.image)} bytes but RAM holds "
                    f"{memmap.RAM_SIZE}",
                    hint="shrink the program or its data",
                )
            )
        )
    if config.margin_cycles == 0:
        findings.append(
            _warning(
                "workload",
                "margin_cycles=0 leaves no hang budget: delay-induced "
                "infinite loops will be truncated, not detected as DUE",
                hint="keep a margin of a few thousand cycles",
            )
        )
    return findings


def preflight_cache_dir(cache_dir: Optional[str]) -> List[Finding]:
    """Validate that the verdict-cache directory is usable (when enabled).

    Beyond writability, every existing scope file is integrity-checked
    (payload checksum, parseability): a corrupt file is a warning, not an
    error, because the campaign will quarantine it and rebuild from
    simulation — but the operator should know its records will be simulated
    again.
    """
    from repro.core.cache import verify_cache_dir

    if not cache_dir:
        return []
    probe = os.path.join(cache_dir, f".doctor-{uuid.uuid4().hex}.tmp")
    try:
        os.makedirs(cache_dir, exist_ok=True)
        with open(probe, "w", encoding="utf-8") as handle:
            handle.write("ok")
        os.unlink(probe)
    except OSError as exc:
        return [
            _error(
                CacheError(
                    f"cache directory {cache_dir!r} is not writable: {exc}",
                    hint="point --cache-dir at a writable directory or "
                    "disable the cache",
                )
            )
        ]
    findings: List[Finding] = []
    report = verify_cache_dir(cache_dir)
    for path, detail in report["corrupt"]:
        findings.append(
            _warning(
                "cache.corrupt",
                f"verdict cache file {path} fails integrity verification: "
                f"{detail}",
                hint="the campaign will quarantine it and re-simulate; run "
                "'repro fsck --quarantine' to move it aside now",
            )
        )
    for path, detail in report["foreign"]:
        findings.append(
            _warning(
                "cache.foreign",
                f"verdict cache file {path} has a foreign schema: {detail}",
                hint="written by a different build; it will be ignored, "
                "not read",
            )
        )
    return findings


def preflight_structure(
    system, structure: str, max_wires: Optional[int] = None
) -> List[Finding]:
    """Validate a structure name and the wire-sample request against it."""
    findings: List[Finding] = []
    try:
        wires = system.structure_wires(structure)
    except Exception:
        known = ", ".join(sorted(system.structures))
        findings.append(
            _error(
                InputError(
                    f"unknown structure {structure!r}",
                    hint=f"known structures: {known} (or a raw scope path)",
                )
            )
        )
        return findings
    if not wires:
        known = ", ".join(sorted(system.structures))
        findings.append(
            _error(
                InputError(
                    f"structure {structure!r} has no injectable wires "
                    "(unknown name or empty scope)",
                    hint=f"known structures: {known} (or a raw scope path)",
                )
            )
        )
    elif max_wires is not None and max_wires > len(wires):
        findings.append(
            _warning(
                "input",
                f"requested {max_wires} wires but structure {structure!r} "
                f"has only {len(wires)}; the sample clamps to {len(wires)}",
            )
        )
    return findings


def preflight_campaign(
    system,
    program,
    config,
    structures: Sequence[str] = (),
) -> List[Finding]:
    """All preflight findings for one campaign, errors first."""
    findings: List[Finding] = []
    findings.extend(preflight_system(system))
    findings.extend(preflight_workload(system, program, config))
    findings.extend(preflight_cache_dir(config.cache_dir))
    for structure in structures:
        findings.extend(
            preflight_structure(system, structure, config.max_wires)
        )
    findings.sort(key=lambda f: 0 if f.is_error else 1)
    return findings


def ensure_preflight(findings: Sequence[Finding]) -> None:
    """Raise the first fatal finding's :class:`ReproError` (if any)."""
    for finding in findings:
        if finding.is_error:
            if finding.error is not None:
                raise finding.error
            raise ReproError(finding.message, hint=finding.hint)
