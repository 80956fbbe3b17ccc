"""Invariant guards and preflight validation (core/guards.py)."""

import json
import types

import pytest

from repro.core.campaign import CampaignConfig, DelayAVFEngine
from repro.core.group_ace import Outcome
from repro.core.guards import (
    GuardViolation,
    apply_guards,
    check_campaign_result,
    ensure_preflight,
    preflight_cache_dir,
    preflight_campaign,
    preflight_structure,
    preflight_system,
    preflight_workload,
)
from repro.core.results import (
    DelayAVFResult,
    InjectionRecord,
    StructureCampaignResult,
)
from repro.core.telemetry import CampaignTelemetry
from repro.errors import CacheError, InputError, TimingError, WorkloadError
from repro.netlist.cells import CellKind
from repro.netlist.netlist import Netlist
from repro.netlist.validate import NetlistError
from repro.soc.system import build_system


# ----------------------------------------------------------------------
# Synthetic result builders
# ----------------------------------------------------------------------
def _rec(
    wire=0,
    cycle=2,
    d=0.9,
    static=True,
    n_static=3,
    errors=0,
    outcome=Outcome.MASKED,
    or_ace=None,
):
    return InjectionRecord(
        wire_index=wire,
        cycle=cycle,
        delay_fraction=d,
        statically_reachable=static,
        num_statically_reachable=n_static if static else 0,
        num_errors=errors,
        outcome=outcome,
        or_ace=or_ace,
    )


def _campaign(records_by_delay):
    by_delay = {
        d: DelayAVFResult("alu", "bench", d, records=list(records))
        for d, records in records_by_delay.items()
    }
    return StructureCampaignResult(
        structure="alu",
        benchmark="bench",
        wire_count=100,
        sampled_wires=4,
        sampled_cycles=(2, 3),
        by_delay=by_delay,
    )


def _codes(result):
    return {v.code for v in check_campaign_result(result)}


# ----------------------------------------------------------------------
# Post-merge invariant guards
# ----------------------------------------------------------------------
def test_clean_result_has_no_violations():
    result = _campaign({
        0.5: [
            _rec(wire=0, static=False),
            _rec(wire=1, errors=1, outcome=Outcome.SDC, or_ace=True),
            _rec(wire=2, errors=2, outcome=Outcome.MASKED, or_ace=True),
            _rec(wire=3, errors=0),
        ],
        0.9: [
            _rec(wire=0, d=0.9, static=True, n_static=1),
            _rec(wire=1, d=0.9, errors=3, outcome=Outcome.DUE, or_ace=False),
            _rec(wire=2, d=0.9, errors=2, outcome=Outcome.MASKED, or_ace=True),
            _rec(wire=3, d=0.9, errors=0),
        ],
    })
    assert check_campaign_result(result) == []
    assert apply_guards(result) == []
    assert not result.suspect
    assert result.suspect_reasons == ()


def test_failure_without_errors_detected():
    result = _campaign({0.9: [_rec(errors=0, outcome=Outcome.SDC)]})
    assert "failure-without-errors" in _codes(result)


def test_negative_count_detected():
    result = _campaign({0.9: [_rec(errors=-1)]})
    assert "negative-count" in _codes(result)


def test_static_unreachable_inconsistent_detected():
    bad = InjectionRecord(
        wire_index=0, cycle=2, delay_fraction=0.9,
        statically_reachable=False, num_statically_reachable=0,
        num_errors=2, outcome=Outcome.MASKED, or_ace=True,
    )
    result = _campaign({0.9: [bad]})
    assert "static-unreachable-inconsistent" in _codes(result)


def test_error_count_exceeds_static_detected():
    result = _campaign({
        0.9: [_rec(n_static=1, errors=5, outcome=Outcome.SDC, or_ace=True)]
    })
    assert "error-count-exceeds-static" in _codes(result)


def test_orace_without_errors_detected():
    result = _campaign({0.9: [_rec(errors=0, or_ace=True)]})
    assert "orace-without-errors" in _codes(result)


def test_singleton_orace_mismatch_detected():
    # On a single-bit error set GroupACE degenerates to ORACE; a disagreement
    # is impossible data.
    result = _campaign({
        0.9: [_rec(errors=1, outcome=Outcome.SDC, or_ace=False)]
    })
    assert "singleton-orace-mismatch" in _codes(result)


def test_eq4_ordering_detected_without_multibit():
    codes = _codes(_campaign({
        0.9: [
            _rec(wire=0, errors=1, outcome=Outcome.SDC, or_ace=False),
            _rec(wire=1, errors=1, outcome=Outcome.MASKED, or_ace=False),
        ]
    }))
    assert "eq4-ordering" in codes


def test_eq4_ordering_not_flagged_with_multibit_compounding():
    # Multi-bit compounding legitimately allows DelayAVF > OrDelayAVF
    # (Table III), so the guard must stay quiet.
    codes = _codes(_campaign({
        0.9: [_rec(errors=2, outcome=Outcome.SDC, or_ace=False)]
    }))
    assert "eq4-ordering" not in codes


def test_delay_coverage_mismatch_detected():
    result = _campaign({
        0.5: [_rec(wire=0)],
        0.9: [_rec(wire=1)],
    })
    assert "delay-coverage-mismatch" in _codes(result)


def test_static_monotonicity_detected():
    # Definition 2: a longer delay can only grow the statically reachable
    # set, so shrinking from d=0.5 to d=0.9 is impossible.
    result = _campaign({
        0.5: [_rec(n_static=5)],
        0.9: [_rec(n_static=2)],
    })
    assert "static-monotonicity" in _codes(result)


def test_static_monotonicity_accepts_growth():
    result = _campaign({
        0.5: [_rec(n_static=2)],
        0.9: [_rec(n_static=5)],
    })
    assert "static-monotonicity" not in _codes(result)


def test_apply_guards_annotates_and_counts():
    result = _campaign({0.9: [_rec(errors=0, outcome=Outcome.SDC)]})
    telemetry = CampaignTelemetry()
    violations = apply_guards(result, telemetry)
    assert violations
    assert result.suspect
    assert any("failure-without-errors" in r for r in result.suspect_reasons)
    assert telemetry.count("guard_violations") == len(violations)
    # The annotation survives the JSON round trip.
    reread = StructureCampaignResult.from_payload(result.to_payload())
    assert reread.suspect
    assert reread.suspect_reasons == result.suspect_reasons


def test_guard_violation_render():
    v = GuardViolation("some-code", "detail")
    assert v.render() == "some-code: detail"


# ----------------------------------------------------------------------
# Preflight validation
# ----------------------------------------------------------------------
def test_preflight_clean_system(system, strstr_program):
    config = CampaignConfig(cycle_count=2, margin_cycles=400)
    findings = preflight_campaign(system, strstr_program, config, ("alu",))
    assert not any(f.is_error for f in findings)
    ensure_preflight(findings)  # no error findings -> no raise


def test_preflight_dangling_wire_netlist(system):
    broken = Netlist("dangling")
    a = broken.add_input("a", 1)[0]
    floating = broken.add_net("floating")
    out = broken.add_cell(CellKind.AND2, (a, floating))
    broken.add_output("y", [out])
    fake = types.SimpleNamespace(
        netlist=broken, library=system.library, sta=system.sta
    )
    findings = preflight_system(fake)
    assert any(f.is_error and f.code == "netlist" for f in findings)
    with pytest.raises(NetlistError):
        ensure_preflight(findings)


def test_preflight_clock_period_below_longest_path():
    system = build_system(clock_period_ps=100.0)
    findings = preflight_system(system)
    assert any(f.is_error and f.code == "timing" for f in findings)
    with pytest.raises(TimingError, match="longest"):
        ensure_preflight(findings)


def test_preflight_empty_workload(system):
    program = types.SimpleNamespace(name="empty", entry=0, image=b"")
    config = CampaignConfig(cycle_count=2, margin_cycles=400)
    findings = preflight_workload(system, program, config)
    assert any(f.is_error and f.code == "workload" for f in findings)
    with pytest.raises(WorkloadError):
        ensure_preflight(findings)


def test_preflight_zero_margin_warns(system, strstr_program):
    config = CampaignConfig(cycle_count=2, margin_cycles=0)
    findings = preflight_workload(system, strstr_program, config)
    assert findings and all(not f.is_error for f in findings)


def test_preflight_cache_dir(tmp_path):
    assert preflight_cache_dir(None) == []
    assert preflight_cache_dir(str(tmp_path / "fresh")) == []
    findings = preflight_cache_dir("/dev/null/not-a-dir")
    assert findings and findings[0].is_error
    with pytest.raises(CacheError):
        ensure_preflight(findings)


def test_preflight_unknown_structure(system):
    findings = preflight_structure(system, "no.such.structure")
    assert findings and findings[0].code == "input"
    with pytest.raises(InputError, match="no.such.structure"):
        ensure_preflight(findings)


def test_preflight_wire_clamp_warns(system):
    findings = preflight_structure(system, "alu", max_wires=10**6)
    assert findings and not findings[0].is_error
    assert "clamps" in findings[0].message


def test_finding_render():
    findings = preflight_cache_dir("/dev/null/not-a-dir")
    line = findings[0].render()
    assert line.startswith("[ERROR] cache:")
    assert "(hint:" in line


# ----------------------------------------------------------------------
# End-to-end: preflight gates the engine, guards catch cache corruption
# ----------------------------------------------------------------------
def test_engine_preflight_rejects_infeasible_clock(strstr_program):
    system = build_system(clock_period_ps=100.0)
    config = CampaignConfig(cycle_count=2, margin_cycles=400)
    # The constructor refuses before any shard (or even a golden run)
    # executes.
    with pytest.raises(TimingError):
        DelayAVFEngine(system, strstr_program, config)


def test_corrupted_cache_record_marks_result_suspect(
    tmp_path, system, strstr_program
):
    config = CampaignConfig(
        cycle_count=3, max_wires=8, delay_fractions=(0.9,),
        margin_cycles=600, cache_dir=str(tmp_path),
    )
    cold = DelayAVFEngine(system, strstr_program, config).run_structure("alu")
    assert not cold.suspect

    # Corrupt one persisted record: flip a masked, zero-error injection to
    # a program-visible failure (impossible: a failure needs a non-empty
    # error set).
    (cache_file,) = tmp_path.glob("verdicts-*.json")
    payload = json.loads(cache_file.read_text())
    key = next(
        k for k, rec in payload["records"].items()
        if rec[2] == 0 and rec[3] == "masked"
    )
    payload["records"][key][3] = "sdc"
    # Re-sign so the integrity layer accepts the file: the point here is a
    # *semantically* impossible record sneaking past loading, which only the
    # post-merge invariant guards can catch (checksum-corrupt files are
    # quarantined long before the guards run).
    from repro.core.cache import compute_payload_sha256

    payload["payload_sha256"] = compute_payload_sha256(payload)
    cache_file.write_text(json.dumps(payload))

    warm = DelayAVFEngine(system, strstr_program, config).run_structure("alu")
    assert warm.suspect
    assert any(
        "failure-without-errors" in reason for reason in warm.suspect_reasons
    )
    assert warm.telemetry.count("guard_violations") >= 1
    # The clean run over the same inputs stays clean.
    assert not cold.suspect
