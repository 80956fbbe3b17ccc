"""Telemetry aggregation: gauge merging, phase ledgers and spans, diffs."""

import pickle
import random
import threading
import time

import pytest

from repro.core import tracing
from repro.core.telemetry import LAST_GAUGES, CampaignTelemetry


@pytest.fixture
def traced():
    """A tracer enabled for the test, disabled and empty afterwards."""
    tracing.enable(reset=True)
    yield
    tracing.disable()
    tracing.reset()


# ----------------------------------------------------------------------
# Gauge merging (the set_gauge-clobber fix)
# ----------------------------------------------------------------------
def test_merge_gauge_max_last():
    assert "packed_lane_occupancy" in LAST_GAUGES
    telemetry = CampaignTelemetry()
    for value in (0.3, 0.7, 0.5):
        telemetry.merge_gauge("ci_half_width", value)           # max
        telemetry.merge_gauge("packed_lane_occupancy", value)   # last
    assert telemetry.gauge("ci_half_width") == pytest.approx(0.7)
    assert telemetry.gauge("packed_lane_occupancy") == pytest.approx(0.5)


def test_merge_snapshot_gauges_order_independent():
    """The bug this PR fixes: per-worker gauges used to land via set_gauge,
    so the merged value depended on which worker's future completed first.
    Under the policy registry, any completion order merges identically."""
    worker_snaps = [
        {"gauges": {"ci_half_width": value}}
        for value in (0.02, 0.11, 0.05, 0.08, 0.11, 0.01)
    ]
    merged = []
    rng = random.Random(7)
    for _ in range(10):
        order = list(worker_snaps)
        rng.shuffle(order)
        telemetry = CampaignTelemetry()
        for snap in order:
            telemetry.merge_snapshot(snap)
        merged.append(telemetry.gauges)
    assert all(gauges == merged[0] for gauges in merged)
    assert merged[0]["ci_half_width"] == pytest.approx(0.11)


def test_merged_telemetry_bit_identical_under_shuffle():
    """Full-snapshot variant: counters, phases, and gauges all merge to the
    same instance regardless of worker completion order."""
    snaps = [
        {
            "counters": {"injections": 10 * k, "shard_retries": k % 2},
            "phase_seconds": {"waveforms": 0.25 * k, "evaluate": 0.1},
            "phase_wall_seconds": {"waveforms": 0.25 * k},  # must be dropped
            "gauges": {"ci_half_width": 0.01 * k},
        }
        for k in range(1, 6)
    ]
    reference = CampaignTelemetry()
    for snap in snaps:
        reference.merge_snapshot(snap)
    rng = random.Random(1234)
    for _ in range(10):
        order = list(snaps)
        rng.shuffle(order)
        telemetry = CampaignTelemetry()
        for snap in order:
            telemetry.merge_snapshot(snap)
        assert telemetry == reference
        assert telemetry.snapshot() == reference.snapshot()


# ----------------------------------------------------------------------
# Wall vs cpu·workers ledgers, and the spans phases record
# ----------------------------------------------------------------------
def test_timer_records_both_ledgers():
    telemetry = CampaignTelemetry()
    with telemetry.phase("waveforms"):
        pass
    assert telemetry.phase_seconds["waveforms"] >= 0.0
    assert telemetry.phase_wall_seconds["waveforms"] == (
        telemetry.phase_seconds["waveforms"]
    )


def test_phase_ledgers_are_exactly_its_span(traced, monkeypatch):
    """One clock reading at entry and one at exit feed both ledgers and the
    span, which keeps its name, category, attributes and parent."""
    telemetry = CampaignTelemetry()
    telemetry.add_seconds("execute", 1.0)
    readings = iter([10.0, 10.25])  # this thread may read the clock twice
    real_clock, caller = time.perf_counter, threading.get_ident()

    def clock():
        if threading.get_ident() != caller:
            return real_clock()
        return next(readings)

    with tracing.span("campaign.run") as run_id:
        monkeypatch.setattr(time, "perf_counter", clock)
        with telemetry.phase(
            "execute", "campaign.execute", structure="alu", shards=3
        ):
            pass
        monkeypatch.undo()
    span = next(s for s in tracing.drain() if s["name"] == "campaign.execute")
    assert span["dur"] == 0.25e6
    assert span["ts"] == (tracing.tracer()._epoch + 10.0) * 1e6
    assert (span["cat"], span["ph"]) == ("campaign", "X")
    assert span["args"] == {"structure": "alu", "shards": 3}
    assert span["parent"] == run_id
    assert telemetry.phase_seconds["execute"] == 1.0 + span["dur"] / 1e6
    assert telemetry.phase_wall_seconds["execute"] == 1.0 + span["dur"] / 1e6


def test_phase_nests_spans_and_takes_a_category(traced):
    telemetry = CampaignTelemetry()
    with telemetry.phase("golden", "session.golden_run", cat="session"):
        with tracing.span("sim.step", cat="sim"):
            pass
        with telemetry.phase("plan"):  # no span: ledger only
            pass
    inner, outer = tracing.drain()
    assert (outer["name"], outer["cat"]) == ("session.golden_run", "session")
    assert (inner["name"], inner["parent"]) == ("sim.step", outer["id"])
    assert set(telemetry.phase_seconds) == {"golden", "plan"}


def test_phase_untraced_fills_ledgers_without_spans():
    assert not tracing.enabled()
    telemetry = CampaignTelemetry()
    with telemetry.phase("merge", "campaign.merge", structure="alu"):
        pass
    assert telemetry.phase_wall_seconds["merge"] == (
        telemetry.phase_seconds["merge"]
    )
    assert tracing.drain() == []


def test_add_seconds_wall_flag():
    telemetry = CampaignTelemetry()
    telemetry.add_seconds("execute", 2.0)
    telemetry.add_seconds("execute", 3.0, wall=False)
    assert telemetry.phase_seconds["execute"] == pytest.approx(5.0)
    assert telemetry.phase_wall_seconds["execute"] == pytest.approx(2.0)


def test_merge_snapshot_drops_incoming_wall():
    """A worker's wall-clock is cpu time from the coordinator's viewpoint."""
    coordinator = CampaignTelemetry()
    coordinator.add_seconds("waveforms", 1.0)
    worker_delta = {
        "phase_seconds": {"waveforms": 4.0, "evaluate": 2.0},
        "phase_wall_seconds": {"waveforms": 4.0, "evaluate": 2.0},
    }
    coordinator.merge_snapshot(worker_delta)
    assert coordinator.phase_seconds["waveforms"] == pytest.approx(5.0)
    assert coordinator.phase_seconds["evaluate"] == pytest.approx(2.0)
    assert coordinator.phase_wall_seconds["waveforms"] == pytest.approx(1.0)
    assert "evaluate" not in coordinator.phase_wall_seconds


def test_snapshot_roundtrip_includes_wall():
    telemetry = CampaignTelemetry()
    telemetry.incr("injections", 3)
    telemetry.add_seconds("execute", 1.5)
    telemetry.add_seconds("waveforms", 0.5, wall=False)
    telemetry.set_gauge("ci_half_width", 0.04)
    snap = telemetry.snapshot()
    assert snap["phase_wall_seconds"] == {"execute": 1.5}
    rebuilt = CampaignTelemetry.from_snapshot(snap)
    assert rebuilt == telemetry
    assert pickle.loads(pickle.dumps(telemetry)) == telemetry


# ----------------------------------------------------------------------
# Defensive, symmetric diff
# ----------------------------------------------------------------------
def test_diff_accepts_older_shape_snapshot():
    """A snapshot persisted before this PR has no phase_wall_seconds (and a
    truly ancient one may carry only counters); diff must not raise."""
    telemetry = CampaignTelemetry()
    telemetry.incr("injections", 5)
    telemetry.add_seconds("execute", 1.0)
    telemetry.set_gauge("ci_half_width", 0.1)
    delta = telemetry.diff({"counters": {"injections": 2}})
    assert delta["counters"] == {"injections": 3}
    assert delta["phase_seconds"] == {"execute": 1.0}
    assert delta["phase_wall_seconds"] == {"execute": 1.0}
    assert delta["gauges"] == {"ci_half_width": 0.1}
    assert telemetry.diff({}) == telemetry.snapshot()


def test_diff_is_symmetric_in_keys():
    """Names present only in *before* surface as negative deltas in every
    section instead of being silently dropped."""
    telemetry = CampaignTelemetry()
    telemetry.incr("injections", 1)
    before = {
        "counters": {"injections": 4, "golden_runs": 2},
        "phase_seconds": {"golden": 3.0},
        "phase_wall_seconds": {"golden": 3.0},
        "gauges": {},
    }
    delta = telemetry.diff(before)
    assert delta["counters"] == {"injections": -3, "golden_runs": -2}
    assert delta["phase_seconds"] == {"golden": -3.0}
    assert delta["phase_wall_seconds"] == {"golden": -3.0}


def test_diff_gauges_report_changed_values():
    telemetry = CampaignTelemetry()
    telemetry.set_gauge("ci_half_width", 0.05)
    assert telemetry.diff({"gauges": {"ci_half_width": 0.05}})["gauges"] == {}
    assert telemetry.diff({"gauges": {"ci_half_width": 0.2}})["gauges"] == {
        "ci_half_width": 0.05
    }
