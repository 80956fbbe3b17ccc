"""Metrics export and live progress reporting."""

import io
import json
import time

import pytest

from repro.core.metrics import (
    heartbeat_path,
    metrics_payload,
    render_prometheus,
    render_prometheus_sections,
    write_metrics,
)
from repro.core.progress import Heartbeat, ProgressReporter
from repro.core.telemetry import CampaignTelemetry


def _telemetry():
    telemetry = CampaignTelemetry()
    telemetry.incr("injections", 120)
    telemetry.incr("record_cache_hits", 40)
    telemetry.set_gauge("ci_half_width", 0.03)
    telemetry.add_seconds("campaign", 2.0)
    telemetry.add_seconds("waveforms", 3.0, wall=False)  # worker-only phase
    return telemetry


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_render_prometheus_families_and_kinds():
    text = render_prometheus(_telemetry(), labels={"structure": "alu"})
    assert '# TYPE repro_campaign_counter counter' in text
    assert 'repro_campaign_counter{name="injections",structure="alu"} 120' in text
    assert 'repro_campaign_gauge{name="ci_half_width",structure="alu"} 0.03' in text
    # The wall/cpu split survives as a kind label: waveforms was timed only
    # inside workers, so it has a cpu sample but no wall sample.
    assert 'kind="cpu",name="waveforms"' in text
    assert 'kind="wall",name="campaign"' in text
    assert 'kind="wall",name="waveforms"' not in text
    assert text.endswith("\n")


def test_render_prometheus_sections_keeps_families_contiguous():
    """Several labeled slices merge into one valid exposition document:
    each family's samples stay contiguous under a single HELP/TYPE header
    (the text format forbids interleaving families)."""
    service = CampaignTelemetry()
    service.incr("jobs_completed", 2)
    text = render_prometheus_sections([
        (service, {"scope": "service"}),
        (_telemetry(), {"scope": "job", "job": "job-abc"}),
    ])
    assert text.count("# TYPE repro_campaign_counter counter") == 1
    assert 'name="jobs_completed",scope="service"} 2' in text
    assert 'job="job-abc",name="injections",scope="job"} 120' in text
    counters = [l for l in text.splitlines() if l.startswith("repro_campaign_counter")]
    header_at = text.splitlines().index("# TYPE repro_campaign_counter counter")
    block = text.splitlines()[header_at + 1 : header_at + 1 + len(counters)]
    assert block == counters  # every counter sample directly follows its header


def test_prometheus_label_escaping():
    text = render_prometheus(
        CampaignTelemetry({"injections": 1}), labels={"benchmark": 'a"b\\c'}
    )
    assert 'benchmark="a\\"b\\\\c"' in text


def test_metrics_payload_and_extra():
    payload = metrics_payload(
        _telemetry(), labels={"structure": "alu"}, extra={"degraded": False}
    )
    assert payload["labels"] == {"structure": "alu"}
    assert payload["counters"]["injections"] == 120
    assert payload["phase_wall_seconds"] == {"campaign": 2.0}
    assert payload["phase_seconds"]["waveforms"] == 3.0
    assert payload["degraded"] is False


def test_write_metrics_format_by_extension(tmp_path):
    json_path = tmp_path / "metrics.json"
    prom_path = tmp_path / "metrics.prom"
    write_metrics(str(json_path), _telemetry(), labels={"structure": "alu"})
    write_metrics(str(prom_path), _telemetry(), labels={"structure": "alu"})
    loaded = json.loads(json_path.read_text())
    assert loaded["counters"]["record_cache_hits"] == 40
    assert prom_path.read_text().startswith("# HELP repro_campaign_counter")
    assert heartbeat_path(str(json_path)) == str(json_path) + ".heartbeat"


# ----------------------------------------------------------------------
# Heartbeat
# ----------------------------------------------------------------------
def test_heartbeat_throttles_and_forces(tmp_path):
    path = tmp_path / "status.json"
    heartbeat = Heartbeat(str(path), min_interval=3600.0)
    assert heartbeat.beat({"state": "running", "n": 1})
    assert not heartbeat.beat({"state": "running", "n": 2})  # throttled
    assert heartbeat.beat({"state": "done", "n": 3}, force=True)
    payload = json.loads(path.read_text())
    assert payload["n"] == 3
    assert payload["updated_unix"] > 0


def test_first_beat_and_line_written_soon_after_boot(tmp_path, monkeypatch):
    """``time.monotonic`` counts from boot: 5 s of uptime is inside both
    throttle windows, yet the first heartbeat and first piped line fire."""
    monkeypatch.setattr(time, "monotonic", lambda: 5.0)
    path = tmp_path / "status.json"
    stream = io.StringIO()  # not a TTY: throttled full lines
    reporter = ProgressReporter(
        stream=stream, heartbeat=Heartbeat(str(path), min_interval=3600.0)
    )
    reporter.LINE_INTERVAL = 3600.0
    reporter.shard_done()
    assert json.loads(path.read_text())["shards_done"] == 1
    assert stream.getvalue().count("\n") == 1
    reporter.shard_done()  # the clock has not moved: both stay throttled
    assert json.loads(path.read_text())["shards_done"] == 1
    assert stream.getvalue().count("\n") == 1


# ----------------------------------------------------------------------
# ProgressReporter
# ----------------------------------------------------------------------
def test_reporter_counts_and_snapshot():
    stream = io.StringIO()
    reporter = ProgressReporter(stream=stream, enabled=True, label="md5/alu")
    reporter.start(total=10, resumed=4)
    for _ in range(3):
        reporter.shard_done(
            {"counters": {"injections": 6, "record_cache_hits": 2}}
        )
    reporter.note("retries")
    reporter.finish()
    snap = reporter.snapshot()
    assert snap["shards_done"] == 7  # 4 resumed + 3 executed
    assert snap["shards_total"] == 10
    assert snap["shards_resumed"] == 4
    assert snap["cache_hit_rate"] == pytest.approx(6 / 24)
    assert snap["notes"] == {"retries": 1}
    assert snap["state"] == "done"
    out = stream.getvalue()
    assert "[md5/alu]" in out and "retries 1" in out


def test_reporter_eta_and_refinement_line():
    reporter = ProgressReporter(stream=io.StringIO(), enabled=False)
    reporter.start(total=4)
    reporter.shard_done()
    assert reporter.snapshot()["eta_seconds"] is not None
    reporter.refinement(2, half_width=0.08, target=0.05)
    line = reporter._format_line()
    assert "ci ±0.0800/0.0500" in line
    snap = reporter.snapshot()
    assert snap["refinement_round"] == 2
    assert snap["target_half_width"] == 0.05
    # Complete: ETA disappears.
    reporter.shard_done(); reporter.shard_done(); reporter.shard_done()
    assert reporter.snapshot()["eta_seconds"] is None


def test_reporter_nontty_throttles_lines():
    stream = io.StringIO()
    reporter = ProgressReporter(stream=stream, enabled=True, label="x")
    reporter.start(total=100)  # forced line
    for _ in range(50):
        reporter.shard_done()  # all inside LINE_INTERVAL: throttled away
    reporter.finish()  # forced line
    lines = [line for line in stream.getvalue().splitlines() if line]
    assert len(lines) == 2
    assert lines[-1].endswith("done")


def test_reporter_disabled_channels_are_silent(tmp_path):
    stream = io.StringIO()
    reporter = ProgressReporter(stream=stream, enabled=False, heartbeat=None)
    reporter.start(total=2)
    reporter.shard_done()
    reporter.finish()
    assert stream.getvalue() == ""


def test_reporter_drives_heartbeat(tmp_path):
    path = tmp_path / "m.json.heartbeat"
    reporter = ProgressReporter(
        stream=io.StringIO(), enabled=False,
        heartbeat=Heartbeat(str(path), min_interval=0.0), label="lib/alu",
    )
    reporter.start(total=2)
    reporter.shard_done()
    reporter.finish("degraded")
    payload = json.loads(path.read_text())
    assert payload["label"] == "lib/alu"
    assert payload["state"] == "degraded"
    assert payload["shards_done"] == 1


def test_progress_snapshot_sequence_increments():
    """Each snapshot is distinguishable: pollers (the service's job-status
    endpoint, heartbeat watchers) detect freshness via the sequence field."""
    reporter = ProgressReporter(stream=io.StringIO(), enabled=False)
    first = reporter.snapshot()
    second = reporter.snapshot()
    assert second["sequence"] == first["sequence"] + 1
    assert first["state"] == "idle"
