"""Campaign metrics export: Prometheus textfiles and JSON snapshots.

``--metrics-out PATH`` writes one machine-readable snapshot of the
campaign's :class:`repro.core.telemetry.CampaignTelemetry` when the run
finishes.  Two formats, selected by extension:

- ``*.json`` — the telemetry snapshot plus identifying labels and health
  flags, for scripting.
- anything else — Prometheus **textfile-collector** exposition format
  (``node_exporter --collector.textfile.directory``), three metric families
  keyed by a ``name`` label so new counters/phases never change the schema:

  - ``repro_campaign_counter{name="injections",...}``
  - ``repro_campaign_gauge{name="ci_half_width",...}``
  - ``repro_campaign_phase_seconds{name="execute",kind="wall"|"cpu",...}``

The ``kind`` label carries the wall-vs-cumulative distinction the telemetry
layer tracks (see :mod:`repro.core.telemetry`): ``wall`` is coordinator
wall-clock, ``cpu`` is the cross-worker cumulative sum.

Writes are atomic (:func:`repro.fileio.atomic_write`) so a scrape never
reads a half-written file.  During execution a throttled heartbeat JSON
(``PATH + ".heartbeat"``) is maintained by
:class:`repro.core.progress.Heartbeat`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional

from repro.fileio import atomic_write

PROMETHEUS_PREFIX = "repro_campaign"


def _escape_label(value: Any) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_block(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_prometheus_sections(sections) -> str:
    """One exposition document spanning several labeled telemetry slices.

    *sections* is an iterable of ``(telemetry, labels)`` pairs — e.g. the
    campaign service's per-job telemetry plus its service-level counters.
    Samples are grouped per metric family (the text format requires each
    family's lines to be contiguous), with one HELP/TYPE header each, so
    the result is valid for a real Prometheus scrape.
    """
    counter_lines = []
    gauge_lines = []
    phase_lines = []
    for telemetry, labels in sections:
        labels = dict(labels or {})
        for name in sorted(telemetry.counters):
            block = _label_block({**labels, "name": name})
            counter_lines.append(
                f"{PROMETHEUS_PREFIX}_counter{block} {telemetry.counters[name]}"
            )
        for name in sorted(telemetry.gauges):
            block = _label_block({**labels, "name": name})
            gauge_lines.append(
                f"{PROMETHEUS_PREFIX}_gauge{block} {telemetry.gauges[name]}"
            )
        wall = telemetry.phase_wall_seconds
        for name in sorted(telemetry.phase_seconds):
            block = _label_block({**labels, "name": name, "kind": "cpu"})
            phase_lines.append(
                f"{PROMETHEUS_PREFIX}_phase_seconds{block} "
                f"{telemetry.phase_seconds[name]:.6f}"
            )
        for name in sorted(wall):
            block = _label_block({**labels, "name": name, "kind": "wall"})
            phase_lines.append(
                f"{PROMETHEUS_PREFIX}_phase_seconds{block} {wall[name]:.6f}"
            )
    lines = [
        f"# HELP {PROMETHEUS_PREFIX}_counter Campaign event counters.",
        f"# TYPE {PROMETHEUS_PREFIX}_counter counter",
        *counter_lines,
        f"# HELP {PROMETHEUS_PREFIX}_gauge Campaign point-in-time levels.",
        f"# TYPE {PROMETHEUS_PREFIX}_gauge gauge",
        *gauge_lines,
        f"# HELP {PROMETHEUS_PREFIX}_phase_seconds Per-phase time; "
        'kind="wall" is coordinator wall-clock, kind="cpu" sums every worker.',
        f"# TYPE {PROMETHEUS_PREFIX}_phase_seconds gauge",
        *phase_lines,
    ]
    return "\n".join(lines) + "\n"


def render_prometheus(
    telemetry, labels: Optional[Mapping[str, Any]] = None
) -> str:
    """The telemetry snapshot in Prometheus exposition format."""
    return render_prometheus_sections([(telemetry, labels)])


def metrics_payload(
    telemetry,
    labels: Optional[Mapping[str, Any]] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The JSON-format metrics document."""
    payload: Dict[str, Any] = {
        "labels": dict(labels or {}),
        "counters": dict(telemetry.counters),
        "gauges": dict(telemetry.gauges),
        "phase_seconds": dict(telemetry.phase_seconds),
        "phase_wall_seconds": dict(telemetry.phase_wall_seconds),
    }
    if extra:
        payload.update(dict(extra))
    return payload


def write_metrics(
    path: str,
    telemetry,
    labels: Optional[Mapping[str, Any]] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> None:
    """Write the campaign metrics snapshot to *path* (format by extension)."""
    if str(path).endswith(".json"):
        atomic_write(
            path,
            json.dumps(
                metrics_payload(telemetry, labels, extra), indent=2, sort_keys=True
            )
            + "\n",
        )
    else:
        atomic_write(path, render_prometheus(telemetry, labels))


def heartbeat_path(metrics_out: str) -> str:
    """Where the in-flight heartbeat for a ``--metrics-out`` target lives."""
    return str(metrics_out) + ".heartbeat"
