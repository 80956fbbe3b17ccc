"""Span tracing: buffer semantics, export formats, and execution parity."""

import json
import pickle
import time
from dataclasses import replace

import pytest

from repro.core import tracing
from repro.core.campaign import (
    CampaignConfig,
    DelayAVFEngine,
    run_structures_spanning,
)
from repro.core.executor import SessionSpec
from repro.core.progress import ProgressReporter
from repro.workloads.beebs import load_benchmark

#: Small but non-trivial traced campaign (mirrors the executor parity pair).
TRACE_CONFIG = CampaignConfig(
    cycle_count=3, max_wires=8, delay_fractions=(0.5, 0.9),
    margin_cycles=400, trace=True,
)


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends with a disabled, empty tracer."""
    tracing.disable()
    tracing.reset()
    yield
    tracing.disable()
    tracing.reset()


# ----------------------------------------------------------------------
# Tracer basics
# ----------------------------------------------------------------------
def test_disabled_span_is_shared_noop():
    """When off, every call site gets the one module-level nullcontext."""
    first = tracing.span("a", cat="sim", cycle=1)
    second = tracing.span("b", cat="cache")
    assert first is second  # no per-call allocation on the hot path
    with first:
        pass  # and it is a usable context manager
    assert tracing.drain() == []


def test_instant_disabled_is_noop():
    tracing.instant("executor.retry", cat="executor", shard=3)
    assert tracing.drain() == []


def test_span_records_fields_and_attrs():
    tracing.enable(reset=True)
    with tracing.span("sim.cone_build", cat="sim", roots=4):
        time.sleep(0.002)
    (span,) = tracing.drain()
    assert span["name"] == "sim.cone_build"
    assert span["cat"] == "sim"
    assert span["ph"] == "X"
    assert span["args"] == {"roots": 4}
    assert span["parent"] is None
    assert span["dur"] >= 2000  # microseconds
    assert span["pid"] == span["tid"]


def test_nesting_parents_and_time_containment():
    tracing.enable(reset=True)
    with tracing.span("outer", cat="campaign"):
        with tracing.span("middle", cat="shard"):
            with tracing.span("inner", cat="sim"):
                pass
        with tracing.span("sibling", cat="sim"):
            pass
    spans = {span["name"]: span for span in tracing.drain()}
    assert spans["middle"]["parent"] == spans["outer"]["id"]
    assert spans["inner"]["parent"] == spans["middle"]["id"]
    assert spans["sibling"]["parent"] == spans["outer"]["id"]
    # Children are contained in their parent's interval (same process).
    for child, parent in (("inner", "middle"), ("middle", "outer"),
                          ("sibling", "outer")):
        assert spans[child]["ts"] >= spans[parent]["ts"]
        assert (spans[child]["ts"] + spans[child]["dur"]
                <= spans[parent]["ts"] + spans[parent]["dur"])


def test_instants_inherit_parent():
    tracing.enable(reset=True)
    with tracing.span("outer", cat="executor"):
        tracing.instant("executor.retry", cat="executor", shard=1)
    outer, instant = sorted(tracing.drain(), key=lambda s: s["ph"])  # X < i
    assert outer["name"] == "outer" and instant["ph"] == "i"
    assert instant["parent"] == outer["id"]
    assert instant["dur"] == 0.0


def test_drain_clears_and_extend_folds_back():
    tracing.enable(reset=True)
    with tracing.span("a"):
        pass
    spans = tracing.drain()
    assert len(spans) == 1 and tracing.drain() == []
    tracing.extend(spans)
    tracing.extend(None)  # tolerated: worker result without spans
    assert len(tracing.drain()) == 1


def test_spans_pickle_roundtrip():
    """Spans cross process boundaries as plain dicts inside ShardResults."""
    tracing.enable(reset=True)
    with tracing.span("shard.execute", cat="shard", shard=2, cycle=17):
        tracing.instant("executor.retry", cat="executor")
    spans = tracing.drain()
    assert pickle.loads(pickle.dumps(spans)) == spans


def test_reset_restamps_process():
    tracing.enable(reset=True)
    with tracing.span("a"):
        pass
    tracing.reset()
    assert tracing.tracer().spans == []
    with tracing.span("b"):
        pass
    (span,) = tracing.drain()
    assert span["id"] == 1  # ids restart after reset


# ----------------------------------------------------------------------
# Identity
# ----------------------------------------------------------------------
def test_span_identity_ignores_bookkeeping():
    base = {"name": "sim.batch_resim", "cat": "sim", "args": {"cycle": 3},
            "id": 9, "parent": 2, "pid": 111, "ts": 1.0, "dur": 2.0}
    other = dict(base, id=77, parent=None, pid=222, ts=9.0, dur=1.0)
    assert tracing.span_identity(base) == tracing.span_identity(other)
    assert tracing.span_identity(base) != tracing.span_identity(
        dict(base, args={"cycle": 4})
    )


# ----------------------------------------------------------------------
# Export / import / summaries
# ----------------------------------------------------------------------
def _sample_spans():
    tracing.enable(reset=True)
    with tracing.span("campaign.run", cat="campaign", structure="alu"):
        with tracing.span("shard.execute", cat="shard", shard=0, cycle=12):
            pass
        tracing.instant("executor.retry", cat="executor", shard=0)
    return tracing.drain()


def test_chrome_trace_schema():
    payload = tracing.to_chrome_trace(_sample_spans())
    assert set(payload) == {"traceEvents", "displayTimeUnit"}
    events = payload["traceEvents"]
    assert len(events) == 3
    for event in events:
        assert {"name", "cat", "ph", "ts", "pid", "tid", "args"} <= set(event)
        assert event["ph"] in ("X", "i")
        if event["ph"] == "X":
            assert "dur" in event and event["dur"] >= 0
        else:
            assert event["s"] == "t"  # instants need a scope to render
        assert "span_id" in event["args"]
    # Campaign attributes survive export.
    shard = next(e for e in events if e["name"] == "shard.execute")
    assert shard["args"]["cycle"] == 12


def test_write_load_roundtrip_json_and_jsonl(tmp_path):
    spans = _sample_spans()
    for name in ("trace.json", "trace.jsonl"):
        path = tmp_path / name
        tracing.write_trace(str(path), spans)
        loaded = tracing.load_trace(str(path))
        assert [tracing.span_identity(s) for s in loaded] == [
            tracing.span_identity(s) for s in spans
        ]
        assert [s["parent"] for s in loaded] == [s["parent"] for s in spans]
    # The .json flavour is genuine Chrome trace-event JSON.
    payload = json.loads((tmp_path / "trace.json").read_text())
    assert "traceEvents" in payload


def test_interval_union_merges_overlaps():
    assert tracing._interval_union([]) == 0.0
    assert tracing._interval_union([(0.0, 1.0), (0.5, 2.0)]) == 2.0
    assert tracing._interval_union([(0.0, 1.0), (3.0, 4.0)]) == 2.0
    assert tracing._interval_union([(3.0, 4.0), (0.0, 5.0)]) == 5.0


def test_summarize_separates_wall_from_cumulative():
    # Two overlapping "workers" plus one disjoint span, hand-built so the
    # wall/cpu split is exact: wall = |[0,2) U [1,3)| + |[5,6)| = 4s,
    # cpu = 2 + 2 + 1 = 5s.
    spans = [
        {"name": "w", "cat": "shard", "ph": "X", "ts": 0.0, "dur": 2e6,
         "pid": 1, "tid": 1, "id": 1, "parent": None, "args": {}},
        {"name": "w", "cat": "shard", "ph": "X", "ts": 1e6, "dur": 2e6,
         "pid": 2, "tid": 2, "id": 1, "parent": None, "args": {}},
        {"name": "w", "cat": "shard", "ph": "X", "ts": 5e6, "dur": 1e6,
         "pid": 1, "tid": 1, "id": 2, "parent": None, "args": {}},
        {"name": "mark", "cat": "executor", "ph": "i", "ts": 0.5e6, "dur": 0.0,
         "pid": 1, "tid": 1, "id": 3, "parent": None, "args": {}},
    ]
    (summary,) = tracing.summarize_trace(spans)  # instants are excluded
    assert summary.name == "w" and summary.count == 3
    assert summary.wall_seconds == pytest.approx(4.0)
    assert summary.cpu_seconds == pytest.approx(5.0)
    assert summary.wall_seconds < summary.cpu_seconds
    assert tracing.trace_wall_seconds(spans) == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Serial vs parallel parity on a real campaign
# ----------------------------------------------------------------------
def _traced_campaign(jobs):
    config = replace(TRACE_CONFIG, jobs=jobs)
    spec = SessionSpec(
        program=load_benchmark("libfibcall"),
        config=config,
    )
    engine = DelayAVFEngine.from_spec(spec)
    try:
        result = engine.run_structure("alu")
        return result, tracing.drain()
    finally:
        engine.close()
        tracing.disable()
        tracing.reset()


def test_serial_and_parallel_trace_same_work():
    """Deterministic categories yield the same span-identity set however
    the campaign is scheduled; only executor/cache spans may differ."""
    _, serial_spans = _traced_campaign(jobs=1)
    parallel_result, parallel_spans = _traced_campaign(jobs=2)

    def identities(spans):
        return {
            tracing.span_identity(span)
            for span in spans
            if span.get("cat") not in tracing.NONDETERMINISTIC_CATEGORIES
        }

    assert identities(serial_spans) == identities(parallel_spans)
    # Sanity: the trace saw the hot path, not just the campaign envelope.
    names = {span["name"] for span in serial_spans}
    assert {"campaign.run", "campaign.execute", "plan.build",
            "shard.execute", "sim.batch_resim"} <= names
    # Worker spans came home from other processes.
    assert len({span["pid"] for span in parallel_spans}) > 1
    # Wall-clock accounting: the union of all spans matches the campaign
    # envelope within 5% (cross-process timestamps are epoch-anchored).
    run_span = next(
        s for s in parallel_spans if s["name"] == "campaign.run"
    )
    run_wall = run_span["dur"] / 1e6
    trace_wall = tracing.trace_wall_seconds(parallel_spans)
    assert trace_wall == pytest.approx(run_wall, rel=0.05)
    assert parallel_result.telemetry.count("injections") > 0


def test_sweep_execute_ledger_is_its_spans(system, strstr_program):
    """A sweep times prepare, prefetch and evaluate inside one spanned
    ``execute`` phase: the ledger is exactly its ``campaign.execute``
    spans and covers the prefetch and evaluate ledgers."""
    engine = DelayAVFEngine(
        system, strstr_program,
        CampaignConfig(
            cycle_count=4, max_wires=48, delay_fractions=(0.7, 0.9),
            margin_cycles=400, trace=True,
        ),
    )
    run_structures_spanning([(engine, ["alu", "decoder"])])
    spans = tracing.drain()
    phases = engine.telemetry.phase_seconds
    spanned = sum(
        span["dur"] for span in spans if span["name"] == "campaign.execute"
    ) / 1e6
    assert abs(phases["execute"] - spanned) <= 1e-6
    assert phases["execute"] >= phases["prefetch"] + phases["evaluate"]


def test_executor_event_is_counter_instant_and_note():
    """A fleet event is counted, traced as ``executor.<counter>`` and noted
    on the progress stream, all under the counter's own name."""
    spec = SessionSpec(
        program=load_benchmark("libfibcall"),
        config=replace(
            TRACE_CONFIG, jobs=2, cycle_count=2, max_wires=2,
            delay_fractions=(0.9,),
        ),
    )
    engine = DelayAVFEngine.from_spec(spec)
    reporter = ProgressReporter(enabled=False)
    try:
        result = engine.run_structure("alu", reporter=reporter)
        spans = tracing.drain()
    finally:
        engine.close()
    instants = [span for span in spans if span["ph"] == "i"]
    assert [(s["name"], s["cat"]) for s in instants] == [
        ("executor.workers_joined", "executor")
    ] * 2
    assert {s["args"]["worker"] for s in instants} == {"worker-1", "worker-2"}
    assert result.telemetry.count("workers_joined") == 2
    assert reporter.notes == {"workers_joined": 2}
