"""Self-checks of the performance benchmark harness.

Run with ``pytest benchmarks/perf`` (the tier-1 suite only collects
``tests/``).  The smoke test runs every workload at tiny sizes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
from compare import judge  # noqa: E402
from layers import layer_metrics  # noqa: E402


def _run(*args: str, timeout: float = 300.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=timeout, cwd=str(common.ROOT),
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric_with_its_unit(tmp_path, trace):
    spec = common.load_benchmark_spec()
    proc = _run("--seed", "0", "--smoke", "--seconds", "1", "--trace", trace,
                "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    for workload in spec["workloads"]:
        result = json.loads(
            (tmp_path / f"{workload['name']}.json").read_text()
        )
        assert result["correct"], result["errors"]
        assert result["oracle"]["mismatches"] == 0
        assert result["records_sha256"]
        for metric in wanted:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert emitted["n"] >= 1
            key = f"{workload['name']}.{metric['name']}"
            assert last["metrics"][key]["unit"] == metric["unit"]


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "benchmarks" / "perf"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(common.BENCHMARK_JSON.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "fig7_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def _write_trace(directory: Path, pid: int, spans, role="main",
                 counters=None) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(dict(zip(
        ("id", "parent", "name", "start", "end", "attrs"), span
    ))) for span in spans]
    if counters:
        lines.append(json.dumps({"kind": "telemetry", "counters": counters}))
    lines.append(json.dumps({"kind": "proc", "pid": pid, "ppid": 1,
                             "role": role}))
    (directory / f"spans-{pid}.jsonl").write_text("\n".join(lines) + "\n")


def test_self_time_of_a_nested_span_tree(tmp_path):
    # bench.rep [0, 10] holds golden.packed [1, 5] (holding packed.step
    # [2, 4] and two levelize.evaluate inside it) and group_ace.prefetch
    # [6, 9] (holding group_ace.prefetch_multi [6.5, 8.5]).
    spans = [
        (1, 0, "bench.rep", 0.0, 10.0, None),
        (2, 1, "golden.packed", 1.0, 5.0, {"runs": 2, "cycles": 100}),
        (3, 2, "packed.step", 2.0, 4.0, None),
        (4, 3, "levelize.evaluate", 2.5, 3.0, {"gate_lanes": 10}),
        (5, 3, "levelize.evaluate", 3.0, 3.5, {"gate_lanes": 10}),
        (6, 1, "group_ace.prefetch", 6.0, 9.0, None),
        (7, 6, "group_ace.prefetch_multi", 6.5, 8.5, {"items": 4}),
    ]
    _write_trace(tmp_path / "t", 100, spans,
                 counters={"group_ace_runs": 4, "lanes_filled": 4,
                           "lane_slots": 64})
    _write_trace(tmp_path / "t", 101, [(1, 0, "golden.run", 0.0, 1.0,
                                        {"cycles": 50})],
                 role="worker")
    m = layer_metrics([tmp_path / "t"], [1.0], [10.0], [8.0])
    assert m["golden.self_s"] == pytest.approx(2.0 + 1.0)  # 4 - 2, worker 1
    assert m["packed.steps"] == 1
    assert m["levelize.evals"] == 2
    assert m["levelize.ns_per_gate_lane"] == pytest.approx(1e9 * 1.0 / 20)
    assert m["golden.runs"] == 3 and m["golden.sim_cycles"] == 150
    assert m["golden.cycles_per_s"] == pytest.approx(150 / 5.0)
    assert m["group_ace.runs"] == 4
    assert m["executor.worker_golden_runs"] == 1
    # Shares split the 11 s of self time summed over both processes.
    assert m["golden.share"] == pytest.approx(3.0 / 11)
    assert m["packed.share"] == pytest.approx(1.0 / 11)  # 2 - 1
    # prefetch_multi is nested in prefetch: self 1 + 2.
    assert m["group_ace.share"] == pytest.approx(3.0 / 11)
    assert m["other.share"] == pytest.approx(3.0 / 11)
    assert sum(v for k, v in m.items() if k.endswith(".share")) == (
        pytest.approx(1.0)
    )
    # Main timeline: 10 s of root, layers cover 4 + 3; the rest is other.
    assert m["other.self_s"] == pytest.approx(3.0)
    assert m["trace.coverage"] == pytest.approx(0.7)
    assert m["trace.overhead_ratio"] == pytest.approx(0.25)
    # Every computed metric is one BENCHMARK.json lists, and the reverse.
    spec = common.load_benchmark_spec()
    assert set(m) == {entry["name"] for entry in spec["per_layer"]}
    # A rep on a host twice as slow as the reference pace: its seconds
    # halve, its ratios hold.
    slow = layer_metrics([tmp_path / "t"], [2.0], [10.0], [8.0])
    assert slow["golden.self_s"] == pytest.approx(1.5)
    assert slow["golden.cycles_per_s"] == pytest.approx(2 * 150 / 5.0)
    assert slow["golden.share"] == pytest.approx(m["golden.share"])
    assert slow["trace.coverage"] == pytest.approx(0.7)


# ----------------------------------------------------------------------
# The host's pace
# ----------------------------------------------------------------------
def test_pace_probes_time_a_window_and_stop():
    from pace import Pace, run_cpus

    with Pace(run_cpus()) as host:
        started = time.perf_counter()
        time.sleep(3.0)
        probes = [proc.pid for proc in host._procs]
    assert 0.1 < host.of(started, 3.0) < 20.0
    # A window with too few units widens until it has them.
    assert host.of(started + 1.5, 0.0) > 0.0
    assert not any(Path(f"/proc/{pid}").exists() for pid in probes)


# ----------------------------------------------------------------------
# The comparison rule
# ----------------------------------------------------------------------
def test_compare_rule_on_synthetic_samples():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    assert judge(parent, faster, "lower", 0.1)["verdict"] == "better"
    # 9 of 10 wins still counts; medians apart by more than the parent IQR.
    nine = faster[:9] + [parent[9] + 1.0]
    assert judge(parent, nine, "lower", 0.1)["verdict"] == "better"
    # Too few pairs for a claim: an unchanged metric is within its bound.
    assert judge(parent[:5], parent[:5], "lower", 0.1)["verdict"] == (
        "within bound"
    )
    slower = [v * 1.3 for v in parent[:5]]
    assert judge(parent[:5], slower, "lower", 0.1)["verdict"] == "worse"
    noisy = [5.0, 15.0, 8.0, 13.0, 10.0]
    assert judge(parent[:5], noisy, "lower", 0.1)["verdict"] == "unresolved"
    # Throughput: higher is better, so a drop is the regression.
    assert judge(parent[:5], [v * 0.7 for v in parent[:5]], "higher",
                 0.1)["verdict"] == "worse"
    row = judge(parent, faster, "lower", 0.1)
    assert row["ratio"] == pytest.approx(0.8)
    assert row["a"]["median"] == pytest.approx(10.0)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def test_oracle_flags_a_flipped_verdict():
    from oracle import check_records
    from repro import api
    from repro.core.campaign import CampaignConfig

    config = CampaignConfig(delay_fractions=(0.9,), max_wires=6,
                            cycle_count=2, seed=3)
    try:
        result = api.analyze("alu", "libstrstr", config=config)
    finally:
        api.shutdown()
    records = common.campaign_records(result.to_payload())[:6]
    assert check_records(records, config.margin_cycles) == []
    flipped = [dict(r) for r in records]
    flipped[2]["outcome"] = "SDC" if flipped[2]["outcome"] == "MASKED" else (
        "MASKED"
    )
    mismatches = check_records(flipped, config.margin_cycles)
    assert len(mismatches) == 1
    assert f"wire {flipped[2]['wire_index']}" in mismatches[0]


# ----------------------------------------------------------------------
# Cleanup after failures
# ----------------------------------------------------------------------
def test_no_worker_survives_a_crashed_cli_run(tmp_path, monkeypatch):
    """The CLI dies with its pool workers alive; run_child reaps them."""
    argv = common.launch_argv(
        "cli", "delayavf", "libstrstr", "decoder", "--wires", "1100",
        "--cycles", "24", "--delays", "0.5", "0.7", "--jobs", "2",
        "--format", "json",
    )
    leaders = []
    real_popen = common.subprocess.Popen

    def recording_popen(*args, **kwargs):
        proc = real_popen(*args, **kwargs)
        leaders.append(proc.pid)
        return proc

    monkeypatch.setattr(common.subprocess, "Popen", recording_popen)
    outcome = {}
    runner = threading.Thread(target=lambda: outcome.update(
        child=common.run_child(argv, common.child_env(), tmp_path)
    ))
    runner.start()
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and not (
        leaders and len(common.live_group_members(leaders[0])) >= 3
    ):
        time.sleep(0.05)
    assert len(common.live_group_members(leaders[0])) >= 3  # CLI + 2 workers
    os.kill(leaders[0], signal.SIGKILL)
    runner.join(timeout=60.0)
    assert not runner.is_alive()
    assert outcome["child"].returncode != 0
    assert common.live_group_members(leaders[0]) == []


def test_no_daemon_survives_a_failed_service_rep(tmp_path, monkeypatch):
    from workloads import ServiceMixed

    workload = ServiceMixed(0, True, tmp_path)
    started = []
    real_start = ServiceMixed._start_daemon

    def recording_start(self, rep_dir, trace_dir):
        proc, url = real_start(self, rep_dir, trace_dir)
        started.append(proc.pid)
        return proc, url

    def broken_roundtrip(client, spec):
        raise RuntimeError("load generator crashed mid-pass")

    monkeypatch.setattr(ServiceMixed, "_start_daemon", recording_start)
    monkeypatch.setattr(ServiceMixed, "_roundtrip",
                        staticmethod(broken_roundtrip))
    with pytest.raises(RuntimeError):
        workload.rep(0, traced=False)
    assert started and common.live_group_members(started[0]) == []
