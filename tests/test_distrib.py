"""Worker fleets: transport, worker loop, and the shard coordinator.

The acceptance bar mirrors the fault-tolerance suite: however shards travel
(forked local workers, joining socket workers) and whatever goes wrong on the
way (worker death, raised shards, an empty fleet), the merged records must
be byte-identical to a clean serial run — only telemetry, spans, and the
``degraded`` flag may differ.  In-process joining workers run
:func:`repro.distrib.worker.serve` on daemon threads with
``configure_tracing=False`` so they never touch the host tracer; the crash
test uses real ``repro worker`` subprocesses because the ``kill`` chaos
action SIGKILLs the process that fires it.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.core import tracing
from repro.core.campaign import CampaignConfig, DelayAVFEngine
from repro.core.executor import (
    ParallelExecutor,
    SerialExecutor,
    SessionSpec,
    ShardExecutionError,
    execute_shard,
    shard_result_from_payload,
    shard_result_to_payload,
    shared_remote_executor,
    shutdown_shared_executors,
)
from repro.core.plan import CampaignPlan, WorkShard, build_plan
from repro.distrib import transport
from repro.distrib.worker import serve
from repro.testing import chaos
from repro.workloads.beebs import load_benchmark

#: Small but real: 3 shards x 8 wires x 2 delays on the shortest benchmark.
DISTRIB_CONFIG = CampaignConfig(
    cycle_count=3, max_wires=8, delay_fractions=(0.5, 0.9), margin_cycles=400
)


def _fibcall_spec(config=DISTRIB_CONFIG) -> SessionSpec:
    return SessionSpec(
        program=load_benchmark("libfibcall"),
        config=config,
    )


def _fib_engine(**overrides) -> DelayAVFEngine:
    """An engine whose config differs from DISTRIB_CONFIG by *overrides*
    (fleet coordinators read their fault policy from the campaign's spec)."""
    return DelayAVFEngine.from_spec(
        _fibcall_spec(dataclasses.replace(DISTRIB_CONFIG, **overrides))
    )


@pytest.fixture(scope="module")
def fib_engine():
    engine = DelayAVFEngine.from_spec(_fibcall_spec())
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def clean_result(fib_engine):
    """The clean serial reference every remote run must reproduce."""
    return fib_engine.run_structure("alu", executor=SerialExecutor())


def _serve_quietly(channel):
    # A coordinator that closes the channel under a busy worker (a failed
    # campaign's shutdown) is the test's intent, not a thread error.
    try:
        serve(channel, configure_tracing=False)
    except transport.TransportError:
        pass
    finally:
        channel.close()


def _start_worker_threads(host, port, count):
    """In-process workers serving shards over real sockets."""
    for _ in range(count):
        channel = transport.connect(host, port, retry_seconds=10.0)
        threading.Thread(
            target=_serve_quietly, args=(channel,), daemon=True
        ).start()


def _listening(address):
    """A coordinator for joining workers (no local forks)."""
    return ParallelExecutor(workers_from=address)


def _assert_identical(result, clean_result):
    for delay in DISTRIB_CONFIG.delay_fractions:
        assert (
            result.by_delay[delay].records
            == clean_result.by_delay[delay].records
        )


# ----------------------------------------------------------------------
# Address parsing
# ----------------------------------------------------------------------
def test_parse_workers_from_socket_and_queue():
    assert transport.parse_workers_from("127.0.0.1:8765") == ("127.0.0.1", 8765)
    assert transport.parse_workers_from(":0") == ("127.0.0.1", 0)
    # The socket is the only transport: a queue directory is not an address,
    # and the error names the one grammar there is.
    with pytest.raises(ValueError, match="HOST:PORT"):
        transport.parse_workers_from("queue:/tmp/q")


@pytest.mark.parametrize(
    "bad",
    ["", "nonsense", "host:notaport", "host:70000", "queue:", "queue:/tmp/q"],
)
def test_parse_workers_from_rejects_garbage(bad):
    with pytest.raises(ValueError):
        transport.parse_workers_from(bad)


def test_config_validates_workers_from():
    with pytest.raises(ValueError):
        CampaignConfig(
            cycle_count=1, delay_fractions=(0.5,), workers_from="bogus"
        )


# ----------------------------------------------------------------------
# Wire payload round-trips
# ----------------------------------------------------------------------
def test_session_spec_payload_roundtrip():
    for ecc in (False, True):
        spec = dataclasses.replace(_fibcall_spec(), ecc=ecc)
        payload = json.loads(json.dumps(spec.to_payload()))
        assert sorted(payload) == ["config", "ecc", "program"]
        rebuilt = SessionSpec.from_payload(payload)
        assert rebuilt.ecc is ecc
        assert rebuilt.config == spec.config
        assert rebuilt.program.image == spec.program.image
        assert rebuilt.program.symbols == spec.program.symbols


def test_shard_payload_roundtrip(fib_engine):
    """A shard names its structure, so a worker needs no plan to run it."""
    session = fib_engine.session
    plan = build_plan(
        "decoder", "libfibcall",
        session.system.structure_wires("decoder"),
        session.sampled_cycles, fib_engine.config,
    )
    for shard in plan.shards:
        payload = json.loads(json.dumps(shard.to_payload()))
        assert payload["structure"] == "decoder"
        assert WorkShard.from_payload(payload) == shard


def test_shard_result_payload_roundtrip(fib_engine):
    session = fib_engine.session
    plan = build_plan(
        "alu", "libfibcall",
        session.system.structure_wires("alu"),
        session.sampled_cycles, fib_engine.config,
    )
    shard = plan.shards[0]
    result = execute_shard(session, shard)
    payload = json.loads(json.dumps(shard_result_to_payload(result)))
    rebuilt = shard_result_from_payload(payload, shard)
    assert rebuilt.shard_index == result.shard_index
    assert rebuilt.by_delay == result.by_delay


def test_shard_result_payload_validates_shape(fib_engine):
    session = fib_engine.session
    plan = build_plan(
        "alu", "libfibcall",
        session.system.structure_wires("alu"),
        session.sampled_cycles, fib_engine.config,
    )
    shard = plan.shards[0]
    payload = shard_result_to_payload(execute_shard(session, shard))
    truncated = dict(payload, records=payload["records"][:1])
    with pytest.raises(ValueError):
        shard_result_from_payload(truncated, shard)


# ----------------------------------------------------------------------
# Parity: every worker source reproduces the serial records exactly
# ----------------------------------------------------------------------
def _run_with(source, engine):
    """One alu campaign on *engine*, its shards run by *source*."""
    if source == "serial":
        return engine.run_structure("alu", executor=SerialExecutor())
    if source == "jobs2":
        with ParallelExecutor(jobs=2) as local:
            return engine.run_structure("alu", executor=local)
    with _listening("127.0.0.1:0") as remote:
        _start_worker_threads(*remote.address, 2)
        return engine.run_structure("alu", executor=remote)


#: Workers each source brings to the campaign.
_JOINED = {"serial": 0, "jobs2": 2, "socket": 2}


@pytest.mark.parametrize("source", sorted(_JOINED))
def test_executor_parity(source, fib_engine, clean_result):
    result = _run_with(source, fib_engine)
    joined = _JOINED[source]
    assert result == clean_result  # telemetry excluded from equality by design
    _assert_identical(result, clean_result)
    for delay in DISTRIB_CONFIG.delay_fractions:
        assert (
            result.by_delay[delay].delay_avf
            == clean_result.by_delay[delay].delay_avf
        )
    # Worker telemetry was merged back into the campaign's slice.
    assert result.telemetry.count("injections") == (
        clean_result.telemetry.count("injections")
    )
    assert result.telemetry.count("workers_joined") == joined
    assert result.telemetry.count("worker_shards_completed") == (
        3 if joined else 0
    )
    assert not result.degraded


def test_remote_executor_requires_spec(fib_engine):
    with _listening("127.0.0.1:0") as remote:
        plan = CampaignPlan(
            structure="alu", benchmark="x", wire_count=1,
            wire_indices=(0,), sampled_cycles=(1,),
            delay_fractions=(0.5,), shards=(),
        )
        with pytest.raises(ValueError, match="SessionSpec"):
            remote.execute(plan, fib_engine.session)


def test_bare_json_line_is_corrupt_and_evicts(fib_engine, clean_result):
    """Every peer frames its messages: an unframed line evicts its sender."""
    with pytest.raises(transport.CorruptFrameError):
        transport.parse_frame(b'{"type": "hello", "pid": 1}')
    with _listening("127.0.0.1:0") as remote:
        host, port = remote.address
        legacy = transport.connect(host, port, retry_seconds=10.0)
        legacy._sock.sendall(b'{"type": "hello", "pid": 1}\n')
        _start_worker_threads(host, port, 1)
        result = fib_engine.run_structure("alu", executor=remote)
        legacy.close()
    _assert_identical(result, clean_result)
    assert result.telemetry.count("corrupt_frames") >= 1
    assert result.telemetry.count("workers_evicted") >= 1


# ----------------------------------------------------------------------
# Fault tolerance at the coordinator
# ----------------------------------------------------------------------
def test_empty_fleet_falls_back_to_serial(monkeypatch, clean_result):
    monkeypatch.setattr("repro.core.executor._WORKER_WAIT_SECONDS", 0.1)
    engine = _fib_engine()
    try:
        with _listening("127.0.0.1:0") as remote:
            result = engine.run_structure("alu", executor=remote)
    finally:
        engine.close()
    assert result == clean_result
    _assert_identical(result, clean_result)
    assert result.telemetry.count("serial_fallbacks") == 1
    assert result.degraded


def test_worker_raise_is_retried(monkeypatch, tmp_path, fib_engine, clean_result):
    monkeypatch.setenv(chaos.ENV_SPEC, "worker.shard=raise")
    monkeypatch.setenv(chaos.ENV_ONCE_FILE, str(tmp_path / "fault"))
    with _listening("127.0.0.1:0") as remote:
        host, port = remote.address
        _start_worker_threads(host, port, 2)
        result = fib_engine.run_structure("alu", executor=remote)
    _assert_identical(result, clean_result)
    assert result.telemetry.count("shard_retries") >= 1


def test_worker_crash_evicts_and_recovers(monkeypatch, tmp_path, clean_result):
    """Kill one of two real worker processes mid-campaign: the survivor
    finishes the requeued shard and records stay byte-identical."""
    # trace=True travels to the workers through the wire spec, so their
    # spans come back with each result for the stitching assertions below.
    monkeypatch.setattr("repro.core.executor._WORKER_WAIT_SECONDS", 120.0)
    engine = _fib_engine(trace=True)
    tracing.enable(reset=True)
    try:
        with _listening("127.0.0.1:0") as remote:
            host, port = remote.address
            env = dict(
                os.environ,
                PYTHONPATH=os.pathsep.join(sys.path),
                **{
                    chaos.ENV_SPEC: "worker.shard=kill",
                    chaos.ENV_ONCE_FILE: str(tmp_path / "fault"),
                },
            )
            procs = [
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "worker",
                        "--connect", f"{host}:{port}",
                        "--retry-seconds", "30",
                    ],
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
                for _ in range(2)
            ]
            try:
                result = engine.run_structure("alu", executor=remote)
            finally:
                for proc in procs:
                    proc.terminate()
                for proc in procs:
                    proc.wait(timeout=30)
        _assert_identical(result, clean_result)
        assert result.telemetry.count("workers_evicted") >= 1
        assert result.degraded
        # Cross-host span stitching: worker spans come back on their own pid
        # track, their roots parent-linked to the coordinator dispatch span.
        spans = tracing.drain()
        remote_spans = [
            s for s in spans if s.get("pid") not in (None, os.getpid())
        ]
        assert remote_spans, "no worker spans came back with the results"
        assert {s["pid"] for s in remote_spans} <= {p.pid for p in procs}
        roots = [s for s in remote_spans if s.get("parent_pid") == os.getpid()]
        assert roots and all(r["parent"] is not None for r in roots)
    finally:
        tracing.disable()
        tracing.reset()
        engine.close()


def test_stitch_remote_spans_rehomes_roots():
    spans = [
        {"name": "a", "cat": "shard", "pid": 1, "tid": 1, "id": 1,
         "parent": None, "args": {}},
        {"name": "b", "cat": "shard", "pid": 1, "tid": 1, "id": 2,
         "parent": 1, "args": {}},
    ]
    stitched = tracing.stitch_remote_spans(
        spans, pid=777, parent=42, parent_pid=9
    )
    assert all(s["pid"] == 777 and s["tid"] == 777 for s in stitched)
    assert stitched[0]["parent"] == 42
    assert stitched[0]["parent_pid"] == 9
    assert stitched[1]["parent"] == 1  # non-root keeps its worker-local parent
    assert "parent_pid" not in stitched[1]
    # Identity (name, cat, args) is untouched by stitching.
    assert tracing.span_identity(stitched[0]) == ("a", "shard", ())


# ----------------------------------------------------------------------
# A re-run across a coordinator restart
# ----------------------------------------------------------------------
def test_resume_after_coordinator_restart(monkeypatch, tmp_path, clean_result):
    """A remote campaign persists its records on the *coordinator's* cache
    (re-put post-merge), so a restarted coordinator serves the whole plan
    from the record table: no worker joins, none is waited for, and
    nothing falls back to serial."""
    config = CampaignConfig(
        cycle_count=3, max_wires=8, delay_fractions=(0.5, 0.9),
        margin_cycles=400, cache_dir=str(tmp_path / "verdicts"),
    )
    spec = _fibcall_spec(config)
    engine = DelayAVFEngine.from_spec(spec)
    try:
        with _listening("127.0.0.1:0") as remote:
            host, port = remote.address
            _start_worker_threads(host, port, 2)
            first = engine.run_structure("alu", executor=remote)
    finally:
        engine.close()  # flushes the verdict cache
    _assert_identical(first, clean_result)

    # "Restart": a fresh engine over the same cache, a fleet nobody joins.
    monkeypatch.setattr("repro.core.executor._WORKER_WAIT_SECONDS", 0.1)
    engine = DelayAVFEngine.from_spec(_fibcall_spec(config))
    try:
        with _listening("127.0.0.1:0") as remote:
            rerun = engine.run_structure("alu", executor=remote)
    finally:
        engine.close()
    _assert_identical(rerun, clean_result)
    assert rerun.telemetry.count("workers_joined") == 0
    assert rerun.telemetry.count("serial_fallbacks") == 0
    assert not rerun.degraded


# ----------------------------------------------------------------------
# Shared fleets
# ----------------------------------------------------------------------
def test_shared_remote_executor_is_per_address():
    addr = "127.0.0.1:0"
    try:
        first = shared_remote_executor(addr)
        assert shared_remote_executor(addr) is first
        first.close()  # engine-level close: a no-op on shared instances
        assert not first._closed
        shutdown_shared_executors()
        assert first._closed
        # A fresh request after shutdown builds a fresh fleet.
        assert shared_remote_executor(addr) is not first
    finally:
        shutdown_shared_executors()


def test_shared_fleet_applies_each_engines_fault_policy(monkeypatch, tmp_path):
    """Engines sharing one fleet keep their own fault policy: the engine
    that opened the fleet grants retries, the second grants none, so one
    raised shard fails the second engine's campaign."""
    lenient = _fib_engine(workers_from="127.0.0.1:0")
    strict = _fib_engine(workers_from="127.0.0.1:0", max_retries=0)
    try:
        fleet = lenient.default_executor()
        assert strict.default_executor() is fleet
        _start_worker_threads(*fleet.address, 2)
        monkeypatch.setenv(chaos.ENV_SPEC, "worker.shard=raise")
        monkeypatch.setenv(chaos.ENV_ONCE_FILE, str(tmp_path / "fault"))
        with pytest.raises(ShardExecutionError, match="failed 1 times"):
            strict.run_structure("alu")
    finally:
        lenient.close()
        strict.close()
        shutdown_shared_executors()


def test_default_executor_prefers_remote():
    config = CampaignConfig(
        cycle_count=1, delay_fractions=(0.5,), jobs=4,
        workers_from="127.0.0.1:0",
    )
    engine = DelayAVFEngine.from_spec(_fibcall_spec(config))
    try:
        executor = engine.default_executor()
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers_from == config.workers_from
        assert executor is engine.default_executor()
    finally:
        engine.close()
        shutdown_shared_executors()
