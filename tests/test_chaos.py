"""Durability under injected faults: the PR 9 self-healing acceptance bar.

Every scenario here breaks something real — a torn cache flush, a corrupted
wire frame, a SIGKILL'd daemon mid-job — and then demands the same two
outcomes: zero crashes, and final results bit-identical to a clean serial
run.  The faults come from :mod:`repro.testing.chaos` (programmatic hooks
in-process, ``REPRO_CHAOS`` env for subprocess daemons), so each test
states its failure injection explicitly instead of racing the scheduler.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import api
from repro.cli import main
from repro.core.cache import (
    VerdictCache,
    verify_cache_dir,
    verify_scope_file,
)
from repro.core.campaign import CampaignConfig, DelayAVFEngine
from repro.core.executor import ParallelExecutor, SerialExecutor, SessionSpec
from repro.distrib import transport
from repro.distrib.worker import serve
from repro.errors import ServiceOverloadedError
from repro.fileio import atomic_write
from repro.service.journal import JobJournal
from repro.service.jobs import JobManager, JobSpec
from repro.testing import chaos
from repro.workloads.beebs import load_benchmark

SMALL_CONFIG = {
    "delay_fractions": (0.9,),
    "cycle_count": 2,
    "max_wires": 3,
    "seed": 0,
}

CHAOS_CONFIG = CampaignConfig(
    cycle_count=3, max_wires=8, delay_fractions=(0.5, 0.9), margin_cycles=400
)


@pytest.fixture(autouse=True)
def _chaos_teardown():
    yield
    chaos.reset()
    api.shutdown()


def _fibcall_spec(config=CHAOS_CONFIG) -> SessionSpec:
    return SessionSpec(
        program=load_benchmark("libfibcall"),
        config=config,
    )


@pytest.fixture(scope="module")
def fib_engine():
    engine = DelayAVFEngine.from_spec(_fibcall_spec())
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def clean_result(fib_engine):
    return fib_engine.run_structure("alu", executor=SerialExecutor())


def _serve_quietly(channel):
    # Evicted workers see their channel closed under them; that is the
    # test's intent, not an error worth a thread-exception warning.
    try:
        serve(channel, configure_tracing=False)
    except transport.TransportError:
        pass
    finally:
        channel.close()


def _start_worker_threads(host, port, count):
    for _ in range(count):
        channel = transport.connect(host, port, retry_seconds=10.0)
        threading.Thread(
            target=_serve_quietly, args=(channel,), daemon=True
        ).start()


def _assert_identical(result, clean):
    for delay in CHAOS_CONFIG.delay_fractions:
        assert result.by_delay[delay].records == clean.by_delay[delay].records


# ----------------------------------------------------------------------
# The chaos harness itself
# ----------------------------------------------------------------------
def test_fire_is_inert_without_configuration():
    assert chaos.fire("nowhere", data=b"abc") == b"abc"
    assert chaos.fire("nowhere") is None


def test_programmatic_hook_transforms_data():
    with chaos.injected("p", lambda data, path: data[::-1]):
        assert chaos.fire("p", data=b"abc") == b"cba"
    assert chaos.fire("p", data=b"abc") == b"abc"  # uninstalled on exit


def test_env_spec_corrupts_once_with_marker(monkeypatch, tmp_path):
    monkeypatch.setenv(chaos.ENV_SPEC, "wire=corrupt:0")
    monkeypatch.setenv(chaos.ENV_ONCE_FILE, str(tmp_path / "marker"))
    first = chaos.fire("wire", data=b"\x00\x01")
    assert first == b"\xff\x01"
    # The once-file marker is claimed; later fires are inert.
    assert chaos.fire("wire", data=b"\x00\x01") == b"\x00\x01"
    # Unconfigured points never fire.
    assert chaos.fire("other", data=b"zz") == b"zz"


def test_env_truncate_action(monkeypatch, tmp_path):
    victim = tmp_path / "victim.bin"
    victim.write_bytes(b"x" * 100)
    monkeypatch.setenv(chaos.ENV_SPEC, "f=truncate:7")
    chaos.fire("f", path=str(victim))
    assert victim.stat().st_size == 7


def test_unknown_action_raises(monkeypatch):
    monkeypatch.setenv(chaos.ENV_SPEC, "x=explode")
    with pytest.raises(chaos.ChaosError, match="unknown chaos action"):
        chaos.fire("x")


def test_atomic_write_publishes_whole_or_not_at_all(tmp_path):
    target = tmp_path / "sub" / "doc.json"
    atomic_write(target, "old")
    assert target.read_text() == "old"

    def crash_before_replace(tmp):
        assert open(tmp).read() == "new"  # fully written, not yet published
        raise chaos.ChaosError("killed between write and replace")

    with pytest.raises(chaos.ChaosError):
        atomic_write(target, "new", before_replace=crash_before_replace)
    assert target.read_text() == "old"
    assert os.listdir(target.parent) == ["doc.json"]  # no temp file left
    atomic_write(target, b"bytes", fsync=True)
    assert target.read_bytes() == b"bytes"


# ----------------------------------------------------------------------
# Cache integrity: torn flush -> quarantine -> rebuild, bit-identical
# ----------------------------------------------------------------------
def test_torn_cache_flush_quarantines_and_rebuilds_identical(tmp_path):
    cache_dir = str(tmp_path / "verdicts")
    config = CampaignConfig(**SMALL_CONFIG)
    clean = api.analyze("lsu", "libstrstr", config=config)
    api.shutdown()

    # Every flush is torn mid-write: the published scope file ends up
    # truncated, exactly like a power cut between write() and fsync.
    def tear(data, path):
        size = max(1, os.path.getsize(path) // 2)
        with open(path, "r+b") as handle:
            handle.truncate(size)

    torn_config = CampaignConfig(**SMALL_CONFIG, cache_dir=cache_dir)
    with chaos.injected("cache.flush", tear):
        torn = api.analyze("lsu", "libstrstr", config=torn_config)
    api.shutdown()
    _ = torn
    assert torn.by_delay[0.9].records == clean.by_delay[0.9].records

    # The surviving scope file is torn; a fresh campaign must quarantine it,
    # resimulate from cold, and still produce identical records.
    report = verify_cache_dir(cache_dir)
    assert report["corrupt"], "chaos should have left a torn scope file"
    rebuilt = api.analyze(
        "lsu", "libstrstr",
        config=CampaignConfig(**SMALL_CONFIG, cache_dir=cache_dir),
    )
    assert rebuilt.by_delay[0.9].records == clean.by_delay[0.9].records
    # The torn file was moved aside, not deleted: forensics stay possible.
    # (The counter lives on the session telemetry — the quarantine happens
    # at cache construction, before the per-run delta window opens.)
    quarantined = [
        name for name in os.listdir(cache_dir) if ".corrupt-" in name
    ]
    assert quarantined
    # After the clean rebuild the directory verifies ok again.
    report = verify_cache_dir(cache_dir)
    assert not report["corrupt"]
    assert report["ok"]


def test_scope_file_without_checksum_is_corrupt(tmp_path, capsys):
    """Every flush writes payload_sha256, so a scope file lacking one is
    damaged: fsck fails on it, and the next open quarantines it and starts
    cold."""
    cache = VerdictCache(tmp_path, "scope")
    cache.put_record("k", [1, "x"])
    cache.flush()
    payload = json.loads(cache.path.read_text())
    del payload["payload_sha256"]
    cache.path.write_text(json.dumps(payload))
    assert main(["fsck", str(tmp_path)]) == 1
    assert f"CORRUPT  {cache.path}: no payload_sha256" in capsys.readouterr().out
    reopened = VerdictCache(tmp_path, "scope")
    assert reopened.quarantines == 1
    assert reopened.get_record("k") is None
    assert not cache.path.exists()


def test_concurrent_flushes_over_quarantined_scope_converge(tmp_path):
    """Satellite: two throttled writers against a corrupt scope file end in
    ONE valid checksummed file holding both writers' entries."""
    scope = "s" * 40
    a = VerdictCache(tmp_path, scope)
    b = VerdictCache(tmp_path, scope)
    path = a.path
    # Plant a corrupt file where both writers will read-merge-write.
    path.write_text('{"schema_version": 1, "torn')
    a.put_record("ka", [1, "x"])
    b.put_record("kb", [2, "y"])
    threads = [
        threading.Thread(target=a.flush),
        threading.Thread(target=b.flush),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    status, detail = verify_scope_file(path)
    assert status == "ok", detail
    payload = json.loads(path.read_text())
    assert payload["records"]["ka"] == [1, "x"]
    assert payload["records"]["kb"] == [2, "y"]
    # Exactly one writer saw the damage (the flock serializes the merge).
    assert a.quarantines + b.quarantines == 1


# ----------------------------------------------------------------------
# Transport: corrupted frame -> requeue uncharged, never a crash
# ----------------------------------------------------------------------
def test_corrupt_result_frame_requeues_and_stays_identical(
    fib_engine, clean_result
):
    # Corrupt exactly one worker->coordinator result frame; the coordinator
    # must detect it via the frame checksum, evict that worker, requeue the
    # shard uncharged, and finish identically on the survivor.
    state = {"fired": False}

    def corrupt_one_result(data, path):
        if state["fired"] or b'"result"' not in data:
            return None
        state["fired"] = True
        damaged = bytearray(data)
        damaged[len(damaged) // 2] ^= 0xFF
        return bytes(damaged)

    with chaos.injected("transport.send", corrupt_one_result):
        with ParallelExecutor(workers_from="127.0.0.1:0") as remote:
            host, port = remote.address
            _start_worker_threads(host, port, 2)
            result = fib_engine.run_structure("alu", executor=remote)
    assert state["fired"], "no result frame crossed the wire"
    _assert_identical(result, clean_result)
    assert result.telemetry.count("corrupt_frames") >= 1
    assert result.telemetry.count("workers_evicted") >= 1
    # Detected corruption is the transport's fault, not the shard's: the
    # retry budget must not have been charged.
    assert result.telemetry.count("shard_retries") == 0


def test_fleet_that_keeps_dying_finishes_serially(monkeypatch, clean_result):
    """Evictions are capped per campaign: a fleet whose every result frame
    arrives corrupt loses three workers, then the campaign finishes
    in-process — long before the empty-fleet wait, although workers remain
    connected."""

    def corrupt_every_result(data, path):
        if b'"result"' not in data:
            return None
        damaged = bytearray(data)
        damaged[len(damaged) // 2] ^= 0xFF
        return bytes(damaged)

    monkeypatch.setattr("repro.core.executor._WORKER_WAIT_SECONDS", 120.0)
    engine = DelayAVFEngine.from_spec(_fibcall_spec(CHAOS_CONFIG))
    started = time.monotonic()
    try:
        with chaos.injected("transport.send", corrupt_every_result):
            with ParallelExecutor(workers_from="127.0.0.1:0") as remote:
                _start_worker_threads(*remote.address, 5)
                result = engine.run_structure("alu", executor=remote)
    finally:
        engine.close()
    assert time.monotonic() - started < 60
    _assert_identical(result, clean_result)
    assert result.telemetry.count("workers_evicted") >= 3
    assert result.telemetry.count("serial_fallbacks") == 1
    assert result.degraded


# ----------------------------------------------------------------------
# Job journal: unit
# ----------------------------------------------------------------------
def test_journal_round_trip(tmp_path):
    journal = JobJournal(tmp_path / "j")
    journal.record_submitted("job-1", {"kind": "analyze"}, 5)
    journal.record_started("job-1")
    journal.record_finished("job-1", result={"x": 1}, telemetry={"c": {}})
    journal.close()
    events = JobJournal(tmp_path / "j").replay()
    assert [e["event"] for e in events] == ["submitted", "started", "finished"]
    assert events[0]["priority"] == 5
    digest = events[2]["result_sha256"]
    assert JobJournal(tmp_path / "j").load_result("job-1", digest) == {"x": 1}


def test_journal_truncates_torn_tail(tmp_path, capsys):
    journal = JobJournal(tmp_path / "j")
    journal.record_submitted("job-1", {}, 0)
    journal.record_started("job-1")
    journal.close()
    with open(journal.path, "a") as handle:
        handle.write('{"event": "fini')  # daemon died mid-append
    reopened = JobJournal(tmp_path / "j")
    events = reopened.replay()
    assert [e["event"] for e in events] == ["submitted", "started"]
    assert reopened.torn_tails == 1
    # The truncation is durable: a second replay sees a clean file.
    again = JobJournal(tmp_path / "j")
    assert len(again.replay()) == 2
    assert again.torn_tails == 0


def test_journal_result_digest_mismatch_degrades_to_rerun(tmp_path):
    journal = JobJournal(tmp_path / "j")
    journal.record_finished("job-1", result={"x": 1})
    (journal.results_dir / "job-1.json").write_text('{"x": 2}')
    event = journal.replay()[0]
    assert journal.load_result("job-1", event["result_sha256"]) is None


def test_journal_rejects_unknown_fsync_policy(tmp_path):
    with pytest.raises(ValueError, match="fsync_policy"):
        JobJournal(tmp_path / "j", fsync_policy="sometimes")


# ----------------------------------------------------------------------
# Backpressure: bounded queue -> typed overload error
# ----------------------------------------------------------------------
def test_submit_overload_rejects_with_retry_after(tmp_path):
    manager = JobManager(workers=1, max_queued=1)  # never started: jobs queue
    spec_a = JobSpec.from_payload({
        "kind": "analyze", "structure": "alu", "benchmark": "md5",
        "config": dict(SMALL_CONFIG),
    })
    spec_b = JobSpec.from_payload({
        "kind": "analyze", "structure": "lsu", "benchmark": "md5",
        "config": dict(SMALL_CONFIG),
    })
    manager.submit(spec_a)
    with pytest.raises(ServiceOverloadedError) as excinfo:
        manager.submit(spec_b)
    assert excinfo.value.retry_after >= 1.0
    assert manager.telemetry.count("jobs_rejected_overloaded") == 1
    # Resubmitting the job already in the queue deduplicates, never rejects.
    _, deduplicated = manager.submit(spec_a)
    assert deduplicated


# ----------------------------------------------------------------------
# The flagship: SIGKILL the daemon mid-job, restart, finish identically
# ----------------------------------------------------------------------
def test_daemon_sigkill_midjob_then_restart_finishes_identically(tmp_path):
    journal_dir = str(tmp_path / "journal")
    cache_dir = str(tmp_path / "verdicts")
    spec = {
        "kind": "analyze", "structure": "lsu", "benchmark": "libstrstr",
        "config": dict(SMALL_CONFIG, cache_dir=cache_dir),
    }
    env = dict(
        os.environ,
        PYTHONPATH="src",
        REPRO_CHAOS="service.job=kill",
        REPRO_CHAOS_ONCE_FILE=str(tmp_path / "chaos.marker"),
    )
    base = _spawn_daemon(tmp_path, journal_dir, env)
    from repro.client import ServiceClient
    from repro.errors import ServiceUnavailableError

    # Job ids are content-addressed, so the id is known before submission —
    # which matters here, because the SIGKILL can race the submit response.
    job_id = JobSpec.from_payload(spec).job_id
    client = ServiceClient(base, connect_retries=0)
    try:
        assert client.submit(spec) == job_id
    except ServiceUnavailableError:
        pass  # daemon died mid-response; the journal already has the job
    _wait_for_death(tmp_path)  # chaos SIGKILLs the daemon as the job starts

    # Restart over the same journal (the once-marker keeps chaos inert now):
    # the submitted-but-unfinished job replays, re-runs, and completes.
    base = _spawn_daemon(tmp_path, journal_dir, env)
    client = ServiceClient(base)
    served = client.result(job_id, wait=True, timeout=300.0)
    _shutdown_daemon(tmp_path)

    local = api.analyze(
        "lsu", "libstrstr", config=CampaignConfig(**SMALL_CONFIG)
    )
    from repro.core.results import result_from_payload

    assert result_from_payload(served) == local


_DAEMONS = {}


def _spawn_daemon(key, journal_dir, env):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "1", "--journal-dir", journal_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    _DAEMONS[key] = proc
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "listening on" in line:
            return line.split("listening on", 1)[1].strip()
        if proc.poll() is not None:
            break
        if not line:
            time.sleep(0.05)
    raise AssertionError("daemon never reported its listen address")


def _wait_for_death(key, timeout=120.0):
    proc = _DAEMONS[key]
    assert proc.wait(timeout=timeout) == -signal.SIGKILL


def _shutdown_daemon(key):
    proc = _DAEMONS.pop(key)
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
