"""Fault-tolerant campaign execution: retry, eviction, fallback, re-runs.

Worker faults are injected through the ``worker.shard`` hook point of
:mod:`repro.testing.chaos` (the same seam CI's chaos smoke uses): the
``REPRO_CHAOS`` environment, inherited by the forked local workers, makes
the worker that picks up a shard die (``kill``), raise (``raise``), or hang
(``delay:S``); ``REPRO_CHAOS_ONCE_FILE`` limits the fault to one firing
across all workers.  The acceptance bar throughout is that a recovered
campaign's records are byte-identical to a clean serial run — only telemetry
and the ``degraded`` flag may differ.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.cache import (
    VerdictCache,
    compute_payload_sha256,
    record_key,
    record_to_payload,
)
from repro.core.campaign import CampaignConfig, DelayAVFEngine
from repro.core.executor import (
    ParallelExecutor,
    SerialExecutor,
    SessionSpec,
    ShardExecutionError,
    execute_shard,
)
from repro.core.group_ace import Outcome
from repro.core.plan import build_plan
from repro.testing import chaos
from repro.workloads.beebs import load_benchmark

#: Small but real: 3 shards x 8 wires x 2 delays on the shortest benchmark.
FAULT_CONFIG = CampaignConfig(
    cycle_count=3, max_wires=8, delay_fractions=(0.5, 0.9), margin_cycles=400
)


def _fibcall_spec(config=FAULT_CONFIG) -> SessionSpec:
    return SessionSpec(
        program=load_benchmark("libfibcall"),
        config=config,
    )


@pytest.fixture(scope="module")
def fib_engine():
    engine = DelayAVFEngine.from_spec(_fibcall_spec())
    yield engine
    engine.close()


@pytest.fixture
def engine_with():
    """Build engines whose config differs from FAULT_CONFIG by the given
    overrides — the coordinator reads its fault policy from the campaign's
    spec — and close them after the test."""
    engines = []

    def build(**overrides):
        engines.append(DelayAVFEngine.from_spec(
            _fibcall_spec(dataclasses.replace(FAULT_CONFIG, **overrides))
        ))
        return engines[-1]

    yield build
    for engine in engines:
        engine.close()


@pytest.fixture(scope="module")
def clean_result(fib_engine):
    """The clean serial reference every recovered run must reproduce."""
    return fib_engine.run_structure("alu", executor=SerialExecutor())


def _arm_fault(monkeypatch, tmp_path, action, once=True):
    """Fault the workers' ``worker.shard`` hook (once, or on every shard)."""
    monkeypatch.setenv(chaos.ENV_SPEC, f"worker.shard={action}")
    if once:
        monkeypatch.setenv(chaos.ENV_ONCE_FILE, str(tmp_path / "fault"))


def _assert_identical(result, clean_result):
    assert result == clean_result
    for delay in FAULT_CONFIG.delay_fractions:
        assert (
            result.by_delay[delay].records == clean_result.by_delay[delay].records
        )


# ----------------------------------------------------------------------
# Worker crash: the dead worker is evicted, its shard requeued
# ----------------------------------------------------------------------
def test_worker_crash_recovers_via_eviction(
    monkeypatch, tmp_path, fib_engine, clean_result
):
    _arm_fault(monkeypatch, tmp_path, "kill")
    with ParallelExecutor(jobs=2) as pool:
        recovered = fib_engine.run_structure("alu", executor=pool)
    _assert_identical(recovered, clean_result)
    assert recovered.telemetry.count("workers_evicted") >= 1
    assert recovered.degraded
    assert not clean_result.degraded


# ----------------------------------------------------------------------
# Worker exception: bounded retry with backoff, the fleet survives
# ----------------------------------------------------------------------
def test_worker_exception_retried_without_pool_rebuild(
    monkeypatch, tmp_path, fib_engine, clean_result
):
    _arm_fault(monkeypatch, tmp_path, "raise")
    with ParallelExecutor(jobs=2) as pool:
        recovered = fib_engine.run_structure("alu", executor=pool)
    _assert_identical(recovered, clean_result)
    assert recovered.telemetry.count("shard_retries") >= 1
    assert recovered.telemetry.count("workers_evicted") == 0
    # A retried-and-recovered shard is routine, not a degraded campaign.
    assert not recovered.degraded


def test_worker_exception_exhausts_retry_budget(
    monkeypatch, tmp_path, engine_with
):
    # Fault every attempt (no once-marker): the retry budget must bound it.
    # Every shard raises, so whichever runs out of attempts first is named.
    _arm_fault(monkeypatch, tmp_path, "raise", once=False)
    monkeypatch.setattr("repro.core.executor._RETRY_BACKOFF", 0.01)
    engine = engine_with(max_retries=1)
    with ParallelExecutor(jobs=2) as pool:
        with pytest.raises(ShardExecutionError, match=r"shard \d+ .*giving up"):
            engine.run_structure("alu", executor=pool)


# ----------------------------------------------------------------------
# Hung worker: the per-shard timeout evicts (and reaps) it
# ----------------------------------------------------------------------
def test_hung_worker_times_out_and_recovers(
    monkeypatch, tmp_path, engine_with, clean_result
):
    _arm_fault(monkeypatch, tmp_path, "delay:300")
    engine = engine_with(shard_timeout=15)
    started = time.monotonic()
    with ParallelExecutor(jobs=2) as pool:
        recovered = engine.run_structure("alu", executor=pool)
    assert time.monotonic() - started < 120
    _assert_identical(recovered, clean_result)
    assert recovered.telemetry.count("shard_timeouts") >= 1
    assert recovered.telemetry.count("workers_evicted") >= 1
    assert recovered.degraded
    # The hung worker was terminated and reaped, the survivor shut down.
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Every worker dies: graceful serial fallback finishes the campaign
# ----------------------------------------------------------------------
def test_repeated_pool_failure_degrades_to_serial(
    monkeypatch, tmp_path, engine_with, clean_result
):
    # Kill on every shard: both local workers die, the local fleet never
    # regrows within a call, and the remaining shards must finish in-process
    # at once — no waiting for workers_from joiners (the hook only fires in
    # workers, so the serial path is clean).
    _arm_fault(monkeypatch, tmp_path, "kill", once=False)
    monkeypatch.setattr("repro.core.executor._WORKER_WAIT_SECONDS", 600.0)
    engine = engine_with()
    started = time.monotonic()
    with ParallelExecutor(jobs=2) as pool:
        recovered = engine.run_structure("alu", executor=pool)
    assert time.monotonic() - started < 120
    _assert_identical(recovered, clean_result)
    assert recovered.telemetry.count("workers_evicted") == 2
    assert recovered.telemetry.count("serial_fallbacks") == 1
    assert recovered.degraded


def test_close_terminates_a_worker_busy_with_an_abandoned_shard(
    tmp_path, engine_with
):
    """A campaign that raises leaves a worker mid-shard; closing the fleet
    terminates it instead of waiting for a result nobody will collect."""
    marker = str(tmp_path / "sleeper")

    def hang_first_fail_rest(data=None, path=None):  # runs in the workers
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            raise chaos.ChaosError("shard fails")
        time.sleep(300)

    engine = engine_with(max_retries=0)
    started = time.monotonic()
    with chaos.injected("worker.shard", hang_first_fail_rest):
        with pytest.raises(ShardExecutionError):
            with ParallelExecutor(jobs=2) as pool:
                engine.run_structure("alu", executor=pool)
    assert time.monotonic() - started < 20
    assert multiprocessing.active_children() == []


def test_local_fleet_is_topped_up_and_reaped(fib_engine, clean_result):
    pool = ParallelExecutor(jobs=2)
    result = fib_engine.run_structure("alu", executor=pool)
    _assert_identical(result, clean_result)
    assert len(multiprocessing.active_children()) == 2
    # A worker that dies between campaigns is replaced by the next one.
    victim = next(iter(pool._workers.values())).process
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=30)
    again = fib_engine.run_structure("alu", executor=pool)
    _assert_identical(again, clean_result)
    assert again.telemetry.count("workers_evicted") == 1
    assert again.telemetry.count("workers_joined") == 1
    assert len(multiprocessing.active_children()) == 2
    pool.close()
    assert multiprocessing.active_children() == []
    # A closed local fleet is forked afresh by the next campaign.
    third = fib_engine.run_structure("alu", executor=pool)
    _assert_identical(third, clean_result)
    assert third.telemetry.count("workers_joined") == 2
    pool.close()
    assert multiprocessing.active_children() == []


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_local_workers_exit_when_their_coordinator_dies():
    """Only the coordinator holds its end of each worker's socketpair, so a
    SIGKILLed coordinator reads as EOF and its idle workers exit."""
    coordinator = subprocess.Popen(
        [sys.executable, "-c", (
            "import time\n"
            "from repro.core.executor import ParallelExecutor\n"
            "from repro.core.telemetry import CampaignTelemetry\n"
            "pool = ParallelExecutor(jobs=2)\n"
            "pool._telemetry = CampaignTelemetry()\n"
            "pool._spawn_local_workers()\n"
            "print(*(w.process.pid for w in pool._workers.values()),"
            " flush=True)\n"
            "time.sleep(600)\n"
        )],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    workers = [int(pid) for pid in coordinator.stdout.readline().split()]
    assert len(workers) == 2 and all(_alive(pid) for pid in workers)
    coordinator.kill()
    coordinator.wait(timeout=30)
    deadline = time.monotonic() + 30
    while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not any(_alive(pid) for pid in workers)


# ----------------------------------------------------------------------
# Re-runs: an interrupted campaign picks up from the records it flushed
# ----------------------------------------------------------------------
RESUME_CONFIG = CampaignConfig(
    cycle_count=4, max_wires=6, delay_fractions=(0.9,), margin_cycles=600
)


def _cached(config, tmp_path):
    return dataclasses.replace(config, cache_dir=str(tmp_path))


def test_resume_skips_completed_shards(tmp_path, system, strstr_program):
    """A re-run simulates only the shards whose records were not flushed."""
    config = _cached(RESUME_CONFIG, tmp_path)
    interrupted = DelayAVFEngine(system, strstr_program, config)
    plan = build_plan(
        "alu", strstr_program.name, system.structure_wires("alu"),
        interrupted.session.sampled_cycles, config,
    )
    # Simulate an interrupt after two shards: execute them (which puts their
    # records), flush, and abandon the engine.
    for shard in plan.shards[:2]:
        execute_shard(interrupted.session, shard)
    interrupted.verdict_cache.flush()

    rerun = DelayAVFEngine(system, strstr_program, config)
    result = rerun.run_structure("alu")
    # Only the two unflushed cycles build waveforms; the flushed shards'
    # records come from the record table.
    assert result.telemetry.count("waveforms_built") == 2
    assert result.telemetry.count("record_cache_hits") == 2 * len(
        plan.shards[0].wire_indices
    )

    clean = DelayAVFEngine(system, strstr_program, RESUME_CONFIG).run_structure("alu")
    assert result == clean
    assert result.by_delay[0.9].records == clean.by_delay[0.9].records
    assert not result.degraded

    # A finished campaign re-runs entirely from the store: no simulation.
    finished = DelayAVFEngine(system, strstr_program, config)
    full = finished.run_structure("alu")
    assert full == clean
    assert full.telemetry.count("golden_runs") == 0
    assert full.telemetry.count("waveforms_built") == 0


def test_resume_requires_complete_records(tmp_path, system, strstr_program):
    """A record lost from the store is re-simulated, and only that one."""
    config = _cached(RESUME_CONFIG, tmp_path)
    engine = DelayAVFEngine(system, strstr_program, config)
    first = engine.run_structure("alu")
    engine.close()

    # Drop one record straight from the store file (flush() would merge the
    # on-disk state back under and resurrect it).
    cache = VerdictCache.open(tmp_path, system.netlist, strstr_program, config)
    victim = first.by_delay[0.9].records[0]
    key = record_key(
        "alu", victim.cycle, victim.wire_index, 0.9, True, system.clock_period
    )
    payload = json.loads(cache.path.read_text())
    assert payload["records"].pop(key) is not None
    # Re-sign the edited payload: this simulates a record that was genuinely
    # lost (never written), not file corruption — which would be quarantined.
    payload["payload_sha256"] = compute_payload_sha256(payload)
    cache.path.write_text(json.dumps(payload))

    rerun = DelayAVFEngine(system, strstr_program, config)
    result = rerun.run_structure("alu")
    assert result == first
    assert result.telemetry.count("injections") == 1
    assert result.telemetry.count("waveforms_built") == 1


def test_truncated_cache_file_recovers_cold(tmp_path, system, strstr_program):
    """A torn write (crash mid-flush) must load as a cold scope, not error."""
    config = _cached(RESUME_CONFIG, tmp_path)
    engine = DelayAVFEngine(system, strstr_program, config)
    reference = engine.run_structure("alu")
    path = engine.verdict_cache.path
    engine.close()

    data = path.read_text()
    path.write_text(data[: len(data) // 2])

    recovered = DelayAVFEngine(system, strstr_program, config)
    result = recovered.run_structure("alu")
    assert result == reference
    assert result.telemetry.count("record_cache_hits") == 0


# ----------------------------------------------------------------------
# Throttled incremental flushes
# ----------------------------------------------------------------------
def test_flush_throttled_by_count_and_age(tmp_path):
    cache = VerdictCache(tmp_path, "scope")
    cache.put_verdict("1|1|0:1", Outcome.SDC)
    assert not cache.flush_throttled(every_n=3, max_seconds=3600)
    assert not cache.flush_throttled(every_n=3, max_seconds=3600)
    assert not cache.path.exists()
    assert cache.flush_throttled(every_n=3, max_seconds=3600)
    assert cache.path.exists()
    # Clean cache: nothing to do however often it is called.
    assert not cache.flush_throttled(every_n=1, max_seconds=0.0)
    # Age trigger: a dirty cache past max_seconds flushes immediately.
    cache.put_verdict("2|1|0:1", Outcome.MASKED)
    assert cache.flush_throttled(every_n=100, max_seconds=0.0)
    reread = VerdictCache(tmp_path, "scope")
    assert reread.get_verdict("2|1|0:1") is Outcome.MASKED


def test_throttled_workers_lose_no_records(monkeypatch, tmp_path):
    """Even with mid-run flushes throttled off, the store ends complete."""
    # The forked workers inherit the patched (every_n, max_seconds) policy.
    monkeypatch.setattr(
        VerdictCache.flush_throttled, "__defaults__", (10_000, 3600.0)
    )
    config = dataclasses.replace(FAULT_CONFIG, jobs=2, cache_dir=str(tmp_path))
    engine = DelayAVFEngine.from_spec(_fibcall_spec(config))
    result = engine.run_structure("alu")
    engine.close()

    cache = VerdictCache.open(
        tmp_path, engine.system.netlist, engine.program, config
    )
    clock = engine.system.clock_period
    for delay, delay_result in result.by_delay.items():
        for record in delay_result.records:
            key = record_key("alu", record.cycle, record.wire_index, delay,
                             True, clock)
            assert cache.get_record(key) == record_to_payload(record)


# ----------------------------------------------------------------------
# Config plumbing for the fault-tolerance knobs
# ----------------------------------------------------------------------
def test_config_validates_fault_knobs():
    with pytest.raises(ValueError, match="shard_timeout"):
        CampaignConfig(shard_timeout=0)
    with pytest.raises(ValueError, match="max_retries"):
        CampaignConfig(max_retries=-1)


def test_config_from_cli_args_fault_knobs():
    import argparse

    args = argparse.Namespace(shard_timeout=12.5, max_retries=5)
    config = CampaignConfig.from_cli_args(args)
    assert config.shard_timeout == 12.5
    assert config.max_retries == 5
    # Absent flags fall back to defaults.
    bare = CampaignConfig.from_cli_args(argparse.Namespace())
    assert bare == CampaignConfig()


def test_cli_parser_accepts_fault_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args([
        "delayavf", "md5", "alu", "--shard-timeout", "30", "--max-retries", "4",
    ])
    assert args.shard_timeout == 30.0
    assert args.max_retries == 4
    # A re-run needs no flag: the record cache serves what it holds.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["delayavf", "md5", "alu", "--resume"])


def test_cli_resume_round_trip(tmp_path, capsys):
    """A CLI re-run over the same cache directory prints the same JSON."""
    from repro.cli import main

    base = [
        "delayavf", "libstrstr", "lsu",
        "--delays", "0.9", "--wires", "3", "--cycles", "2",
        "--cache-dir", str(tmp_path), "--format", "json",
    ]
    assert main(base) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["result"]["degraded"] is False
    assert main(base) == 0
    second = json.loads(capsys.readouterr().out)
    assert second == first


# ----------------------------------------------------------------------
# Degraded flag round-trips through the JSON payload
# ----------------------------------------------------------------------
def test_degraded_flag_round_trips(clean_result):
    from repro.core.results import StructureCampaignResult

    flagged = dataclasses.replace(clean_result, degraded=True)
    assert flagged == clean_result  # execution metadata: never in equality
    payload = flagged.to_payload()
    assert payload["schema"] == "repro/v1"
    assert payload["result"]["degraded"] is True
    rebuilt = StructureCampaignResult.from_payload(payload)
    assert rebuilt.degraded is True
    assert rebuilt.to_payload() == payload
