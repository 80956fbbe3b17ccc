"""Sharded execution layer: plans, executors, verdict cache, telemetry."""

import pickle
from dataclasses import replace

import pytest

from repro.core.cache import VerdictCache, netlist_signature, program_signature
from repro.core.campaign import CampaignConfig, CampaignSession, DelayAVFEngine
from repro.core.executor import (
    ParallelExecutor,
    SerialExecutor,
    SessionSpec,
    execute_shard,
    merge_shard_results,
)
from repro.core.plan import CampaignPlan, WorkShard, build_plan
from repro.core.sampling import sample_wires
from repro.core.telemetry import CampaignTelemetry
from repro.workloads.beebs import load_benchmark

#: Small but non-trivial: the acceptance pair (ALU x libfibcall, d in
#: {0.5, 0.9}).
PARITY_CONFIG = CampaignConfig(
    cycle_count=3, max_wires=8, delay_fractions=(0.5, 0.9), margin_cycles=400
)


def _fibcall_spec(config=PARITY_CONFIG) -> SessionSpec:
    return SessionSpec(
        program=load_benchmark("libfibcall"),
        config=config,
    )


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def test_build_plan_one_shard_per_cycle(strstr_engine):
    session = strstr_engine.session
    wires = session.system.structure_wires("alu")
    plan = build_plan(
        "alu", "libstrstr", wires, session.sampled_cycles, strstr_engine.config
    )
    assert plan.wire_count == len(wires)
    assert [shard.cycle for shard in plan.shards] == list(session.sampled_cycles)
    assert [shard.index for shard in plan.shards] == list(range(len(plan.shards)))
    for shard in plan.shards:
        assert shard.structure == "alu"
        assert shard.wire_indices == plan.wire_indices
        assert shard.delay_fractions == plan.delay_fractions
    assert sum(shard.injections for shard in plan.shards) == (
        len(plan.sampled_cycles) * len(plan.wire_indices) * len(plan.delay_fractions)
    )


def test_build_plan_wire_indices_match_sample(strstr_engine):
    """The O(n) index map must agree with the seeded wire sample."""
    session = strstr_engine.session
    config = strstr_engine.config
    wires = session.system.structure_wires("decoder")
    plan = build_plan(
        "decoder", "libstrstr", wires, session.sampled_cycles, config,
        max_wires=10, seed=7,
    )
    chosen = sample_wires(wires, 10, 7)
    assert [wires[index] for index in plan.wire_indices] == chosen


def test_build_plan_validates_the_delay_override(strstr_engine):
    """A ``run_structure(delay_fractions=...)`` override is held to the
    config's rules: a delay listed twice would evaluate and count its
    records once per listing, and an empty or out-of-range sweep planned
    a campaign the config refuses."""
    session = strstr_engine.session
    wires = session.system.structure_wires("alu")
    for delays, message in (
        ((0.5, 0.9, 0.5), "distinct"), ((), "must not be empty"),
        ((1.5,), r"in \(0, 1\]"), ((0.0, 0.9), r"in \(0, 1\]"),
    ):
        with pytest.raises(ValueError, match=message):
            build_plan(
                "alu", "libstrstr", wires, session.sampled_cycles,
                strstr_engine.config, delay_fractions=delays,
            )
    with pytest.raises(ValueError, match="distinct"):
        strstr_engine.run_structure("alu", delay_fractions=(0.9, 0.9))


def test_plan_and_spec_pickle_roundtrip():
    shard = WorkShard(
        structure="alu", index=1, cycle=42, wire_indices=(3, 1, 2),
        delay_fractions=(0.5,),
    )
    assert pickle.loads(pickle.dumps(shard)) == shard
    plan = CampaignPlan(
        structure="alu", benchmark="libfibcall", wire_count=100,
        wire_indices=(3, 1, 2), delay_fractions=(0.5,), sampled_cycles=(42,),
        shards=(shard,),
    )
    assert pickle.loads(pickle.dumps(plan)) == plan
    spec = _fibcall_spec()
    assert pickle.loads(pickle.dumps(spec)) == spec


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
def test_serial_executor_matches_direct_loop(strstr_engine):
    result = strstr_engine.run_structure("alu", executor=SerialExecutor())
    again = strstr_engine.run_structure("alu")
    assert result == again
    assert result.telemetry is not None
    assert result.telemetry.count("injections") == sum(
        r.samples for r in result.by_delay.values()
    )


def test_parallel_executor_requires_spec(strstr_engine):
    with ParallelExecutor(jobs=2) as pool:
        with pytest.raises(ValueError, match="SessionSpec"):
            strstr_engine.run_structure("alu", executor=pool)


def test_merge_is_order_independent(strstr_engine):
    session = strstr_engine.session
    wires = session.system.structure_wires("alu")
    plan = build_plan(
        "alu", "libstrstr", wires, session.sampled_cycles, strstr_engine.config
    )
    shard_results = [execute_shard(session, shard) for shard in plan.shards]
    forward = merge_shard_results(plan, shard_results)
    backward = merge_shard_results(plan, list(reversed(shard_results)))
    assert forward == backward


# ----------------------------------------------------------------------
# Verdict cache
# ----------------------------------------------------------------------
def test_netlist_signature_distinguishes_systems(system, ecc_system):
    assert netlist_signature(system.netlist) == netlist_signature(system.netlist)
    assert netlist_signature(system.netlist) != netlist_signature(ecc_system.netlist)


def test_cold_vs_warm_verdict_cache(tmp_path, system, strstr_program):
    config = CampaignConfig(
        cycle_count=5, max_wires=16, delay_fractions=(0.9,),
        margin_cycles=600, cache_dir=str(tmp_path),
    )
    cold_engine = DelayAVFEngine(system, strstr_program, config)
    cold = cold_engine.run_structure("alu")
    assert cold_engine.session.group_ace.stats.runs > 0

    warm_engine = DelayAVFEngine(system, strstr_program, config)
    warm = warm_engine.run_structure("alu")
    # Byte-identical records, with every injection served from disk: the
    # warm campaign performs no GroupACE runs and never even rebuilds the
    # cycle waveforms (no event simulation at all).
    assert warm == cold
    assert warm_engine.session.group_ace.stats.runs == 0
    assert warm.telemetry.count("record_cache_hits") == sum(
        r.samples for r in warm.by_delay.values()
    )
    assert warm.telemetry.count("group_ace_runs") == 0
    assert warm.telemetry.count("waveforms_built") == 0
    assert warm.telemetry.count("batch_resims") == 0


def test_verdict_cache_scope_isolated(tmp_path, system, strstr_program, md5_program):
    config = CampaignConfig(cycle_count=2, margin_cycles=400, cache_dir=str(tmp_path))
    a = VerdictCache.open(tmp_path, system.netlist, strstr_program, config)
    b = VerdictCache.open(tmp_path, system.netlist, md5_program, config)
    assert a.scope_key != b.scope_key
    assert program_signature(strstr_program) != program_signature(md5_program)


def test_verdict_cache_flush_merges(tmp_path):
    from repro.core.group_ace import Outcome

    first = VerdictCache(tmp_path, "scope")
    first.put_verdict("1|1|0:1", Outcome.SDC)
    first.flush()
    second = VerdictCache(tmp_path, "scope")
    second.put_verdict("2|1|0:1", Outcome.MASKED)
    second.flush()
    reread = VerdictCache(tmp_path, "scope")
    assert reread.get_verdict("1|1|0:1") is Outcome.SDC
    assert reread.get_verdict("2|1|0:1") is Outcome.MASKED
    assert len(reread) == 2


def test_verdict_cache_stamps_schema_version(tmp_path):
    from repro.core.cache import CACHE_FORMAT
    from repro.core.group_ace import Outcome

    cache = VerdictCache(tmp_path, "scope")
    cache.put_verdict("1|1|0:1", Outcome.SDC)
    cache.flush()
    import json

    payload = json.loads(cache.path.read_text())
    assert payload["schema_version"] == CACHE_FORMAT


def test_verdict_cache_discards_future_schema_version(tmp_path):
    from repro.core.cache import CACHE_FORMAT
    from repro.core.group_ace import Outcome

    writer = VerdictCache(tmp_path, "scope")
    writer.put_verdict("1|1|0:1", Outcome.SDC)
    writer.flush()
    # Simulate a file written by a future build of the tool.
    import json

    payload = json.loads(writer.path.read_text())
    payload["schema_version"] = CACHE_FORMAT + 1
    payload["format"] = CACHE_FORMAT + 1
    writer.path.write_text(json.dumps(payload))

    with pytest.warns(RuntimeWarning, match="schema_version"):
        reread = VerdictCache(tmp_path, "scope")
    # The future-versioned contents are discarded, not trusted and not fatal.
    assert len(reread) == 0
    assert reread.get_verdict("1|1|0:1") is None


# ----------------------------------------------------------------------
# Session warm starts (probe-pass collapse)
# ----------------------------------------------------------------------
def test_session_probe_skipped_on_repeat(system):
    from repro.isa.assembler import assemble
    from repro.soc import memmap

    program = assemble(
        f"""
        li t0, {memmap.HALT_ADDR}
        li t1, 7
        sw t1, 0(t0)
        """,
        "tiny-halt",
    )
    config = CampaignConfig(cycle_count=2, margin_cycles=200)
    first = CampaignSession(system, program, config)
    # Sessions are lazy: nothing runs until the golden state is needed.
    assert first.telemetry.count("probe_runs") == 0
    assert first.golden.halted
    assert first.telemetry.count("probe_runs") == 1
    assert first.telemetry.count("golden_runs") == 1
    second = CampaignSession(system, program, config)
    assert second.total_cycles == first.total_cycles
    assert second.telemetry.count("probe_runs") == 0
    assert second.telemetry.count("probe_skips") == 1
    assert second.sampled_cycles == first.sampled_cycles
    assert second.golden.observables == first.golden.observables
    assert second.telemetry.count("golden_runs") == 1


# ----------------------------------------------------------------------
# Telemetry plumbing
# ----------------------------------------------------------------------
def test_telemetry_snapshot_diff_merge():
    telemetry = CampaignTelemetry()
    telemetry.incr("injections", 5)
    telemetry.add_seconds("evaluate", 1.5)
    before = telemetry.snapshot()
    telemetry.incr("injections", 3)
    telemetry.incr("group_ace_runs")
    delta = telemetry.diff(before)
    assert delta["counters"] == {"injections": 3, "group_ace_runs": 1}
    other = CampaignTelemetry.from_snapshot(delta)
    other.merge_snapshot(before)
    assert other.counters["injections"] == 8
    assert pickle.loads(pickle.dumps(other)) == other


def test_structure_result_carries_telemetry(strstr_engine):
    result = strstr_engine.run_structure("lsu", max_wires=4)
    assert isinstance(result.telemetry, CampaignTelemetry)
    assert result.telemetry.count("injections") == sum(
        r.samples for r in result.by_delay.values()
    )
    # Telemetry never participates in result equality.
    clone = replace(result, telemetry=None)
    assert clone == result
