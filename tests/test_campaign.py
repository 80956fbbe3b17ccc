"""Campaign engine: structure sweeps, caching, determinism, invariants."""

import pytest

from repro.core.campaign import CampaignConfig, DelayAVFEngine
from repro.core.delay_model import DEFAULT_DELAY_FRACTIONS


def test_default_delay_sweep():
    assert DEFAULT_DELAY_FRACTIONS == (0.1, 0.3, 0.5, 0.7, 0.9)


def test_session_golden_run(strstr_engine):
    session = strstr_engine.session
    assert session.golden.halted
    assert session.total_cycles == session.golden.cycles
    assert len(session.golden.fingerprints) == session.golden.cycles
    assert set(session.golden.checkpoints) == set(session.sampled_cycles)


def test_waveforms_cached(strstr_engine):
    session = strstr_engine.session
    cycle = session.sampled_cycles[0]
    assert session.waveforms(cycle) is session.waveforms(cycle)


def test_run_structure_shape(strstr_engine):
    result = strstr_engine.run_structure("alu")
    assert result.structure == "alu"
    assert result.benchmark == "libstrstr"
    assert result.sampled_wires == 16
    assert result.wire_count > 3000
    assert result.delay_fractions == (0.5, 0.9)
    for delay, per_delay in result.by_delay.items():
        assert per_delay.samples == 16 * len(result.sampled_cycles)
        assert 0.0 <= per_delay.delay_avf <= 1.0


def test_records_internally_consistent(strstr_engine):
    result = strstr_engine.run_structure("alu")
    for per_delay in result.by_delay.values():
        for record in per_delay.records:
            if not record.statically_reachable:
                assert record.num_errors == 0
                assert not record.delay_ace
            if record.num_errors == 0:
                assert not record.delay_ace
                assert record.or_ace in (None, False)
            else:
                assert record.or_ace is not None


def test_static_reach_monotone_in_delay(strstr_engine):
    """Per (wire, cycle): statically reachable at 0.5 implies so at 0.9."""
    result = strstr_engine.run_structure("decoder")
    low = {(r.wire_index, r.cycle): r for r in result.by_delay[0.5].records}
    high = {(r.wire_index, r.cycle): r for r in result.by_delay[0.9].records}
    assert low.keys() == high.keys()
    for key, record in low.items():
        if record.statically_reachable:
            assert high[key].statically_reachable
            assert high[key].num_statically_reachable >= record.num_statically_reachable


def test_same_seed_same_records(system, strstr_program):
    config = CampaignConfig(
        cycle_count=3, max_wires=6, delay_fractions=(0.9,), margin_cycles=400
    )
    a = DelayAVFEngine(system, strstr_program, config).run_structure("lsu")
    b = DelayAVFEngine(system, strstr_program, config).run_structure("lsu")
    assert a.by_delay[0.9].records == b.by_delay[0.9].records


def test_different_wire_seed_changes_sample(strstr_engine):
    a = strstr_engine.run_structure("alu", max_wires=8, seed=1)
    b = strstr_engine.run_structure("alu", max_wires=8, seed=2)
    wires_a = {r.wire_index for r in a.by_delay[0.9].records}
    wires_b = {r.wire_index for r in b.by_delay[0.9].records}
    assert wires_a != wires_b


def test_nonhalting_workload_rejected(monkeypatch, system):
    from repro.isa.assembler import assemble

    monkeypatch.setattr("repro.workloads.lengths.MAX_RUN_CYCLES", 500)
    program = assemble("loop: j loop\n", "forever")
    config = CampaignConfig(cycle_count=2)
    with pytest.raises(RuntimeError, match="did not halt"):
        DelayAVFEngine(system, program, config)


def test_group_ace_cache_shared_across_structures(strstr_engine):
    """The (cycle, error-set) cache must dedup across wires/structures."""
    stats = strstr_engine.session.group_ace.stats
    runs_before = stats.runs
    strstr_engine.run_structure("decoder", max_wires=10, seed=4)
    runs_mid = stats.runs
    # Re-running the same structure hits the caches entirely.
    strstr_engine.run_structure("decoder", max_wires=10, seed=4)
    assert stats.runs == runs_mid
    assert runs_mid >= runs_before
