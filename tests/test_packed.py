"""Lane-parallel (packed) simulation: bit-exact with scalar simulation."""

import numpy as np
import pytest

from helpers import (
    ScriptedEnv,
    random_circuit,
    scalar_campaign_records,
    scalar_savf,
)
from repro.core.campaign import CampaignConfig, DelayAVFEngine
from repro.core.group_ace import GroupAceAnalyzer
from repro.netlist.cells import CellKind, cell_input_count, eval_cell, eval_cell_array
from repro.sim.cyclesim import CycleSimulator
from repro.sim.packed import MAX_LANES, PackedCycleSimulator


@pytest.mark.parametrize("kind", list(CellKind))
def test_masked_eval_is_per_plane(kind):
    """Every bit-plane of the masked evaluation equals a scalar evaluation."""
    rng = np.random.default_rng(42)
    arity = cell_input_count(kind)
    inputs = [rng.integers(0, 256, size=32, dtype=np.uint8) for _ in range(arity)]
    packed = eval_cell_array(kind, *inputs, mask=0xFF)
    for lane in range(8):
        lane_inputs = [(arr >> lane) & 1 for arr in inputs]
        scalar = eval_cell_array(kind, *lane_inputs)
        assert np.array_equal((packed >> lane) & 1, scalar), (kind, lane)


def _run_scalar(nl, script, cycles, overrides=None, override_at=None):
    sim = CycleSimulator(nl)
    env = ScriptedEnv(script)
    sim.reset(env)
    states = []
    for cycle in range(cycles):
        if override_at is not None and cycle == override_at:
            sim.override_dffs(overrides)
        states.append(sim.dff_values.copy())
        sim.step()
    return states


@pytest.mark.parametrize("seed", range(4))
def test_packed_lanes_match_scalar_runs(seed):
    """Each lane, with its own injected flips, tracks its scalar twin."""
    nl = random_circuit(seed, num_inputs=5, num_gates=60, num_dffs=8)
    script = [{"in": (i * 11 + seed) & 0x1F} for i in range(15)]
    lane_overrides = [
        {k % 8: (k + seed) & 1 for k in range(lane + 1)}
        for lane in range(MAX_LANES)
    ]
    # Scalar reference runs.
    scalar_states = [
        _run_scalar(nl, script, 12, overrides, override_at=0)
        for overrides in lane_overrides
    ]
    # Packed run with all lanes at once.
    sim = CycleSimulator(nl)
    env = ScriptedEnv(script)
    sim.reset(env)
    checkpoint = sim.checkpoint()
    psim = PackedCycleSimulator(nl)
    envs = [ScriptedEnv(script) for _ in range(MAX_LANES)]
    psim.load(checkpoint, envs)
    for lane, overrides in enumerate(lane_overrides):
        psim.override_lane_dffs(lane, overrides)
    for cycle in range(12):
        for lane in range(MAX_LANES):
            assert np.array_equal(
                psim.lane_dff_values(lane), scalar_states[lane][cycle]
            ), (seed, lane, cycle)
        psim.step()


def test_lane_fingerprint_matches_scalar(system, strstr_program):
    golden = system.run_program(
        strstr_program, max_cycles=2000, checkpoint_cycles=[40],
        record_fingerprints=True,
    )
    checkpoint = golden.checkpoints[40]
    # A clean (no-override) lane must reproduce the golden fingerprints.
    psim = PackedCycleSimulator(system.netlist, system.plan)
    envs = [system.make_env(strstr_program) for _ in range(3)]
    psim.load(checkpoint, envs)
    for cycle in range(40, 60):
        for lane in range(3):
            assert psim.lane_fingerprint(lane) == golden.fingerprints[cycle]
        psim.step()


def test_lane_count_validation(system, strstr_program):
    golden = system.run_program(
        strstr_program, max_cycles=500, checkpoint_cycles=[10],
    )
    psim = PackedCycleSimulator(system.netlist, system.plan)
    with pytest.raises(ValueError, match="lanes"):
        psim.load(golden.checkpoints[10], [])
    with pytest.raises(ValueError, match="lanes"):
        psim.load(
            golden.checkpoints[10],
            [system.make_env(strstr_program) for _ in range(MAX_LANES + 1)],
        )


def test_batched_group_ace_matches_scalar(system, strstr_program):
    """prefetch() must fill the cache with exactly the scalar outcomes."""
    golden = system.run_program(
        strstr_program, max_cycles=2000, checkpoint_cycles=[60, 200],
        record_fingerprints=True,
    )
    live = [
        d.index for d in system.netlist.dffs
        if d.name.startswith(("core.regfile.x9[", "core.regfile.x10[",
                              "core.prefetch.e0_instr[", "core.lsu.addr_q["))
    ]
    for cycle in (60, 200):
        checkpoint = golden.checkpoints[cycle]
        sets = []
        for k in range(11):
            bits = live[k * 3 : k * 3 + (1 + k % 3)]
            sets.append(
                {b: int(checkpoint.dff_values[b]) ^ 1 for b in bits}
            )
        scalar = GroupAceAnalyzer(system, strstr_program, golden, 500)
        batched = GroupAceAnalyzer(system, strstr_program, golden, 500)
        batched.prefetch(checkpoint, sets, at_next_boundary=True, lanes=8)
        for overrides in sets:
            expected = scalar.outcome_of_state_errors(checkpoint, overrides)
            # The batched analyzer must answer from cache with the same value.
            runs_before = batched.stats.runs
            actual = batched.outcome_of_state_errors(checkpoint, overrides)
            assert batched.stats.runs == runs_before, "cache miss after prefetch"
            assert actual is expected, overrides


def test_savf_batched_equals_scalar(system, strstr_program):
    """sAVF with lane-parallel prefetching equals the per-bit scalar
    reference."""
    from repro.core.savf import SAVFEngine

    config = CampaignConfig(cycle_count=3, margin_cycles=400, seed=2)
    engine = DelayAVFEngine(system, strstr_program, config)
    batched = SAVFEngine(engine.session).run_structure(
        "lsu", max_bits=20, seed=2
    )
    scalar, ref_telemetry = scalar_savf(
        system, strstr_program, config, "lsu", max_bits=20, seed=2
    )
    assert batched == scalar
    assert engine.telemetry.count("lane_batches") > 0
    assert ref_telemetry.count("lane_batches") == 0
    assert ref_telemetry.count("group_ace_runs") > 0


def test_campaign_batched_equals_scalar(system, strstr_program):
    """End-to-end: batched campaigns equal the per-record scalar reference."""
    config = CampaignConfig(
        # At 10 wires x 3 cycles no injection latched an error and neither
        # side ran GroupACE; at 48 x 6 alu and lsu injections do.
        cycle_count=6, max_wires=48, delay_fractions=(0.7, 0.9),
        margin_cycles=400, seed=5,
    )
    batched_engine = DelayAVFEngine(system, strstr_program, config)
    ref_runs = 0
    for structure in ("alu", "lsu"):
        batched_result = batched_engine.run_structure(structure)
        scalar, ref_telemetry = scalar_campaign_records(
            system, strstr_program, config, structure
        )
        for delay in (0.7, 0.9):
            assert (
                batched_result.by_delay[delay].records == scalar[delay]
            ), (structure, delay)
        assert ref_telemetry.count("lane_batches") == 0
        ref_runs += ref_telemetry.count("group_ace_runs")
    assert batched_engine.telemetry.count("packed_cone_lanes") > 0
    assert batched_engine.telemetry.count("lane_batches") > 0
    assert ref_runs > 0
