"""Lane-parallel (packed) simulation: bit-exact with the tests' scalar
reference simulator (``helpers.ReferenceCycleSim``)."""

import numpy as np
import pytest

from helpers import (
    ReferenceCycleSim,
    ScriptedEnv,
    assert_resolved_in_batches,
    random_circuit,
    reference_run,
    run_injected,
    scalar_campaign_records,
    scalar_savf,
)
from repro.core.campaign import CampaignConfig, DelayAVFEngine
from repro.core.group_ace import GroupAceAnalyzer, _LaneQueue
from repro.netlist.cells import CellKind, cell_input_count, eval_cell_word
from repro.sim.levelize import EvalPlan
from repro.sim.packed import MAX_LANES, PackedCycleSimulator


@pytest.mark.parametrize("kind", list(CellKind))
def test_masked_eval_is_per_plane(kind):
    """Every bit-plane of the masked evaluation equals a scalar evaluation."""
    rng = np.random.default_rng(42)
    arity = cell_input_count(kind)
    inputs = [rng.integers(0, 256, size=32, dtype=np.uint8) for _ in range(arity)]
    packed = eval_cell_word(kind, inputs, mask=0xFF)
    for lane in range(8):
        lane_inputs = [(arr >> lane) & 1 for arr in inputs]
        scalar = eval_cell_word(kind, lane_inputs)
        assert np.array_equal((packed >> lane) & 1, scalar), (kind, lane)


def _run_scalar(nl, script, cycles, overrides=None, override_at=None):
    sim = ReferenceCycleSim(nl)
    env = ScriptedEnv(script)
    sim.reset(env)
    states = []
    for cycle in range(cycles):
        if override_at is not None and cycle == override_at:
            sim.override(overrides)
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
    sim = ReferenceCycleSim(nl)
    sim.reset(ScriptedEnv(script))
    checkpoint = sim.checkpoint()
    psim = PackedCycleSimulator(nl)
    psim.load_lanes(
        [(checkpoint, ScriptedEnv(script)) for _ in range(MAX_LANES)]
    )
    for lane, overrides in enumerate(lane_overrides):
        psim.override_lane_dffs(lane, overrides)
    for cycle in range(12):
        for lane in range(MAX_LANES):
            assert np.array_equal(
                psim.lane_dff_values(lane), scalar_states[lane][cycle]
            ), (seed, lane, cycle)
        psim.step()


def test_lane_fingerprint_matches_scalar(system, strstr_program):
    golden = reference_run(
        system.netlist, system.make_env(strstr_program), 2000, [40]
    )
    checkpoint = golden.checkpoints[40]
    # A clean (no-override) lane must reproduce the golden fingerprints.
    psim = PackedCycleSimulator(system.netlist, system.plan)
    psim.load_lanes(
        [(checkpoint, system.make_env(strstr_program)) for _ in range(3)]
    )
    for cycle in range(40, 60):
        for lane in range(3):
            assert psim.lane_fingerprint(lane) == golden.fingerprints[cycle]
        psim.step()


def _per_port_outputs(psim, netlist):
    """The per-port reference: each active lane's bits of each port."""
    return {
        lane: {
            name: sum(
                ((int(psim.values[net]) >> lane) & 1) << bit
                for bit, net in enumerate(nets)
            )
            for name, nets in netlist.output_ports.items()
        }
        for lane in psim._active
    }


@pytest.mark.parametrize("width", (1, 3, 8, 64))
def test_one_gather_outputs_match_per_port_read(system, strstr_program, width):
    """All output ports read with one gather and one bit transpose equal
    the per-port read, over random lane states and active subsets."""
    rng = np.random.default_rng(width)
    psim = PackedCycleSimulator(system.netlist, system.plan)
    psim.load_reset([system.make_env(strstr_program) for _ in range(width)])
    top = np.iinfo(psim.dtype).max
    for _ in range(5):
        psim.values = rng.integers(
            0, top, size=system.netlist.num_nets, dtype=psim.dtype,
            endpoint=True,
        )
        psim.values[0] = 0
        assert psim.lane_outputs() == _per_port_outputs(
            psim, system.netlist
        )
        if len(psim._active) > 1:
            psim.retire_lane(int(rng.choice(psim._active)))


def test_lane_count_validation(system, strstr_program):
    golden = system.run_program(
        strstr_program, max_cycles=500, checkpoint_cycles=[10],
    )
    psim = PackedCycleSimulator(system.netlist, system.plan)
    with pytest.raises(ValueError, match="lanes"):
        psim.load_lanes([])
    with pytest.raises(ValueError, match="lanes"):
        psim.load_lanes(
            [(golden.checkpoints[10], system.make_env(strstr_program))]
            * (MAX_LANES + 1)
        )


def test_batched_group_ace_matches_scalar(system, strstr_program):
    """prefetch() must fill the cache with exactly the reference outcomes
    (``helpers.run_injected``)."""
    golden = reference_run(
        system.netlist, system.make_env(strstr_program), 2000, [60, 200]
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
        runs = batched.telemetry.count("group_ace_runs")
        for overrides in sets:
            expected = run_injected(scalar, checkpoint, overrides)
            # The batched analyzer must answer from cache with the same value.
            actual = batched.outcome_of_state_errors(checkpoint, overrides)
            assert actual is expected, overrides
        assert batched.telemetry.count("group_ace_runs") == runs, (
            "cache miss after prefetch"
        )


def test_savf_batched_equals_scalar(system, strstr_program):
    """sAVF with lane-parallel prefetching equals the per-bit reference,
    whose every verdict is a ``helpers.run_injected`` run."""
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
    # Some word carried two or more runs: a per-record miss is a one-run
    # word, so the runs outnumber the words only if the prefetch packed.
    telemetry = engine.telemetry
    assert telemetry.count("group_ace_runs") > telemetry.count("lane_batches")
    assert ref_telemetry.count("lane_batches") == 0
    assert ref_telemetry.count("reference_runs") > 0


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
        ref_runs += ref_telemetry.count("reference_runs")
        assert_resolved_in_batches(batched_result.telemetry)
    # Some word carried two or more runs (a per-record miss is a one-run
    # word).
    telemetry = batched_engine.telemetry
    assert telemetry.count("group_ace_runs") > telemetry.count("lane_batches")
    assert ref_runs > 0


def test_reference_shares_no_kernel_with_production(
    system, strstr_program, monkeypatch
):
    """The reference golden run and a reference injected run complete with
    the production plan, word step and lane queue all made to raise."""

    def production(*args, **kwargs):
        raise AssertionError("the reference reached a production kernel")

    for owner, name in (
        (EvalPlan, "evaluate"),
        (PackedCycleSimulator, "step"),
        (_LaneQueue, "run"),
    ):
        monkeypatch.setattr(owner, name, production)
    golden = reference_run(
        system.netlist, system.make_env(strstr_program), 2000, [200]
    )
    assert golden.halted and len(golden.fingerprints) == golden.cycles
    analyzer = GroupAceAnalyzer(system, strstr_program, golden, 100)
    checkpoint = golden.checkpoints[200]
    flipped = {b: int(checkpoint.dff_values[b]) ^ 1 for b in range(8)}
    run_injected(analyzer, checkpoint, flipped)
