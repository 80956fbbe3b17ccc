"""Word-packed cone passes: bit-exact with the scalar event simulator.

The packed cone pass (``EventSimulator._cone_pass``) evaluates every cell
where two or more lanes are dirty once per merged event word instead of once
per lane.  These tests pin the exactness contract: at every lane width the
batched path must reproduce the errors dicts of the reference frontier walk
(``helpers.frontier_walk_errors``) — including transport-delay glitch cases
— and lone-lane scalar fallbacks must be counted in telemetry without
changing any verdict.
"""

import random

import numpy as np
import pytest

from helpers import (
    ScriptedEnv,
    evaluate_reference,
    frontier_walk_errors,
    random_circuit,
    scalar_campaign_records,
)
from repro.core.campaign import (
    CampaignConfig,
    DelayAVFEngine,
    run_structures_spanning,
)
from repro.netlist.netlist import PinType
from repro.sim.cyclesim import CycleSimulator
from repro.sim.eventsim import MAX_LANES, EventSimulator
from repro.sim.levelize import PROGRAM_CACHE_CAP, levelize
from repro.timing.liberty import NANGATE45ISH
from repro.timing.sta import StaticTiming


def _setup(seed):
    nl = random_circuit(seed)
    sta = StaticTiming(nl, NANGATE45ISH)
    return nl, sta, EventSimulator(nl, sta), CycleSimulator(nl)


def _cycle_waves(nl, ev, sim, seed, cycles=3):
    """Run a few cycles and return the checkpoint waveforms of the last."""
    env = ScriptedEnv([{"in": (i * 13 + seed) & 0x3F} for i in range(cycles + 2)])
    sim.reset(env)
    for _ in range(cycles):
        sim.step()
    ckpt = sim.checkpoint()
    return ev.simulate_cycle(ckpt.prev_settled, ckpt.dff_values, ckpt.input_values)


def _all_injections(nl, sta, waves, fractions=(0.1, 0.3, 0.5, 0.7, 0.9)):
    period = sta.clock_period
    return [
        (wire, fraction * period)
        for wire in nl.all_wires()
        if wire.net in waves.changes
        for fraction in fractions
    ]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("lanes", (1, 8, 63, 64))
def test_packed_batch_matches_scalar_at_every_width(seed, lanes):
    """errors dicts are bit-identical to the scalar reference at any width."""
    nl, sta, ev, sim = _setup(seed)
    waves = _cycle_waves(nl, ev, sim, seed)
    injections = _all_injections(nl, sta, waves)
    assert injections, "fixture circuit produced no toggling wires"
    batched = ev.resimulate_batch(waves, injections, lanes=lanes)
    for (wire, extra), errors in zip(injections, batched):
        assert errors == frontier_walk_errors(ev, waves, wire, extra), (
            seed, lanes, wire, extra,
        )
    if lanes == 1:
        # Width 1 never packs: every cone-pass lane takes the scalar kernel.
        assert ev.packed_cone_words == 0
        assert ev.packed_scalar_lanes > 0
    else:
        assert ev.packed_cone_words > 0
        assert ev.packed_cone_lanes >= 2 * ev.packed_cone_words
        assert ev.packed_cone_lane_slots >= ev.packed_cone_lanes


@pytest.mark.parametrize("seed", range(3))
def test_random_lane_subsets_match_scalar(seed):
    """Random injection subsets (random lane masks / group shapes) stay exact."""
    nl, sta, ev, sim = _setup(seed + 10)
    waves = _cycle_waves(nl, ev, sim, seed + 10)
    pool = _all_injections(nl, sta, waves)
    rng = random.Random(seed)
    for trial in range(5):
        sample = rng.sample(pool, rng.randint(1, min(40, len(pool))))
        rng.shuffle(sample)
        width = rng.choice((2, 3, 8, 17, 64))
        batched = ev.resimulate_batch(waves, sample, lanes=width)
        for (wire, extra), errors in zip(sample, batched):
            assert errors == frontier_walk_errors(ev, waves, wire, extra), (
                seed, trial, width, wire, extra,
            )


@pytest.mark.parametrize("seed", range(2))
def test_scalar_fallback_lanes_are_counted_and_exact(seed):
    """A lone injection packs nothing, is counted, and is still bit-exact."""
    nl, sta, ev, sim = _setup(seed + 20)
    waves = _cycle_waves(nl, ev, sim, seed + 20)
    # A cell-pin injection the settled-source skip leaves to the cone pass.
    injections = [
        (wire, extra)
        for wire, extra in _all_injections(nl, sta, waves, fractions=(0.9,))
        if wire.sink.pin_type is PinType.CELL_IN
        and not ev.source_settles(waves, wire, extra)
    ]
    wire, extra = injections[len(injections) // 2]
    before = ev.packed_scalar_lanes
    [errors] = ev.resimulate_batch(waves, [(wire, extra)])
    # A single-lane group can never pack a word; every dirty cell goes
    # through the (counted) scalar kernel.
    assert ev.packed_cone_words == 0
    assert ev.packed_scalar_lanes > before
    assert errors == frontier_walk_errors(ev, waves, wire, extra)


def test_resimulate_batch_rejects_bad_widths():
    nl, sta, ev, sim = _setup(0)
    waves = _cycle_waves(nl, ev, sim, 0)
    for bad in (0, -1, MAX_LANES + 1):
        with pytest.raises(ValueError, match="lanes"):
            ev.resimulate_batch(waves, [], lanes=bad)


def test_group_ace_prefetch_rejects_bad_widths(system, strstr_program):
    from repro.core.group_ace import GroupAceAnalyzer

    golden = system.run_program(
        strstr_program, max_cycles=500, checkpoint_cycles=[10],
        record_fingerprints=True,
    )
    analyzer = GroupAceAnalyzer(system, strstr_program, golden, 100)
    checkpoint = golden.checkpoints[10]
    for bad in (0, -3, 65):
        with pytest.raises(ValueError, match="lanes"):
            analyzer.prefetch(checkpoint, [{0: 1}], lanes=bad)


def test_program_cache_is_bounded_and_dtype_keyed():
    """(dtype, mask) keying + LRU bound on the fused step program cache."""
    nl = random_circuit(3)
    plan = levelize(nl)
    values8 = np.zeros(nl.num_nets, dtype=np.uint8)
    values64 = np.zeros(nl.num_nets, dtype=np.uint64)
    plan.evaluate(values8, mask=1)
    plan.evaluate(values64, mask=1)
    # Same mask, different dtype: two distinct compiled programs.
    assert plan.program_cache_size == 2
    # Evaluation through a widened program stays bit-exact per plane.
    ref8 = np.zeros(nl.num_nets, dtype=np.uint8)
    evaluate_reference(nl, ref8, mask=1)
    assert np.array_equal(values8, ref8)
    assert np.array_equal(values64.astype(np.uint8), ref8)
    # Mask diversity beyond the cap evicts LRU entries instead of leaking.
    for lanes in range(1, PROGRAM_CACHE_CAP + 10):
        plan.evaluate(values64, mask=(1 << lanes) - 1)
    assert plan.program_cache_size <= PROGRAM_CACHE_CAP
    assert plan.program_cache_evictions > 0


def test_packed_uint64_settle_matches_reference():
    """64-lane fused evaluation equals the per-kind oracle on every plane."""
    rng = np.random.default_rng(7)
    nl = random_circuit(11)
    plan = levelize(nl)
    mask = (1 << 64) - 1
    values = rng.integers(0, 1 << 63, size=nl.num_nets, dtype=np.uint64)
    values |= values << 1  # spread entropy into high planes too
    values[0] = 0
    values[1] = mask
    ref = values.copy()
    plan.evaluate(values, mask=mask)
    evaluate_reference(nl, ref, mask=mask)
    assert np.array_equal(values, ref)


def test_campaign_records_identical_across_lane_widths(system, strstr_program):
    """End-to-end acceptance: a 64-lane campaign's verdicts equal the
    per-record scalar reference (one-lane cone passes, scalar GroupACE)."""
    config = CampaignConfig(
        # At 10 wires x 3 cycles no injection latched an error and neither
        # side ran GroupACE; at 48 x 6 alu injections do.
        cycle_count=6, max_wires=48, delay_fractions=(0.7, 0.9),
        margin_cycles=400, seed=5,
    )
    result = DelayAVFEngine(system, strstr_program, config).run_structure("alu")
    reference, ref_telemetry = scalar_campaign_records(
        system, strstr_program, config, "alu"
    )
    for delay in (0.7, 0.9):
        assert result.by_delay[delay].records == reference[delay], delay
    # The packed width actually engaged and its occupancy is observable.
    telemetry = result.telemetry
    assert telemetry.count("packed_cone_lanes") > 0
    assert telemetry.count("lane_batches") > 0
    occupancy = telemetry.gauge("packed_lane_occupancy")
    assert occupancy is not None and 0.0 < occupancy <= 1.0
    # ...and the reference packed nothing: every verdict ran scalar.
    assert ref_telemetry.count("lane_batches") == 0
    assert ref_telemetry.count("group_ace_runs") > 0


def test_run_structures_matches_sequential_campaigns(system, strstr_program):
    """Cross-structure spanning produces byte-identical per-campaign records.

    A one-engine ``run_structures_spanning`` shares one packed prefetch
    across every structure of the benchmark; the records must match
    sequential ``run_structure`` calls and the per-record scalar reference
    exactly.
    """
    config = CampaignConfig(
        # At 8 wires x 3 cycles no injection latched an error and neither
        # side ran GroupACE; at 48 x 6 alu injections do.
        cycle_count=6, max_wires=48, delay_fractions=(0.7, 0.9),
        margin_cycles=400, seed=5,
    )
    structures = ("alu", "decoder", "regfile")
    sequential = {}
    engine_seq = DelayAVFEngine(system, strstr_program, config)
    for structure in structures:
        sequential[structure] = engine_seq.run_structure(structure)
    engine_grp = DelayAVFEngine(system, strstr_program, config)
    [grouped] = run_structures_spanning([(engine_grp, structures)])
    assert set(grouped) == set(structures)
    assert engine_grp.telemetry.count("lane_batches") > 0
    for structure in structures:
        scalar, ref_telemetry = scalar_campaign_records(
            system, strstr_program, config, structure
        )
        assert ref_telemetry.count("lane_batches") == 0
        for delay in (0.7, 0.9):
            assert (
                grouped[structure].by_delay[delay].records
                == sequential[structure].by_delay[delay].records
                == scalar[delay]
            ), (structure, delay)


def test_packed_golden_runs_match_scalar(system, strstr_program):
    """Packed golden runs are bit-identical to scalar instrumented runs.

    Two workloads' golden runs ride one packed word; each lane's RunResult
    (fingerprints every cycle, checkpoints including ``prev_settled``,
    observables) must equal the scalar ``session.golden``.
    """
    from repro.core.campaign import packed_golden_runs
    from repro.workloads.beebs import load_benchmark

    fib_program = load_benchmark("libfibcall")
    programs = (("strstr", strstr_program), ("fib", fib_program))
    base = dict(cycle_count=3, margin_cycles=400, seed=1)
    scalar_runs = {}
    for name, program in programs:
        engine = DelayAVFEngine(system, program, CampaignConfig(**base))
        scalar_runs[name] = engine.session.golden  # memoizes the length
    packed_engines = {
        name: DelayAVFEngine(system, program, CampaignConfig(**base))
        for name, program in programs
    }
    packed_golden_runs([e.session for e in packed_engines.values()])
    for name, engine in packed_engines.items():
        packed = engine.session._golden
        assert packed is not None, name  # adopted, not lazily recomputed
        ref = scalar_runs[name]
        assert packed.cycles == ref.cycles
        assert packed.halted and ref.halted
        assert packed.observables == ref.observables
        assert packed.fingerprints == ref.fingerprints
        assert set(packed.checkpoints) == set(ref.checkpoints)
        for cycle, want in ref.checkpoints.items():
            got = packed.checkpoints[cycle]
            assert got.cycle == want.cycle
            assert np.array_equal(got.dff_values, want.dff_values)
            assert got.input_values == want.input_values
            assert np.array_equal(got.prev_settled, want.prev_settled)


def test_run_structures_spanning_across_workloads(system, strstr_program):
    """Lanes from different *workloads* pack together, records unchanged.

    Two engines for different programs share one netlist; the spanning
    runner resolves both engines' campaigns through shared packed words.
    Every record must match the engines' own sequential campaigns.
    """
    from repro.workloads.beebs import load_benchmark

    fib_program = load_benchmark("libfibcall")
    base = dict(
        cycle_count=2, max_wires=6, delay_fractions=(0.9,),
        margin_cycles=400, seed=3,
    )
    structures = ("alu", "decoder")
    expected = {}
    for name, program in (("strstr", strstr_program), ("fib", fib_program)):
        eng = DelayAVFEngine(
            system, program, CampaignConfig(**base)
        )
        expected[name] = {s: eng.run_structure(s) for s in structures}
    engines = {
        "strstr": DelayAVFEngine(
            system, strstr_program, CampaignConfig(**base)
        ),
        "fib": DelayAVFEngine(
            system, fib_program, CampaignConfig(**base)
        ),
    }
    spanned = run_structures_spanning(
        [(engines["strstr"], structures), (engines["fib"], structures)]
    )
    for name, by_structure in zip(("strstr", "fib"), spanned):
        for structure in structures:
            assert (
                by_structure[structure].by_delay[0.9].records
                == expected[name][structure].by_delay[0.9].records
            ), (name, structure)


def test_run_structures_spanning_packs_once(system, strstr_program, monkeypatch):
    """Two engines × two structures: one multi-engine GroupACE prefetch and
    one packed golden-run word for the whole sweep, and lanes really pack."""
    from repro.core import campaign, executor, group_ace
    from repro.workloads.beebs import load_benchmark

    calls = {"prefetch_spanning_multi": 0, "packed_golden_runs": 0}

    def counted(function):
        def wrapper(*args, **kwargs):
            calls[function.__name__] += 1
            return function(*args, **kwargs)
        return wrapper

    prefetch = counted(group_ace.prefetch_spanning_multi)
    for module in (group_ace, executor, campaign):
        if hasattr(module, "prefetch_spanning_multi"):
            monkeypatch.setattr(module, "prefetch_spanning_multi", prefetch)
    monkeypatch.setattr(
        campaign, "packed_golden_runs", counted(campaign.packed_golden_runs)
    )
    base = dict(
        cycle_count=3, max_wires=16, delay_fractions=(0.7, 0.9),
        margin_cycles=400, seed=3,
    )
    engines = [
        DelayAVFEngine(system, program, CampaignConfig(**base))
        for program in (strstr_program, load_benchmark("libfibcall"))
    ]
    campaign.run_structures_spanning(
        [(engine, ("alu", "decoder")) for engine in engines]
    )
    assert calls == {"prefetch_spanning_multi": 1, "packed_golden_runs": 1}
    assert sum(e.telemetry.count("lane_batches") for e in engines) > 0
