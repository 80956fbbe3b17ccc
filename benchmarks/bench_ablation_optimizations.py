"""Ablation: the §V-C optimizations are exact, not heuristics.

The paper stresses that every optimization in its flow "retains fidelity":
the static-reachability pre-filter, the non-toggling-source skip, the
cone-limited incremental timing simulation, and result caching.  This bench
computes DelayACE for a sample of injections three times —

- **batched**: the production pipeline as the sharded executor drives it —
  every pending injection of a cycle resolved through
  ``DynamicReachability.reachable_set_batch`` (shared fan-out cones, one
  cone pass per injection site) before scalar evaluation,
- **one per batch**: the same pre-filters and cone pass, one injection at
  a time (per-injection ``reachable_set``, whose memo miss is a one-query
  ``resimulate_batch``), and
- **brute force**: full-circuit faulty event simulation per injection and an
  uncached GroupACE run for every non-empty error set —

asserts all three verdict maps are identical, and reports the speedups.
Each timed pipeline starts from cleared per-cycle resimulation memos so the
batched pass cannot coast on the one-per-batch pass's cache (or vice versa).
"""

import time

import _shared
from repro.analysis.tables import render_table
from repro.core.group_ace import GroupAceAnalyzer

BENCH = "libstrstr"
STRUCTURE = "alu"
DELAYS = (0.5, 0.9)
SAMPLE_WIRES = 12


def _collect():
    engine = _shared.engine(BENCH)
    session = engine.session
    system = session.system
    wires = system.structure_wires(STRUCTURE)[:: max(
        1, len(system.structure_wires(STRUCTURE)) // SAMPLE_WIRES
    )][:SAMPLE_WIRES]
    cycles = session.sampled_cycles[:4]

    def _clear_resim_memos():
        for cycle in cycles:
            session.waveforms(cycle).resim_cache.clear()

    # Batched pipeline: resolve every injection of a cycle through the
    # shared-cone batch API first (what the sharded executor does), then
    # evaluate against the warm memos.  Runs first, so it pays the cold
    # GroupACE cost the one-per-batch pass below inherits for free — any
    # speedup it still shows over that pass is a lower bound.
    _clear_resim_memos()
    batch_resims_before = session.telemetry.count("batch_resims")
    t0 = time.perf_counter()
    batched = {}
    for cycle in cycles:
        waves = session.waveforms(cycle)
        checkpoint = session.checkpoint(cycle)
        session.dynamic.reachable_set_batch(
            waves, [(w, d) for w in wires for d in DELAYS]
        )
        for wire_index, wire in enumerate(wires):
            for delay in DELAYS:
                record = session.evaluator.evaluate(
                    waves, checkpoint, wire, wire_index, delay,
                    with_orace=False,
                )
                batched[(cycle, wire_index, delay)] = (
                    record.delay_ace, record.num_errors,
                )
    batched_time = time.perf_counter() - t0
    batch_resims = session.telemetry.count("batch_resims") - batch_resims_before

    # One injection per batch: one reachable_set (one memo miss) each.
    _clear_resim_memos()
    t0 = time.perf_counter()
    optimized = {}
    for cycle in cycles:
        waves = session.waveforms(cycle)
        checkpoint = session.checkpoint(cycle)
        for wire_index, wire in enumerate(wires):
            for delay in DELAYS:
                record = session.evaluator.evaluate(
                    waves, checkpoint, wire, wire_index, delay,
                    with_orace=False,
                )
                optimized[(cycle, wire_index, delay)] = (
                    record.delay_ace, record.num_errors,
                )
    optimized_time = time.perf_counter() - t0

    # Brute force: full faulty event sim + fresh (uncached) GroupACE.
    t0 = time.perf_counter()
    brute = {}
    fresh_group = GroupAceAnalyzer(
        system, session.program, session.golden,
        margin_cycles=session.config.margin_cycles,
    )
    for cycle in cycles:
        checkpoint = session.checkpoint(cycle)
        for wire_index, wire in enumerate(wires):
            for delay in DELAYS:
                errors = system.event_sim.simulate_cycle_with_fault(
                    checkpoint.prev_settled,
                    checkpoint.dff_values,
                    checkpoint.input_values,
                    wire,
                    delay * system.clock_period,
                )
                fresh_group._cache.clear()  # defeat caching entirely
                failure = fresh_group.outcome_of_state_errors(
                    checkpoint, errors
                ).is_failure
                brute[(cycle, wire_index, delay)] = (failure, len(errors))
    brute_time = time.perf_counter() - t0

    # Lane-width ablation: GroupACE resolutions — the injected timing-
    # agnostic re-simulations lane packing accelerates — at packed widths
    # 1 / 8 / 64 (1 = the pre-packing scalar loop).  The strided wire
    # sample above is mostly masked (no state errors, nothing to resolve),
    # so error-producing injections are gathered with the cone-limited
    # event sim over the full wire list first.  Fresh analyzer per width
    # so caches cannot coast; verdict maps must be identical.
    error_sets = {}
    for cycle in cycles:
        waves = session.waveforms(cycle)
        for wire_index, wire in enumerate(system.structure_wires(STRUCTURE)):
            if wire.net not in waves.changes:
                continue
            errors = system.event_sim.resimulate_batch(
                waves, [(wire, max(DELAYS) * system.clock_period)]
            )[0]
            if errors:
                error_sets[(cycle, wire_index)] = errors
            if sum(c == cycle for c, _ in error_sets) >= 16:
                break
    lane_results = {}
    for lanes in (1, 8, 64):
        group = GroupAceAnalyzer(
            system, session.program, session.golden,
            margin_cycles=session.config.margin_cycles,
        )
        t0 = time.perf_counter()
        for cycle in cycles:
            checkpoint = session.checkpoint(cycle)
            pending = [
                errors for (c, _), errors in error_sets.items()
                if c == cycle
            ]
            if pending:
                group.prefetch(checkpoint, pending, lanes=lanes)
        verdicts = {
            key: group.outcome_of_state_errors(
                session.checkpoint(key[0]), errors
            ).is_failure
            for key, errors in error_sets.items()
        }
        lane_results[lanes] = (time.perf_counter() - t0, verdicts)

    return (
        batched, optimized, brute,
        batched_time, optimized_time, brute_time,
        len(optimized), batch_resims, lane_results,
    )


def test_ablation_optimizations_exact(benchmark):
    (batched, optimized, brute, bat_t, opt_t, brute_t, n, batch_resims,
     lane_results) = benchmark.pedantic(_collect, rounds=1, iterations=1)
    assert batched == brute, "batched engine changed a DelayACE verdict"
    assert optimized == brute, "optimizations changed a DelayACE verdict"
    assert batch_resims > 0, "batched pipeline never used the batch engine"
    # Lane packing is exact: identical GroupACE verdicts at every width.
    lane1_verdicts = lane_results[1][1]
    assert lane1_verdicts, "lane ablation resolved no injections"
    for lanes, (_, verdicts) in lane_results.items():
        assert verdicts == lane1_verdicts, (
            f"lane width {lanes} changed a GroupACE verdict"
        )
    lane_rows = [
        [f"groupace lanes={lanes}", len(verdicts), f"{seconds:.2f}",
         f"{1000 * seconds / max(1, len(verdicts)):.1f}"]
        for lanes, (seconds, verdicts) in sorted(lane_results.items())
    ]
    lane1_t = lane_results[1][0]
    lane_rows.append(
        ["speedup (lanes 64 vs 1)", "",
         f"{lane1_t / max(lane_results[64][0], 1e-9):.1f}x", ""]
    )
    text = render_table(
        ["pipeline", "injections", "seconds", "per-injection ms"],
        [
            ["batched (shared cones)", n, f"{bat_t:.2f}",
             f"{1000 * bat_t / n:.1f}"],
            ["one per batch (§V-C)", n, f"{opt_t:.2f}",
             f"{1000 * opt_t / n:.1f}"],
            ["brute force", n, f"{brute_t:.2f}", f"{1000 * brute_t / n:.1f}"],
            ["speedup (vs one per batch)", "",
             f"{brute_t / max(opt_t, 1e-9):.1f}x", ""],
            ["speedup (vs batched)", "",
             f"{brute_t / max(bat_t, 1e-9):.1f}x", ""],
        ] + lane_rows,
        title=(
            "Ablation — §V-C optimizations: identical verdicts "
            f"({STRUCTURE}/{BENCH}, d in {DELAYS}, "
            f"{batch_resims} batch resims)"
        ),
    )
    _shared.save_report("ablation_optimizations", text)
    assert brute_t > opt_t  # the optimizations must actually pay
    assert brute_t > bat_t
