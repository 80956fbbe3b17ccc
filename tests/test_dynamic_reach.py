"""Dynamic reachability wrapper: shortcuts and invariants on the real core."""


def test_dynamic_subset_of_static_on_core(strstr_engine):
    session = strstr_engine.session
    system = session.system
    wires = system.structure_wires("alu")[::101]
    for cycle in session.sampled_cycles[:3]:
        waves = session.waveforms(cycle)
        for wire in wires:
            for frac in (0.5, 0.9):
                errors = session.dynamic.reachable_set(waves, wire, frac)
                static = session.static.reachable_set(wire, frac)
                assert set(errors) <= set(static)


def test_non_toggling_wire_short_circuit(strstr_engine):
    session = strstr_engine.session
    cycle = session.sampled_cycles[0]
    waves = session.waveforms(cycle)
    quiet = [
        w for w in session.system.structure_wires("regfile")
        if not waves.toggles(w.net)
    ]
    assert quiet, "expected plenty of non-toggling register-file wires"
    for wire in quiet[:10]:
        assert session.dynamic.reachable_set(waves, wire, 0.9) == {}


def test_statically_unreachable_short_circuit(strstr_engine):
    session = strstr_engine.session
    cycle = session.sampled_cycles[0]
    waves = session.waveforms(cycle)
    for wire in session.system.structure_wires("alu")[::97]:
        if not session.static.is_reachable(wire, 0.1):
            assert session.dynamic.reachable_set(waves, wire, 0.1) == {}


def test_erroneous_values_differ_from_golden(strstr_engine):
    """Every reported error value must differ from the fault-free latch."""
    session = strstr_engine.session
    system = session.system
    found = 0
    for cycle in session.sampled_cycles:
        waves = session.waveforms(cycle)
        checkpoint = session.checkpoint(cycle)
        # Fault-free next state: simulate the cycle once.
        sim = system.simulator()
        env = system.make_env(session.program)
        sim.restore(checkpoint, env)
        sim.step()
        golden_next = sim.dff_values
        for wire in system.structure_wires("alu")[::41]:
            errors = session.dynamic.reachable_set(waves, wire, 0.9)
            for dff, value in errors.items():
                found += 1
                assert value != int(golden_next[dff])
    assert found >= 0  # vacuously fine if the sample produced no errors


def test_static_cache_reused(strstr_engine):
    session = strstr_engine.session
    wire = session.system.structure_wires("decoder")[0]
    first = session.static.reachable_set(wire, 0.9)
    second = session.static.reachable_set(wire, 0.9)
    assert first is second  # cached object identity


def test_memo_miss_is_not_counted_as_batched(strstr_engine):
    """A per-record memo miss re-simulates its one query in one-lane words
    and memoizes it, but leaves ``batch_resims`` alone: that counter is
    what tells a campaign's batched pass from record-by-record resolution,
    whose sets are the same."""
    session = strstr_engine.session
    dynamic, telemetry = session.dynamic, session.dynamic.telemetry
    waves = session.waveforms(session.sampled_cycles[0])
    queries = [
        (wire, frac)
        for wire in session.system.structure_wires("alu")[::7]
        for frac in (0.7, 0.9)
        if waves.toggles(wire.net) and session.static.is_reachable(wire, frac)
    ]
    assert len(queries) > 1

    def counts():
        return [
            telemetry.count(name)
            for name in ("batch_resims", "packed_cone_words", "packed_cone_lanes")
        ]

    waves.resim_cache.clear()
    batched, words, lanes = counts()
    one_by_one = [dynamic.reachable_set(waves, *query) for query in queries]
    assert set(waves.resim_cache) == set(queries)
    after = counts()
    assert after[0] == batched
    assert after[1] - words == after[2] - lanes > 0
    waves.resim_cache.clear()
    assert dynamic.reachable_set_batch(waves, queries) == one_by_one
    assert counts()[0] == batched + len(queries)


def test_funnel_counters_partition_the_sample(system, strstr_program):
    """Each record is counted once, in Eq. 4 order: static, toggle, slack.

    ``toggle_skips`` counts exactly the statically reachable records whose
    source does not toggle in their cycle, so the skip counters never
    exceed the statically reachable part of the sample.
    """
    from repro.core.campaign import CampaignConfig, DelayAVFEngine

    engine = DelayAVFEngine(system, strstr_program, CampaignConfig(
        cycle_count=4, max_wires=24, delay_fractions=(0.5, 0.9),
        margin_cycles=600,
    ))
    result = engine.run_structure("decoder")
    counters = result.telemetry.snapshot()["counters"]
    wires = system.structure_wires("decoder")
    quiet = sum(
        1
        for by_delay in result.by_delay.values()
        for record in by_delay.records
        if record.statically_reachable
        and not engine.session.waveforms(record.cycle).toggles(
            wires[record.wire_index].net
        )
    )
    assert quiet > 0
    assert counters["toggle_skips"] == quiet
    assert counters["toggle_skips"] + counters["slack_skips"] <= (
        counters["injections"] - counters["static_unreachable"]
    )
