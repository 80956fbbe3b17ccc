"""GroupACE: outcome classification, convergence, caching."""

from repro.core.group_ace import GroupAceAnalyzer, Outcome
from repro.isa.assembler import assemble


def _dff_index(system, name):
    (dff,) = [d for d in system.netlist.dffs if d.name == name]
    return dff.index


def test_empty_set_is_masked(strstr_engine):
    session = strstr_engine.session
    cycle = session.sampled_cycles[0]
    outcome = session.group_ace.outcome_of_state_errors(
        session.checkpoint(cycle), {}
    )
    assert outcome is Outcome.MASKED


def test_noop_override_is_masked(strstr_engine):
    """Forcing a DFF to the value it already latches is not an error."""
    session = strstr_engine.session
    cycle = session.sampled_cycles[1]
    checkpoint = session.checkpoint(cycle)
    sim = session.system.simulator()
    env = session.system.make_env(session.program)
    sim.restore(checkpoint, env)
    sim.step()
    dff = 3
    current = int(sim.dff_values[dff])
    outcome = session.group_ace.outcome_of_state_errors(
        checkpoint, {dff: current}
    )
    assert outcome is Outcome.MASKED


def test_corrupting_live_register_causes_failure(system, strstr_engine):
    """Flip the low bits of s1 (x9), which holds the output-region base
    pointer for the whole run: the output stores must go wrong."""
    session = strstr_engine.session
    cycle = session.sampled_cycles[2]
    checkpoint = session.checkpoint(cycle)
    s1_bits = [
        d.index for d in system.netlist.dffs
        if d.name.startswith("core.regfile.x9[")
    ]
    overrides = {
        b: int(checkpoint.dff_values[b]) ^ 1 for b in s1_bits[:8]
    }
    outcome = session.group_ace.outcome_of_state_errors(
        checkpoint, overrides, at_next_boundary=False
    )
    assert outcome.is_failure


def test_outcomes_cached(strstr_engine):
    session = strstr_engine.session
    cycle = session.sampled_cycles[0]
    checkpoint = session.checkpoint(cycle)
    before = session.group_ace.stats.runs
    session.group_ace.outcome_of_state_errors(checkpoint, {7: 1})
    mid = session.group_ace.stats.runs
    session.group_ace.outcome_of_state_errors(checkpoint, {7: 1})
    assert session.group_ace.stats.runs == mid
    assert mid == before + 1


def test_distinct_boundaries_not_conflated(strstr_engine):
    session = strstr_engine.session
    cycle = session.sampled_cycles[0]
    checkpoint = session.checkpoint(cycle)
    a = session.group_ace.outcome_of_state_errors(
        checkpoint, {5: 1}, at_next_boundary=True
    )
    b = session.group_ace.outcome_of_state_errors(
        checkpoint, {5: 1}, at_next_boundary=False
    )
    # Both calls ran (cache keys differ); outcomes may or may not agree.
    assert isinstance(a, Outcome) and isinstance(b, Outcome)


def test_hang_classified_as_due(system):
    """Corrupting the halt loop so the program never halts must yield DUE."""
    src = """
    li a0, 0
    li a1, 40
    loop:
    addi a0, a0, 1
    blt a0, a1, loop
    li t0, 0x10001000
    sw x0, 0(t0)
    """
    program = assemble(src, "hang")
    golden = system.run_program(
        program, max_cycles=2000, checkpoint_cycles=[10],
        record_fingerprints=True,
    )
    assert golden.halted
    analyzer = GroupAceAnalyzer(system, program, golden, margin_cycles=300)
    # Force the loop counter register (x10 = a0) to a value beyond the
    # bound with the sign bit set, making the loop effectively endless.
    a0_bits = {
        d.name: d.index for d in system.netlist.dffs
        if d.name.startswith("core.regfile.x10[")
    }
    overrides = {a0_bits[f"core.regfile.x10[{b}]"]: 1 for b in (31,)}
    outcome = analyzer.outcome_of_state_errors(
        golden.checkpoints[10], overrides, at_next_boundary=False
    )
    assert outcome is Outcome.DUE or outcome is Outcome.SDC
    assert outcome.is_failure


def test_sdc_detected_on_output_corruption(system, strstr_program):
    """Corrupt the LSU write-data register in the exact cycle an output
    store is presented to memory: a guaranteed silent data corruption."""
    from repro.soc import memmap

    # Locate the cycle in which the first output-region store is visible.
    sim = system.simulator()
    env = system.make_env(strstr_program)
    sim.reset(env)
    store_cycle = None
    for _ in range(5000):
        outputs = sim.step()
        if (
            outputs["dmem_req"] and outputs["dmem_we"]
            and memmap.OUTPUT_BASE <= outputs["dmem_addr"] < memmap.OUTPUT_BASE + memmap.OUTPUT_SIZE
        ):
            store_cycle = sim.cycle - 1
            break
        if env.halted():
            break
    assert store_cycle is not None

    golden = system.run_program(
        strstr_program, max_cycles=5000, record_fingerprints=True,
        checkpoint_cycles=[store_cycle],
    )
    analyzer = GroupAceAnalyzer(system, strstr_program, golden, margin_cycles=300)
    wdata_bits = [
        d.index for d in system.netlist.dffs
        if d.name.startswith("core.lsu.wdata_q[")
    ]
    checkpoint = golden.checkpoints[store_cycle]
    overrides = {
        b: int(checkpoint.dff_values[b]) ^ 1 for b in wdata_bits[:8]
    }
    outcome = analyzer.outcome_of_state_errors(
        checkpoint, overrides, at_next_boundary=False
    )
    assert outcome is Outcome.SDC


def test_stats_track_convergence(strstr_engine):
    stats = strstr_engine.session.group_ace.stats
    assert stats.runs == stats.converged + stats.ran_to_halt + stats.timed_out
