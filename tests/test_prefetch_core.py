"""Prefetch-buffer behaviour observed through the full core.

The FIFO/bypass/discard logic is exercised indirectly by every co-sim test;
these tests check the *microarchitectural* properties: fetch throughput,
buffer occupancy bounds, and wrong-path discarding.
"""

from repro.isa.assembler import assemble


def _dffs_by_prefix(system, prefix):
    return [d for d in system.netlist.dffs if d.name.startswith(prefix)]


def _trace(system, source, max_cycles=300):
    program = assemble(
        source + "\nli t0, 0x10001000\nsw x0, 0(t0)\n", "trace"
    )
    sim = system.simulator()
    env = system.make_env(program)
    sim.reset(env)
    e0_valid = _dffs_by_prefix(system, "core.prefetch.e0_valid")[0]
    e1_valid = _dffs_by_prefix(system, "core.prefetch.e1_valid")[0]
    req = _dffs_by_prefix(system, "core.prefetch.fetch_req_q")[0]
    states = []
    for _ in range(max_cycles):
        states.append(
            (
                int(sim.dff_values[e0_valid.index]),
                int(sim.dff_values[e1_valid.index]),
                int(sim.dff_values[req.index]),
            )
        )
        sim.step()
        if env.halted():
            break
    assert env.halted()
    return states


def test_occupancy_never_exceeds_capacity(system):
    source = """
    li a0, 0
    li a1, 20
    loop:
    addi a0, a0, 1
    blt a0, a1, loop
    """
    states = _trace(system, source)
    for e0, e1, req in states:
        assert e0 + e1 + req <= 2 + 1  # entries+in-flight bounded
        if e1:
            assert e0, "entry 1 valid while entry 0 empty (FIFO hole)"


def test_straightline_reaches_full_fetch_rate(system):
    source = "\n".join(["addi a0, a0, 1"] * 40)
    states = _trace(system, source)
    # In steady state a fetch is issued every cycle (bypass consumption).
    req_rate = sum(req for _, _, req in states[5:-5]) / max(
        len(states) - 10, 1
    )
    assert req_rate > 0.9


def test_redirect_flushes_buffer(system):
    """After each taken branch the buffer must drain (valids drop)."""
    source = """
    li a0, 0
    li a1, 6
    loop:
    addi a0, a0, 1
    j skip_a
    skip_a:
    j skip_b
    skip_b:
    blt a0, a1, loop
    """
    states = _trace(system, source)
    # Flushes are observable as cycles with zero valid entries mid-run.
    empties = sum(1 for e0, e1, _ in states[3:] if e0 == 0 and e1 == 0)
    assert empties > 3


def test_discard_flag_follows_redirects(system):
    source = """
    li a0, 0
    lp:
    addi a0, a0, 1
    li a1, 5
    blt a0, a1, lp
    """
    program = assemble(source + "\nli t0, 0x10001000\nsw x0, 0(t0)\n", "d")
    sim = system.simulator()
    env = system.make_env(program)
    sim.reset(env)
    discard = _dffs_by_prefix(system, "core.prefetch.discard_q")[0]
    saw_discard = False
    for _ in range(200):
        sim.step()
        if env.halted():
            break
        saw_discard |= bool(sim.dff_values[discard.index])
    assert saw_discard, "taken branches should trigger wrong-path discards"
