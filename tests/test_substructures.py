"""Macro-level (sub-structure) analysis support (§V-C)."""

MACRO_SCOPES = [
    "core.alu.adder",
    "core.alu.cmp",
    "core.alu.logic",
    "core.alu.shift",
    "core.alu.resmux",
]


def test_alu_macros_exist(system):
    for scope in MACRO_SCOPES:
        wires = system.structure_wires(scope)
        assert len(wires) > 20, scope


def test_macros_are_subsets_of_alu(system):
    alu = set(system.structure_wires("alu"))
    for scope in MACRO_SCOPES:
        macro = set(system.structure_wires(scope))
        # Internal macro wires are ALU wires; boundary wires may touch the
        # rest of the ALU, still inside the ALU scope.
        assert macro <= alu, scope


def test_macros_cover_most_of_alu(system):
    alu = set(system.structure_wires("alu"))
    union = set()
    for scope in MACRO_SCOPES:
        union |= set(system.structure_wires(scope))
    assert len(union) >= 0.8 * len(alu)


def test_macros_mutually_small_overlap(system):
    """Macros share only boundary wires, not their internals."""
    adder = set(system.structure_wires("core.alu.adder"))
    shift = set(system.structure_wires("core.alu.shift"))
    overlap = adder & shift
    assert len(overlap) < 0.2 * min(len(adder), len(shift))


def test_macro_campaign_runs(strstr_engine):
    result = strstr_engine.run_structure(
        "core.alu.adder", delay_fractions=(0.9,), max_wires=6
    )
    assert result.by_delay[0.9].samples == 6 * len(result.sampled_cycles)
    assert 0.0 <= result.by_delay[0.9].delay_avf <= 1.0
