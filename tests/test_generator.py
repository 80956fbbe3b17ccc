"""Constrained-random workload generator: rng, determinism, oracle fidelity."""

import json
import subprocess
import sys

import pytest

from repro.core.cache import program_signature
from repro.isa.assembler import assemble
from repro.isa.reference import run_program
from repro.workloads.generator import (
    GeneratorKnobs,
    RandomWorkload,
    _rng_words,
    _splitmix64,
    format_gen_spec,
    make_random,
    parse_gen_spec,
)
from repro.workloads.registry import resolve_program, resolve_workload


# ----------------------------------------------------------------------
# _rng_words (the satellite bugfix: splitmix mixing, bits validation)
# ----------------------------------------------------------------------
def test_rng_words_rejects_out_of_range_bits():
    with pytest.raises(ValueError, match="bits"):
        _rng_words(0, 4, bits=33)
    with pytest.raises(ValueError, match="bits"):
        _rng_words(0, 4, bits=0)


def test_rng_words_full_width_is_not_truncated():
    words = _rng_words(1, 64, bits=32)
    assert all(0 <= w <= 0xFFFFFFFF for w in words)
    # A 32-bit stream that never leaves 16 bits would mean silent
    # truncation (the original bug); splitmix uses the full width.
    assert any(w > 0xFFFF for w in words)


def test_rng_words_nearby_seeds_decorrelate():
    # Under the old mixer, streams for seeds s and s+1 were visibly
    # correlated.  With splitmix the first word alone separates 32
    # consecutive seeds completely.
    first_words = {_rng_words(seed, 1, bits=32)[0] for seed in range(32)}
    assert len(first_words) == 32
    # And full streams share no common prefix between adjacent seeds.
    assert _rng_words(5, 8, bits=32) != _rng_words(6, 8, bits=32)


def test_splitmix_is_deterministic():
    state_a, word_a = _splitmix64(12345)
    state_b, word_b = _splitmix64(12345)
    assert (state_a, word_a) == (state_b, word_b)


# ----------------------------------------------------------------------
# Knob and spec parsing
# ----------------------------------------------------------------------
def test_knob_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        GeneratorKnobs(pattern="spiral")
    with pytest.raises(ValueError):
        GeneratorKnobs(data_words=48)  # not a power of two
    with pytest.raises(ValueError):
        GeneratorKnobs(registers=1)
    with pytest.raises(ValueError):
        GeneratorKnobs(alu=-1)
    with pytest.raises(ValueError):
        GeneratorKnobs(alu=0, loads=0, stores=0, branches=0, muls=0)


def test_spec_round_trip_and_canonicalization():
    knobs = GeneratorKnobs(pattern="chase", blocks=3)
    spec = format_gen_spec(9, knobs)
    assert spec == "gen:9:pattern=chase,blocks=3"
    seed, parsed = parse_gen_spec(spec)
    assert (seed, parsed) == (9, knobs)
    # Spelling out a default knob canonicalizes away.
    seed2, parsed2 = parse_gen_spec("gen:9:pattern=chase,blocks=3,alu=8")
    assert format_gen_spec(seed2, parsed2) == spec


def test_spec_parse_errors():
    for bad in ("md5", "gen:", "gen:-1", "gen:x", "gen:1:notaknob=2",
                "gen:1:blocks", "gen:1:blocks=2,blocks=3"):
        with pytest.raises(ValueError):
            parse_gen_spec(bad)


# ----------------------------------------------------------------------
# Determinism (satellite: byte-identical across processes)
# ----------------------------------------------------------------------
def test_same_seed_same_bytes_and_signature():
    a = make_random(11)
    b = make_random(11)
    assert a.source == b.source
    assert a.expected_output == b.expected_output
    sig_a = program_signature(assemble(a.source, name=a.name))
    sig_b = program_signature(assemble(b.source, name=b.name))
    assert sig_a == sig_b


def test_distinct_seeds_distinct_signatures():
    signatures = set()
    for seed in range(12):
        workload = make_random(seed)
        signatures.add(
            program_signature(assemble(workload.source, name=workload.name))
        )
    assert len(signatures) == 12


def test_signature_stable_across_processes():
    """A fresh interpreter reproduces the identical program signature."""
    spec = "gen:13:pattern=stride,blocks=3"
    script = (
        "import json, sys\n"
        "from repro.core.cache import program_signature\n"
        "from repro.workloads.registry import resolve_program\n"
        f"program = resolve_program({spec!r})\n"
        "print(json.dumps({'sig': program_signature(program),"
        " 'size': program.size}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=__file__.rsplit("/tests/", 1)[0],
    )
    child = json.loads(out.stdout)
    program = resolve_program(spec)
    assert child["sig"] == program_signature(program)
    assert child["size"] == program.size


def test_equivalent_spellings_share_one_signature():
    canonical = resolve_program("gen:4")
    spelled = resolve_program("gen:4:alu=8,pattern=seq")
    assert spelled.name == canonical.name == "gen:4"
    assert program_signature(spelled) == program_signature(canonical)


# ----------------------------------------------------------------------
# Oracle fidelity: every generated program halts and matches its model
# ----------------------------------------------------------------------
_VARIANTS = [
    GeneratorKnobs(),
    GeneratorKnobs(pattern="stride", stride=5),
    GeneratorKnobs(pattern="chase", data_words=32),
    GeneratorKnobs(loop_depth=2, loop_iters=2, blocks=3),
    GeneratorKnobs(muls=4, alu=2, branches=4),
    GeneratorKnobs(registers=3, loads=6, stores=4, outputs=4),
]


@pytest.mark.parametrize("index", range(len(_VARIANTS)))
def test_generated_programs_match_model_on_iss(index):
    knobs = _VARIANTS[index]
    for seed in (index, 100 + index):
        workload = make_random(seed, knobs)
        assert workload.instructions is not None
        cpu = run_program(
            assemble(workload.source).image,
            max_instructions=workload.instructions + 10_000,
        )
        assert cpu.halted, (seed, knobs)
        assert tuple(cpu.output_log) == workload.expected_output, (seed, knobs)


#: Gate-level co-simulation programs: a small loop nest plus six
#: branch/load/store-heavy mixes over every access pattern.
_CORE_SPECS = [
    "gen:2:blocks=2,ops_per_block=4,loop_iters=2",
    "gen:0:alu=2,loads=6,stores=6,branches=8",
    "gen:1:alu=1,loads=4,stores=8,branches=10,pattern=chase",
    "gen:3:alu=2,loads=8,stores=4,branches=8,pattern=stride,stride=5",
    "gen:4:alu=1,loads=6,stores=6,branches=6,blocks=8,loop_depth=0",
    "gen:5:alu=2,stores=3,branches=12,muls=0",
    "gen:6:alu=0,loads=8,stores=8,branches=8,registers=4",
]


@pytest.mark.parametrize("spec", _CORE_SPECS)
def test_generated_program_runs_on_gate_level_core(system, spec):
    workload = resolve_workload(spec)
    assert workload.name == spec  # canonical spelling
    program = resolve_program(workload.name)
    result = system.run_program(program, max_cycles=60_000)
    assert result.halted
    assert result.observables == workload.expected_output


def test_random_workload_digest_distinguishes_knobs():
    base = RandomWorkload(3)
    assert base.spec == "gen:3"
    other = RandomWorkload(3, GeneratorKnobs(pattern="chase"))
    assert base.digest != other.digest
    assert base.build().source == make_random(3).source
