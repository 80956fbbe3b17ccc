"""Benchmark workloads: correctness on ISS and gate-level core."""

import pytest

from repro.core.cache import program_signature
from repro.isa.reference import run_program
from repro.workloads.beebs import (
    BENCHMARK_NAMES,
    benchmark_source,
    expected_output,
    load_benchmark,
    load_workload,
)
from repro.workloads.generator import (
    make_bubblesort,
    make_fibcall,
    make_matmult,
    make_md5,
    make_strstr,
)
from repro.workloads.lengths import known_length


def test_benchmark_names():
    assert BENCHMARK_NAMES == (
        "md5", "bubblesort", "libstrstr", "libfibcall", "matmult",
    )


def test_unknown_benchmark():
    with pytest.raises(ValueError, match="unknown benchmark"):
        load_workload("quicksort")


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_iss_produces_expected_output(name):
    program = load_benchmark(name)
    cpu = run_program(program.image, max_instructions=200_000)
    assert tuple(cpu.output_log) == expected_output(name)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_gate_level_core_matches_expected_output(system, name):
    program = load_benchmark(name)
    result = system.run_program(program, max_cycles=60_000)
    assert result.halted
    assert result.observables == expected_output(name)
    # Table II territory: every benchmark lands in the 500–10 000 range.
    assert 500 <= result.cycles <= 10_000, (name, result.cycles)
    # The bundled length table matches this build: a worker-fleet
    # coordinator plans from it without a golden run of its own.
    assert result.cycles == known_length(program_signature(program)), name


def test_md5_matches_hashlib():
    import hashlib

    message = b"delay faults considered harmful"
    workload = make_md5(message)
    digest_words = [e[2] for e in workload.expected_output if e[0] == "store"]
    digest = b"".join(w.to_bytes(4, "little") for w in digest_words)
    assert digest == hashlib.md5(message).digest()


def test_md5_reduced_rounds():
    workload = make_md5(rounds=16)
    cpu = run_program(
        __import__("repro.isa.assembler", fromlist=["assemble"]).assemble(
            workload.source, "md5r16"
        ).image
    )
    assert tuple(cpu.output_log) == workload.expected_output


def test_bubblesort_parameterized():
    for n in (4, 9):
        workload = make_bubblesort(n=n, seed=5)
        from repro.isa.assembler import assemble

        cpu = run_program(assemble(workload.source).image)
        assert tuple(cpu.output_log) == workload.expected_output


def test_matmult_parameterized():
    workload = make_matmult(n=3, seed=11)
    from repro.isa.assembler import assemble

    cpu = run_program(assemble(workload.source).image)
    assert tuple(cpu.output_log) == workload.expected_output


def test_strstr_finds_and_misses():
    workload = make_strstr(haystack="abcabd", needles=("abd", "zzz", "a"))
    from repro.isa.assembler import assemble

    cpu = run_program(assemble(workload.source).image)
    stores = [e for e in cpu.output_log if e[0] == "store"]
    assert stores[0][2] == 3
    assert stores[1][2] == 0xFFFFFFFF
    assert stores[2][2] == 0


def test_fibcall_parameterized():
    workload = make_fibcall(n=7)
    from repro.isa.assembler import assemble

    cpu = run_program(assemble(workload.source).image)
    assert cpu.output_log[0] == ("store", 0, 13)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_sources_are_cached(name):
    assert load_benchmark(name) is load_benchmark(name)
    assert benchmark_source(name) == benchmark_source(name)
