"""Beebs-like benchmark workloads for the IbexMini core.

Assembly re-implementations of the five Beebs benchmarks the paper studies:
``md5``, ``bubblesort``, ``libstrstr``, ``libfibcall``, and ``matmult`` —
preserving each kernel's computational character (and hence its toggle-rate
profile, which drives the paper's Observation 3) — plus a seeded
constrained-random program generator (:func:`make_random`,
:class:`RandomWorkload`) for unbounded campaign traffic diversity, resolved
by ``gen:<seed>[:knob=value,...]`` specs through :func:`resolve_workload`.
"""

from repro.workloads.beebs import BENCHMARK_NAMES, benchmark_source, load_benchmark
from repro.workloads.generator import (
    GeneratorKnobs,
    RandomWorkload,
    format_gen_spec,
    make_bubblesort,
    make_fibcall,
    make_matmult,
    make_md5,
    make_random,
    make_strstr,
    parse_gen_spec,
)
from repro.workloads.registry import (
    canonical_workload_name,
    is_generated,
    resolve_expected_output,
    resolve_program,
    resolve_workload,
)

__all__ = [
    "BENCHMARK_NAMES",
    "GeneratorKnobs",
    "RandomWorkload",
    "benchmark_source",
    "canonical_workload_name",
    "format_gen_spec",
    "is_generated",
    "load_benchmark",
    "make_bubblesort",
    "make_fibcall",
    "make_matmult",
    "make_md5",
    "make_random",
    "make_strstr",
    "parse_gen_spec",
    "resolve_expected_output",
    "resolve_program",
    "resolve_workload",
]
