"""The five standard benchmarks (default-parameter instances).

Mirrors the paper's Table II benchmark set.  Parameters are chosen so cycle
counts on the IbexMini core land in the same range the paper reports for
Ibex (roughly 1 000 – 9 000 cycles); the exact counts are measured by
``benchmarks/bench_table2_cycles.py`` and recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from repro.isa.assembler import Program, assemble
from repro.workloads.generator import (
    Workload,
    make_bubblesort,
    make_fibcall,
    make_matmult,
    make_md5,
    make_strstr,
)

BENCHMARK_NAMES: Tuple[str, ...] = (
    "md5",
    "bubblesort",
    "libstrstr",
    "libfibcall",
    "matmult",
)

_FACTORIES = {
    "md5": make_md5,
    "bubblesort": make_bubblesort,
    "libstrstr": make_strstr,
    "libfibcall": make_fibcall,
    "matmult": make_matmult,
}


@lru_cache(maxsize=None)
def load_workload(name: str) -> Workload:
    """The generated :class:`Workload` (source + expected output)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; available: {', '.join(BENCHMARK_NAMES)}"
        ) from None
    return factory()


@lru_cache(maxsize=None)
def load_benchmark(name: str) -> Program:
    """Assemble and return the named benchmark program."""
    workload = load_workload(name)
    return assemble(workload.source, name=name)


def expected_output(name: str) -> Tuple[Tuple, ...]:
    """The benchmark's expected program-visible output events."""
    return load_workload(name).expected_output
