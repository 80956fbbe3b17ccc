"""Measured fault-free workload lengths, keyed by program signature.

The campaign session needs a workload's fault-free cycle count *before* its
instrumented golden run (the equally spaced injection cycles — and therefore
the checkpoint positions — depend on it).  On a fully cold start that costs
a dedicated probe run: a complete extra simulation of the workload.

:data:`KNOWN_LENGTHS` ships measured lengths for the five bundled BEEBS
workloads, which short-circuits the probe for them.  Keys are content hashes
(:func:`repro.core.cache.program_signature`), so a hint can never be applied
to a workload whose binary image changed — editing a benchmark changes its
signature and simply misses the table.

A hint is *soft*: the instrumented golden run measures the true length
anyway, and if a hint turns out stale (e.g. a simulator behaviour change
under the same image), :class:`repro.core.campaign.CampaignSession` falls
back gracefully — it re-samples the injection cycles from the measured
length and re-runs the instrumented pass, i.e. a stale hint costs exactly
what the probe would have.  Any other workload is probed once per cache
scope; the scope's metadata remembers the measured length.

Regenerate the bundled table with ``python -m repro.workloads.lengths``.
"""

from __future__ import annotations

from typing import Optional

#: Cycles a fault-free run may take before it counts as a hang: the cap of
#: every golden run, and the longest length a hint may claim.
MAX_RUN_CYCLES = 200_000

#: program signature -> fault-free cycles to halt (default SoC build)
KNOWN_LENGTHS = {
    "893beba0f3c022931472629a1f12d77affc8dce76fb9188c84534fea812a7bfc": 3564,  # md5
    "de3c22fe3017438c847a24725ee611f3971029825eb90e5959305483b56c0784": 3537,  # bubblesort
    "b468da6f6c4ecccc953f8285fa6cf501ff74b43d2ee741b9c380d8c2d5bd7257": 746,  # libstrstr
    "35eeb4e253a061a3441837ae493bae60e12af4fdec11052341e73b317f0123eb": 2021,  # libfibcall
    "6af175c590c26fa80e2b50253f1473891132e45abfaf52cccd6e261ea44905fb": 8822,  # matmult
}


def known_length(signature: str) -> Optional[int]:
    """The measured fault-free cycle count for *signature*, if bundled."""
    return KNOWN_LENGTHS.get(signature)


def _measure() -> None:  # pragma: no cover - regeneration utility
    from repro.core.cache import program_signature
    from repro.soc.system import build_system
    from repro.workloads.beebs import BENCHMARK_NAMES, load_benchmark

    system = build_system()
    print("KNOWN_LENGTHS = {")
    for name in BENCHMARK_NAMES:
        program = load_benchmark(name)
        run = system.run_program(program, max_cycles=MAX_RUN_CYCLES)
        if not run.halted:
            raise RuntimeError(f"{name} did not halt")
        print(f'    "{program_signature(program)}": {run.cycles},  # {name}')
    print("}")


if __name__ == "__main__":  # pragma: no cover
    _measure()
