"""Brute-force re-derivation of sampled DelayAVF records.

The production pipeline answers each injection through the static-reach
pre-filter, cone-limited batched event simulation, packed GroupACE lanes
and the verdict caches.  The oracle answers the same question the slow way
(the brute-force path of ``benchmarks/bench_ablation_optimizations.py``):
a fresh scalar golden run for the checkpoint, a full-circuit
``EventSimulator.simulate_cycle_with_fault``, and a fresh, uncached
``GroupAceAnalyzer`` for any non-empty error set.  A record whose error
count or outcome differs is a mismatch.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

import common  # noqa: F401 - puts the program's sources on sys.path

#: records re-derived per workload (half drawn from error-producing ones)
SAMPLE_SIZE = 24


def sample_records(records: Sequence[Dict], seed: int,
                   size: int = SAMPLE_SIZE) -> List[Dict]:
    """A seeded sample of the records of one seeded benchmark, half from
    those with ``num_errors > 0`` (as many as exist), the rest from the
    remainder.  One benchmark needs one brute-force golden run, which takes
    seconds; runs with other seeds check the other benchmarks."""
    if not records:
        return []
    rng = random.Random(f"oracle:{seed}")
    benchmark = rng.choice(sorted({r["benchmark"] for r in records}))
    keyed = sorted(
        (r for r in records if r["benchmark"] == benchmark),
        key=lambda r: (r["structure"], r["cycle"], r["wire_index"],
                       r["delay_fraction"]),
    )
    with_errors = [r for r in keyed if r["num_errors"] > 0]
    without = [r for r in keyed if r["num_errors"] == 0]
    take = min(len(with_errors), size // 2)
    picked = rng.sample(with_errors, take)
    picked += rng.sample(without, min(len(without), size - take))
    return picked


def check_records(records: Sequence[Dict], margin_cycles: int) -> List[str]:
    """Re-derive every record; returns one message per mismatch."""
    from repro.core.group_ace import GroupAceAnalyzer
    from repro.soc.system import build_system
    from repro.workloads.registry import resolve_program

    system = build_system()
    mismatches: List[str] = []
    by_benchmark: Dict[str, List[Dict]] = {}
    for record in records:
        by_benchmark.setdefault(record["benchmark"], []).append(record)
    for benchmark, group in sorted(by_benchmark.items()):
        program = resolve_program(benchmark)
        golden = system.run_program(
            program,
            checkpoint_cycles=sorted({r["cycle"] for r in group}),
            record_fingerprints=True,
        )
        analyzer = GroupAceAnalyzer(
            system, program, golden, margin_cycles=margin_cycles
        )
        for record in group:
            checkpoint = golden.checkpoints[record["cycle"]]
            wire = system.structure_wires(record["structure"])[
                record["wire_index"]
            ]
            errors = system.event_sim.simulate_cycle_with_fault(
                checkpoint.prev_settled,
                checkpoint.dff_values,
                checkpoint.input_values,
                wire,
                record["delay_fraction"] * system.clock_period,
            )
            analyzer._cache.clear()  # every verdict from a fresh run
            outcome = analyzer.outcome_of_state_errors(checkpoint, errors)
            if len(errors) != record["num_errors"] or (
                outcome.name != record["outcome"]
            ):
                mismatches.append(
                    f"{benchmark}/{record['structure']} wire "
                    f"{record['wire_index']} cycle {record['cycle']} d="
                    f"{record['delay_fraction']}: pipeline says "
                    f"{record['num_errors']} errors/{record['outcome']}, "
                    f"brute force says {len(errors)} errors/{outcome.name}"
                )
    return mismatches
