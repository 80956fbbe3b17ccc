"""Fig. 7: normalized geomean DelayAVF across structures vs delay duration.

Paper (Observation 1): the ALU has the highest DelayAVF (up to ~5× the
register file), followed by the decoder, then the register file; DelayAVF
generally grows with the delay duration d.

Campaigns run through the planned/sharded engine (`REPRO_BENCH_JOBS` workers,
optional `REPRO_BENCH_CACHE` verdict cache); the accumulated campaign
telemetry is printed after the figure so speedups are attributable.  With
`REPRO_BENCH_REQUIRE_BATCH=1` the bench additionally fails unless the batched
timing-aware engine actually ran — guarding against a silent fallback to
per-injection scalar resimulation — and unless a packed GroupACE word
refilled a retired lane from its queue; with
`REPRO_BENCH_REQUIRE_PACKED_CONES=1` unless the word-packed cone pass ran at
>= 50% mean word occupancy (the CI fig7 smoke sets both).
"""

import os

import _shared
from repro.analysis.figures import render_grouped_bars
from repro.analysis.report import render_telemetry
from repro.core.results import geometric_mean
from repro.core.telemetry import CampaignTelemetry
from repro.workloads.beebs import BENCHMARK_NAMES

STRUCTURES = ("alu", "decoder", "regfile")


def _collect():
    geo = {}
    for structure in STRUCTURES:
        geo[structure] = {}
        for delay in _shared.DELAY_SWEEP:
            values = [
                _shared.structure_result(b, structure).by_delay[delay].delay_avf
                for b in BENCHMARK_NAMES
            ]
            geo[structure][f"d={delay:.0%}"] = geometric_mean(values)
    return geo


def test_fig7_structure_delayavf(benchmark):
    geo = benchmark.pedantic(_collect, rounds=1, iterations=1)
    peak = max(v for group in geo.values() for v in group.values()) or 1.0
    normalized = {
        s: {k: v / peak for k, v in group.items()} for s, group in geo.items()
    }
    text = render_grouped_bars(
        normalized,
        title=(
            "Fig. 7 — normalized geomean DelayAVF per structure vs d\n"
            f"(samples: {_shared.WIRES} wires x {_shared.CYCLES} cycles per "
            "structure/benchmark; geomean over the 5 Beebs benchmarks)"
        ),
    )
    _shared.save_report("fig7_structure_delayavf", text)

    # Aggregate campaign telemetry across every engine this bench touched
    # (cache-hit rates and phase wall times explain warm-vs-cold speedups).
    combined = CampaignTelemetry()
    for bench in BENCHMARK_NAMES:
        combined.merge_snapshot(_shared.engine(bench).telemetry.snapshot())
    print()
    print(render_telemetry(
        combined, title=f"fig7 campaign telemetry (jobs={_shared.JOBS})"
    ))
    if os.environ.get("REPRO_BENCH_REQUIRE_BATCH"):
        assert combined.count("batch_resims") > 0, (
            "cold fig7 run reported zero batch_resims — the batched "
            "timing-aware engine never ran"
        )
        assert combined.count("lane_refills") > 0, (
            "cold fig7 run reported zero lane_refills — GroupACE ran one "
            "word per chunk instead of refilling retired lanes"
        )
    if os.environ.get("REPRO_BENCH_REQUIRE_PACKED_CONES"):
        # Packed-cone gate: the word-packed cone pass must actually engage
        # (not silently fall back to per-lane scalar kernels), and the
        # packed words must be reasonably occupied.
        assert combined.count("packed_cone_lanes") > 0, (
            "cold fig7 run packed zero cone lanes — the word-packed "
            "event-sim path never engaged"
        )
        slots = combined.count("packed_cone_lane_slots")
        occupancy = combined.count("packed_cone_lanes") / max(1, slots)
        assert occupancy >= 0.5, (
            f"mean packed-cone occupancy {occupancy:.1%} below 50% — "
            "lane packing is running mostly empty words"
        )

    # Shape: mean-over-d ordering ALU > regfile (paper: ~5x); DelayAVF at
    # large d exceeds DelayAVF at the smallest d for every structure.
    mean_over_d = {
        s: sum(group.values()) / len(group) for s, group in geo.items()
    }
    assert mean_over_d["alu"] > mean_over_d["regfile"]
    for structure, group in geo.items():
        assert group["d=90%"] >= group["d=10%"], structure
