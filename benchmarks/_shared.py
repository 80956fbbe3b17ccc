"""Shared infrastructure for the experiment-reproduction benches.

Campaign sessions (golden runs, waveforms, GroupACE caches) are expensive,
so they are cached at module level and shared by every bench in one pytest
invocation: Fig. 7/8/9 and Table III all reuse the same engines.

Sample sizes are laptop-scale by default and adjustable via environment
variables (the paper's campaign ran ~24 h on a 48-core server):

- ``REPRO_BENCH_WIRES``      wires sampled per structure   (default 24)
- ``REPRO_BENCH_CYCLES``     injection cycles per workload (default 6)
- ``REPRO_BENCH_SAVF_BITS``  state bits sampled for sAVF   (default 16)
- ``REPRO_BENCH_JOBS``       campaign worker processes     (default 1)
- ``REPRO_BENCH_CACHE``      persistent verdict-cache dir  (default off)

With ``REPRO_BENCH_JOBS > 1`` campaigns shard over forked local workers
(each rebuilds its session from the wire form of a spec); with
``REPRO_BENCH_CACHE`` set, GroupACE verdicts persist across bench
invocations, so re-runs warm-start.  Both paths produce records identical to the serial engine.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path
from typing import Optional, Tuple

from repro.core.campaign import CampaignConfig, DelayAVFEngine
from repro.core.executor import SessionSpec
from repro.core.results import StructureCampaignResult
from repro.core.savf import SAVFEngine
from repro.soc.system import build_system
from repro.workloads.beebs import BENCHMARK_NAMES, load_benchmark

WIRES = int(os.environ.get("REPRO_BENCH_WIRES", "24"))
CYCLES = int(os.environ.get("REPRO_BENCH_CYCLES", "6"))
SAVF_BITS = int(os.environ.get("REPRO_BENCH_SAVF_BITS", "16"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE", "") or None

DELAY_SWEEP = (0.1, 0.3, 0.5, 0.7, 0.9)

RESULTS_DIR = Path(__file__).parent / "results"

#: Paper reference values, for side-by-side reporting.
PAPER_TABLE1 = {
    "alu": 3668, "decoder": 1007, "regfile": 17816,
    "regfile_ecc": 19611, "lsu": 2027, "prefetch": 3249,
}
PAPER_TABLE2 = {
    "md5": 1720, "bubblesort": 3829, "libstrstr": 1051,
    "libfibcall": 2448, "matmult": 8903,
}
PAPER_TABLE3 = {
    # structure: (max interference %, avg interference %,
    #             max compounding %, avg compounding %,
    #             max rel change %, avg rel change %)
    "alu": (0.98, 0.58, 0.17, 0.09, 3.00, 1.73),
    "decoder": (13.03, 6.73, 2.47, 1.14, 21.80, 10.45),
    "regfile": (0.13, 0.07, 0.17, 0.07, 0.69, 0.30),
    "regfile_ecc": (0.13, 0.07, 21.95, 11.57, 92.45, 50.38),
}


@lru_cache(maxsize=None)
def system(ecc: bool = False):
    return build_system(use_ecc=ecc)


def engine(benchmark: str, ecc: bool = False) -> DelayAVFEngine:
    """The shared campaign engine for one (benchmark, ecc) pair.

    Normalizes the arguments before the cache lookup so positional and
    keyword call styles share one engine (lru_cache keys them differently).
    """
    return _engine(benchmark, bool(ecc))


@lru_cache(maxsize=None)
def _engine(benchmark: str, ecc: bool) -> DelayAVFEngine:
    config = CampaignConfig(
        delay_fractions=DELAY_SWEEP,
        cycle_count=CYCLES,
        max_wires=WIRES,
        margin_cycles=2000,
        seed=0,
        jobs=JOBS,
        cache_dir=CACHE_DIR,
    )
    # The spec lets ParallelExecutor workers rebuild the session; in-process
    # the engine still shares the lru-cached system across benchmarks.
    spec = SessionSpec(
        program=load_benchmark(benchmark), config=config, ecc=ecc
    )
    return DelayAVFEngine(system(ecc), spec.program, config, spec=spec)


#: Structures the figure benches sweep together.  The figure benches need
#: the full benchmark × structure cross-product, so all 15 campaigns are
#: run as one spanning group: every Beebs workload runs on the same SoC
#: netlist, and one packed prefetch resolves the GroupACE queries of every
#: campaign in shared 64-lane words (`run_structures_spanning`).
GROUPED_STRUCTURES = ("alu", "decoder", "regfile")


@lru_cache(maxsize=None)
def _grouped_results(ecc: bool):
    from repro.core.campaign import run_structures_spanning

    engines = [engine(b, ecc) for b in BENCHMARK_NAMES]
    spanned = run_structures_spanning(
        [(eng, GROUPED_STRUCTURES) for eng in engines]
    )
    return dict(zip(BENCHMARK_NAMES, spanned))


@lru_cache(maxsize=None)
def structure_result(
    benchmark: str,
    structure: str,
    ecc: bool = False,
    delays: Optional[Tuple[float, ...]] = None,
) -> StructureCampaignResult:
    if (
        delays is None
        and structure in GROUPED_STRUCTURES
        and benchmark in BENCHMARK_NAMES
    ):
        return _grouped_results(bool(ecc))[benchmark][structure]
    return engine(benchmark, ecc).run_structure(
        structure, delay_fractions=delays
    )


@lru_cache(maxsize=None)
def ecc_regfile_result(benchmark: str, delay: float = 0.9):
    """Enlarged-sample DelayAVF campaign on the ECC register file.

    Error-producing SDFs in the (ECC) register file are rare events — the
    structure's whole point — so Fig. 10's non-zero-DelayAVF claim and
    Table III's compounding rates need a bigger wire sample than the default
    to be visible.  Shared by both benches.
    """
    return engine(benchmark, True).run_structure(
        "regfile", delay_fractions=(delay,), max_wires=4 * WIRES
    )


@lru_cache(maxsize=None)
def savf_result(benchmark: str, structure: str, ecc: bool = False):
    return SAVFEngine(engine(benchmark, ecc).session).run_structure(
        structure, max_bits=SAVF_BITS, seed=0
    )


@lru_cache(maxsize=None)
def ecc_wordline_probe(benchmark: str = "bubblesort", delay: float = 0.9):
    """Targeted word-line SDF probe on the ECC register file (Fig. 11).

    Injects gate-output faults (§IV-A's "additional wire x" model) on the
    per-register write-enable nets — the word-line analog — so a late
    enable re-latches a whole stale word.  Each stale bit alone is corrected
    by SEC, but the multi-bit set escapes: the paper's ACE-compounding
    mechanism, demonstrated deterministically rather than hoped for in a
    uniform sample.

    Returns ``(probes_with_errors, failures, compounding_failures)``.
    """
    from repro.netlist.cells import CellKind
    from repro.netlist.netlist import DriverKind

    sys_ecc = system(True)
    nl = sys_ecc.netlist
    enable_counts = {}
    for dff in nl.dffs_of_structure("core.regfile"):
        kind, cell = nl.driver_of(dff.d)
        if kind == DriverKind.CELL and nl.cell_kinds[cell] == int(CellKind.MUX2):
            sel = nl.cell_inputs[cell][2]
            enable_counts[sel] = enable_counts.get(sel, 0) + 1
    wordlines = [net for net, count in enable_counts.items() if count >= 30]

    config = CampaignConfig(
        delay_fractions=(delay,), cycle_count=25, margin_cycles=2000, seed=0
    )
    probe_engine = DelayAVFEngine(sys_ecc, load_benchmark(benchmark), config)
    session = probe_engine.session
    probes = failures = compounding = 0
    for cycle in session.sampled_cycles:
        waves = session.waveforms(cycle)
        checkpoint = session.checkpoint(cycle)
        for net in wordlines:
            if not waves.toggles(net):
                continue
            errors = sys_ecc.event_sim.resimulate_output_fault(
                waves, net, delay * sys_ecc.clock_period
            )
            if not errors:
                continue
            probes += 1
            session.group_ace.prefetch(
                checkpoint,
                [errors] + [{d: v} for d, v in errors.items()],
            )
            group = session.group_ace.outcome_of_state_errors(
                checkpoint, errors
            ).is_failure
            singles = any(
                session.group_ace.outcome_of_state_errors(
                    checkpoint, {d: v}
                ).is_failure
                for d, v in errors.items()
            )
            failures += group
            compounding += group and not singles
    return probes, failures, compounding


def save_report(name: str, text: str) -> None:
    """Print the rendered report and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
