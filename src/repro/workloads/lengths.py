"""Measured fault-free workload lengths, keyed by program signature.

The campaign session needs a workload's fault-free cycle count *before* its
instrumented golden run (the equally spaced injection cycles — and therefore
the checkpoint positions — depend on it).  On a fully cold start that used to
cost a dedicated probe run: a complete extra simulation of the workload.

Two complementary stores short-circuit the probe:

- :data:`KNOWN_LENGTHS` ships measured lengths for the five bundled BEEBS
  workloads.  Keys are content hashes
  (:func:`repro.core.cache.program_signature`), so a hint can never be
  applied to a workload whose binary image changed — editing a benchmark
  changes its signature and simply misses the table.
- :class:`LengthStore` persists measured lengths for *every* workload into
  the campaign cache directory (``lengths.json``), keyed the same way.  The
  first campaign over a constrained-random generated workload measures its
  length during the golden run and records it; every later campaign in that
  cache directory — any scope, any sampling — skips the cold probe run.

Both are *soft*: the instrumented golden run measures the true length
anyway, and if an entry turns out stale (e.g. a simulator behaviour change
under the same image), :class:`repro.core.campaign.CampaignSession` falls
back gracefully — it re-samples the injection cycles from the measured
length and re-runs the instrumented pass, i.e. a stale entry costs exactly
what the probe used to.

Regenerate the bundled table with ``python -m repro.workloads.lengths``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.fileio import atomic_write

#: Cycles a fault-free run may take before it counts as a hang: the cap of
#: every golden run, and the longest length a hint or store entry may claim.
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


class LengthStore:
    """Per-cache-dir measured workload lengths: ``lengths.json``.

    One JSON file per verdict-cache directory mapping program signatures to
    ``[cycles, observables_digest]``.  Unlike the per-scope verdict files,
    entries here are shared across campaign scopes (different margins,
    sampling, or netlists): they are advisory, exactly like the bundled
    :data:`KNOWN_LENGTHS` hints, and the session verifies them against the
    instrumented golden run with graceful re-sampling on mismatch.

    Writes are read-merge-write with an atomic replace, the same pattern
    the verdict cache uses; concurrent writers can race, but entries are
    deterministic measurements, so last-writer-wins loses nothing for
    agreeing writers and a dropped entry merely costs one future probe.
    """

    FILENAME = "lengths.json"
    SCHEMA_VERSION = 1

    def __init__(self, directory):
        self.directory = Path(directory)
        self.path = self.directory / self.FILENAME
        self._entries: Optional[Dict[str, Tuple[int, str]]] = None

    def _read(self) -> Dict[str, Tuple[int, str]]:
        try:
            with open(self.path, "r") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return {}
        if (
            not isinstance(payload, dict)
            or payload.get("schema_version") != self.SCHEMA_VERSION
            or not isinstance(payload.get("lengths"), dict)
        ):
            return {}
        entries: Dict[str, Tuple[int, str]] = {}
        for signature, value in payload["lengths"].items():
            if (
                isinstance(signature, str)
                and isinstance(value, list)
                and len(value) == 2
                and isinstance(value[0], int)
                and value[0] > 0
                and isinstance(value[1], str)
            ):
                entries[signature] = (value[0], value[1])
        return entries

    def _load(self) -> Dict[str, Tuple[int, str]]:
        if self._entries is None:
            self._entries = self._read()
        return self._entries

    def get(self, signature: str) -> Optional[Tuple[int, str]]:
        """``(cycles, observables_digest)`` for *signature*, if recorded."""
        return self._load().get(signature)

    def put(self, signature: str, cycles: int, digest: str) -> None:
        """Record a measured length; no-op when already recorded."""
        entry = (int(cycles), str(digest))
        if self._load().get(signature) == entry:
            return
        # Merge with whatever is on disk so concurrent campaigns over
        # different workloads never clobber each other's entries.
        merged = self._read()
        merged.update(self._load())
        merged[signature] = entry
        self._entries = merged
        payload = {
            "schema_version": self.SCHEMA_VERSION,
            "lengths": {
                sig: [cycles_, digest_]
                for sig, (cycles_, digest_) in sorted(merged.items())
            },
        }
        atomic_write(self.path, json.dumps(payload))


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
