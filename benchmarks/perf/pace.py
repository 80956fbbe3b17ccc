"""The host's pace: how long fixed reference units of work take, over time.

On a shared host the CPUs a run gets change speed from one second to the
next and drift through slower phases that last minutes, each CPU on its
own.  Every time the benchmark measures (wall, CPU, set-up) moves with
them: the same run read up to twice as long in a slow phase.  While a run
measures, :class:`Pace` keeps one probe process on each CPU the workload
runs on.  A probe times one reference unit of work, then sleeps
``SLEEP_PER_UNIT`` times as long, so it takes the same 5 % share of its CPU
whatever the host's speed.  It cycles through the :data:`UNITS`, which are
shaped like the program's own work: bit-plane word operations over
gathered fan-ins, interpreter-bound loops over lists and dicts, small
objects built and dropped, and a record batch serialised, hashed and
parsed.  Different kinds of work slow down by different amounts; no single
unit tracked every workload, and their mix tracked them best.

The pace of a window is the geometric mean, over the units, of a unit's
mean time in the window as a multiple of its reference time.  A time
measured over the window divided by the window's pace reads in seconds at
the reference pace.

Run alone, this prints the host's current pace::

    python3 benchmarks/perf/pace.py
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import select
import signal
import subprocess
import sys
import time
from statistics import mean
from typing import Dict, List, Sequence

import numpy as np

#: a probe sleeps this many times its last unit's time between two units
SLEEP_PER_UNIT = 19
#: fewest samples of each unit a window's pace is taken over; shorter
#: windows widen
MIN_UNITS = 5
#: how far a short window widens on each side per step
WIDEN_S = 0.05

_RNG = np.random.default_rng(12345)
_A = _RNG.integers(0, 2 ** 63, size=2048, dtype=np.uint64)
_B = _RNG.integers(0, 2 ** 63, size=2048, dtype=np.uint64)
_FANIN = _RNG.integers(0, 2048, size=2048)
_ONE = np.uint64(1)
_VALUES = list(range(4096))
_BATCH = {"records": [
    {"wire_index": i, "cycle": i % 97, "delay_fraction": 0.5,
     "outcome": "MASKED", "num_errors": i % 3} for i in range(60)
]}
_BIG_BATCH = {"records": _BATCH["records"] * 4}


def _tally(count: int) -> int:
    counts: Dict[int, int] = {}
    total = 0
    for i in range(count):
        value = _VALUES[(i * 7919) & 4095]
        counts[value & 255] = counts.get(value & 255, 0) + value
        total += value
    return total


def _planes(rounds: int) -> None:
    planes = _A
    for _ in range(rounds):
        planes = (planes ^ _B[_FANIN]) & (_A | (planes >> _ONE))


def _batch(batch: Dict) -> None:
    blob = json.dumps(batch, sort_keys=True).encode()
    hashlib.sha256(blob).digest()
    json.loads(blob)


class _Node:
    __slots__ = ("index", "pair", "fanout")

    def __init__(self, index, pair, fanout):
        self.index, self.pair, self.fanout = index, pair, fanout


def mixed() -> None:
    """A little of every kind of work."""
    _planes(4)
    _batch(_BATCH)
    _tally(1000)


def interpreter() -> None:
    _tally(3000)


def bit_planes() -> None:
    _planes(16)


def records() -> None:
    _batch(_BIG_BATCH)


def objects() -> None:
    nodes = [_Node(i, (i, i + 1), [i]) for i in range(1500)]
    sum(node.index for node in nodes if node.pair[0] & 1)


def long_mixed() -> None:
    """Three mixed units in a row: long enough to be cut by the host."""
    for _ in range(3):
        mixed()


#: (unit, its time at the reference pace): round figures near the median
#: unit times the baseline host gave while the workloads ran (see the
#: ledger's host fields)
UNITS = (
    (mixed, 0.94e-3),
    (interpreter, 0.87e-3),
    (bit_planes, 0.26e-3),
    (records, 1.46e-3),
    (objects, 1.35e-3),
    (long_mixed, 2.34e-3),
)


def run_cpus() -> List[int]:
    """The CPUs a run may use: the first ``nproc`` = 2 this process may run
    on (one on a single-CPU host)."""
    return sorted(os.sched_getaffinity(0))[:2]


def _probe(cpu: int) -> int:
    """Time one unit at a time on *cpu* until SIGTERM or until the parent
    dies; then print ``[[start, seconds, unit index], ...]``."""
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    stop: List[bool] = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    for _ in range(5):
        for unit, _ in UNITS:
            unit()  # first calls pay for allocation and lookups
    print("ready", flush=True)
    samples = []
    seconds = UNITS[0][1]
    index = 0
    while not stop and os.getppid() == parent:
        time.sleep(SLEEP_PER_UNIT * seconds)
        start = time.perf_counter()
        UNITS[index][0]()
        seconds = time.perf_counter() - start
        samples.append((start, seconds, index))
        index = (index + 1) % len(UNITS)
    json.dump(samples, sys.stdout)
    return 0


class Pace:
    """Probes on *cpus* for the life of a ``with`` block; afterwards,
    :meth:`of` gives the pace of any window inside it."""

    def __init__(self, cpus: Sequence[int]):
        self.cpus = list(cpus)
        self._procs: List[subprocess.Popen] = []
        #: per unit: its samples' start times and their seconds, in order
        self._starts: List[List[float]] = [[] for _ in UNITS]
        self._seconds: List[List[float]] = [[] for _ in UNITS]

    def __enter__(self) -> "Pace":
        try:
            for cpu in self.cpus:
                self._procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), "probe",
                     str(cpu)],
                    stdout=subprocess.PIPE, text=True,
                ))
            for proc in self._procs:
                ready, _, _ = select.select([proc.stdout], [], [], 60.0)
                if not ready or proc.stdout.readline().strip() != "ready":
                    raise RuntimeError("a pace probe did not start")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        samples = []
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            try:
                out, _ = proc.communicate(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            if proc.returncode == 0 and out.strip():
                samples += json.loads(out)
        for start, seconds, index in sorted(samples):
            self._starts[index].append(start)
            self._seconds[index].append(seconds)

    def _unit_mean(self, index: int, low: float, high: float) -> float:
        """Mean time of unit *index* over ``[low, high]``, widened until it
        holds MIN_UNITS samples."""
        starts, seconds = self._starts[index], self._seconds[index]
        if len(starts) < MIN_UNITS:
            raise RuntimeError(
                f"pace probes on CPUs {self.cpus} recorded {len(starts)} "
                f"samples of {UNITS[index][0].__name__}"
            )
        while True:
            window = seconds[bisect.bisect_left(starts, low):
                             bisect.bisect_right(starts, high)]
            if len(window) >= MIN_UNITS:
                return mean(window)
            low, high = low - WIDEN_S, high + WIDEN_S

    def of(self, start: float, seconds: float) -> float:
        """The pace over ``[start, start + seconds]`` on every probed CPU:
        the geometric mean over the units of their mean time there as a
        multiple of their reference time."""
        logs = [
            math.log(self._unit_mean(index, start, start + seconds)
                     / reference)
            for index, (_, reference) in enumerate(UNITS)
        ]
        return math.exp(mean(logs))


if __name__ == "__main__":
    if sys.argv[1:2] == ["probe"]:
        raise SystemExit(_probe(int(sys.argv[2])))
    with Pace(run_cpus()) as pace:
        started = time.perf_counter()
        time.sleep(5.0)
    print(f"pace {pace.of(started, 5.0):.3f} (1 = the reference unit times)")
