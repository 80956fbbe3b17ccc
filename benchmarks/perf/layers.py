"""Per-layer metrics from the spans a traced rep wrote.

A span's *self* time is its duration minus the time its child spans cover.
Layer seconds sum self time over every process of the program (pool
workers included) and are reported per traced rep, at the reference pace
of :mod:`pace` like every time the benchmark reports; ``<layer>.share`` is the
layer's part of that summed self time, so the shares add up to 1.  The
coverage check uses the main process's timeline only: its top-level spans
are the traced wall time, and the self time of the harness's root markers
(``bench.*``, ``cli.main``, ``service.job``) is the part no layer accounts
for — reported as ``other``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import Dict, Iterable, List

#: span names the harness owns: their self time is time no layer covers
ROOT_MARKERS = {"bench.setup", "bench.rep", "cli.main", "service.job"}
#: span-name prefixes of the program's layers, plus ``other``
LAYERS = ("system", "golden", "plan", "guards", "static_reach",
          "dynamic_reach", "eventsim", "delayavf", "group_ace", "packed",
          "levelize", "cache", "executor", "api", "service", "other")


class Span:
    __slots__ = ("pid", "id", "parent", "name", "start", "end", "attrs",
                 "self_s", "nested")

    def __init__(self, pid: int, entry: Dict):
        self.pid = pid
        self.id = entry["id"]
        self.parent = entry["parent"]
        self.name = entry["name"]
        self.start = entry["start"]
        self.end = entry["end"]
        self.attrs = entry.get("attrs") or {}
        self.self_s = self.end - self.start
        #: whether an ancestor span has the same layer prefix
        self.nested = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Trace:
    """Every span, telemetry snapshot and process record of one rep, its
    times divided by the rep's *pace* (seconds at the reference pace)."""

    def __init__(self, directory: Path, pace: float):
        self.spans: List[Span] = []
        self.procs: List[Dict] = []
        self.counters: Dict[str, float] = defaultdict(float)
        for path in sorted(Path(directory).glob("spans-*.jsonl")):
            pid = int(path.stem.split("-", 1)[1])
            for line in path.read_text().splitlines():
                entry = json.loads(line)
                kind = entry.get("kind")
                if kind == "proc":
                    self.procs.append(entry)
                elif kind == "telemetry":
                    for name, value in entry["counters"].items():
                        self.counters[name] += value
                else:
                    entry["start"] /= pace
                    entry["end"] /= pace
                    self.spans.append(Span(pid, entry))
        self._link()

    def _link(self) -> None:
        by_key = {(s.pid, s.id): s for s in self.spans}
        for span in self.spans:
            parent = by_key.get((span.pid, span.parent))
            if parent is not None:
                parent.self_s -= span.duration
        for span in self.spans:
            parent = by_key.get((span.pid, span.parent))
            while parent is not None:
                if parent.layer == span.layer:
                    span.nested = True
                    break
                parent = by_key.get((parent.pid, parent.parent))

    @property
    def main_pids(self) -> set:
        return {p["pid"] for p in self.procs if p["role"] == "main"}

    @property
    def worker_pids(self) -> set:
        return {p["pid"] for p in self.procs if p["role"] == "worker"}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(directories: Iterable[Path], paces: Iterable[float],
                  traced_walls: List[float],
                  untraced_walls: List[float]) -> Dict[str, float]:
    """Per-layer metrics averaged over the traced reps in *directories*,
    each rep's times divided by its pace in *paces*.

    Seconds are reported only for the layers every workload enters; a
    layer a workload never enters would read exactly 0 s on every run.
    The other layers' time shows as their ``<layer>.share``.
    """
    traces = [Trace(d, pace) for d, pace in zip(directories, paces)]
    reps = max(1, len(traces))
    spans = [s for t in traces for s in t.spans]
    counters: Dict[str, float] = defaultdict(float)
    for trace in traces:
        for name, value in trace.counters.items():
            counters[name] += value

    def named(*names):
        return [s for s in spans if s.name in names]

    def self_s(*names):
        return sum(s.self_s for s in named(*names)) / reps

    def inclusive(*names):
        return sum(s.duration for s in named(*names) if not s.nested)

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    m: Dict[str, float] = {}
    m["system.builds"] = len(named("system.build")) / reps
    m["system.build_s"] = self_s("system.build")

    golden = ("golden.run", "golden.packed")
    runs = len(named("golden.run")) + attr("golden.packed", "runs")
    cycles = attr("golden.run", "cycles") + attr("golden.packed", "cycles")
    m["golden.runs"] = runs / reps
    m["golden.sim_cycles"] = cycles / reps
    m["golden.self_s"] = self_s(*golden)
    m["golden.cycles_per_s"] = _ratio(cycles, inclusive(*golden))

    m["plan.self_s"] = self_s("plan.build")
    m["guards.preflight_s"] = self_s("guards.preflight")

    static = named("static_reach.reachable_set")
    m["static_reach.calls"] = len(static) / reps
    m["static_reach.pass_ratio"] = _ratio(
        sum(1 for s in static if s.attrs.get("pass")), len(static)
    )

    m["dynamic_reach.injections"] = (
        attr("dynamic_reach.batch", "queries") / reps
    )
    m["dynamic_reach.useful_ratio"] = _ratio(
        attr("eventsim.resimulate_batch", "useful"),
        attr("eventsim.resimulate_batch", "resims"),
    )
    m["eventsim.packed_lane_occupancy"] = _ratio(
        counters["packed_cone_lanes"], counters["packed_cone_lane_slots"]
    )
    m["eventsim.scalar_fallback_lanes"] = counters["packed_scalar_lanes"] / reps

    m["delayavf.records"] = len(named("delayavf.evaluate")) / reps

    ace_runs = counters["group_ace_runs"]
    ace_hits = counters["group_ace_cache_hits"] + counters["verdict_cache_hits"]
    m["group_ace.queries"] = len(named("group_ace.outcome")) / reps
    m["group_ace.runs"] = ace_runs / reps
    m["group_ace.lane_occupancy"] = _ratio(
        counters["lanes_filled"], counters["lane_slots"]
    )
    m["group_ace.cache_hit_ratio"] = _ratio(ace_hits, ace_hits + ace_runs)

    m["packed.steps"] = len(named("packed.step")) / reps
    evals = named("levelize.evaluate")
    m["levelize.evals"] = len(evals) / reps
    m["levelize.ns_per_gate_lane"] = 1e9 * _ratio(
        inclusive("levelize.evaluate"), attr("levelize.evaluate", "gate_lanes")
    )

    gets = named("cache.get_record")
    m["cache.opens"] = len(named("cache.open")) / reps
    m["cache.flushes"] = len(named("cache.flush")) / reps
    m["cache.record_hit_ratio"] = _ratio(
        sum(1 for s in gets if s.attrs.get("hit")), len(gets)
    )

    main = set().union(*(t.main_pids for t in traces)) if traces else set()
    workers = set().union(*(t.worker_pids for t in traces)) if traces else set()
    m["executor.worker_golden_runs"] = sum(
        1 for s in named("golden.run") if s.pid in workers
    ) / reps

    m["api.engine_builds"] = len(named("api.engine_build")) / reps
    m["api.engine_build_s"] = self_s("api.engine_build")

    submits = named("service.submit")
    m["service.dedupe_ratio"] = _ratio(
        sum(1 for s in submits if s.attrs.get("deduplicated")), len(submits)
    )

    by_layer: Dict[str, float] = defaultdict(float)
    for span in spans:
        by_layer["other" if span.name in ROOT_MARKERS else span.layer] += (
            span.self_s
        )
    total = sum(by_layer.values())
    for layer in LAYERS:
        m[f"{layer}.share"] = _ratio(by_layer[layer], total)

    tops = [s for s in spans if s.pid in main and s.parent == 0]
    wall = sum(s.duration for s in tops)
    other = sum(s.self_s for s in tops if s.name in ROOT_MARKERS)
    m["other.self_s"] = other / reps
    m["trace.coverage"] = 1.0 - _ratio(other, wall)
    m["trace.overhead_ratio"] = (
        _ratio(median(traced_walls), median(untraced_walls)) - 1.0
        if traced_walls and untraced_walls else 0.0
    )
    return m
