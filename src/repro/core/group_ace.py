"""GroupACE (Definition 4) — the timing-agnostic step.

A set of state elements S is *GroupACE* in cycle i+1 if simultaneously
erroneous values in all of them produce a program-visible failure.  This is
decided by resuming a zero-delay simulation from a checkpoint, overwriting
the erroneous latches, running to completion, and comparing program-visible
output against the golden run.

Program-visible failures are classified as in the paper:

- **SDC** — the program produces different output (or a different exit code),
- **DUE** — the program traps or fails to halt within the cycle budget,
- **MASKED** — identical program-visible output (architecturally correct
  execution; differing *timing* alone is not a failure).

Runs exit early when the full system state (DFFs, in-flight interface
values, memory) reconverges with the golden run's per-cycle fingerprints —
the future is then provably identical, so only the output produced *so far*
needs comparing.

Every injected run rides a packed word (:class:`_LaneQueue`): a batch of
queries packs up to 64 lanes, and a lone memo miss is a one-task queue, a
one-lane word.  The tests' scalar reference (``tests/helpers.run_injected``)
decides each injection with one readable run of its own simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.telemetry import CampaignTelemetry
from repro.isa.assembler import Program
from repro.sim.cyclesim import Checkpoint, RunResult
from repro.sim.packed import MAX_LANES, PackedCycleSimulator


class Outcome(enum.Enum):
    """Program-level outcome of one injection."""

    MASKED = "masked"
    SDC = "sdc"
    DUE = "due"

    @property
    def is_failure(self) -> bool:
        """Whether this outcome is a program-visible failure."""
        return self is not Outcome.MASKED


class GroupAceAnalyzer:
    """Decides GroupACE-ness of state-element error sets for one workload."""

    def __init__(
        self,
        system,
        program: Program,
        golden: RunResult,
        margin_cycles: int = 3000,
        verdict_cache=None,
        telemetry: Optional[CampaignTelemetry] = None,
    ):
        if not golden.fingerprints or golden.dff_rows is None:
            raise ValueError("golden run must be recorded with fingerprints")
        self.system = system
        self.program = program
        self.golden = golden
        self.margin_cycles = margin_cycles
        #: optional persistent store (:class:`repro.core.cache.VerdictCache`)
        self.verdict_cache = verdict_cache
        self.telemetry = telemetry if telemetry is not None else CampaignTelemetry()
        self._cache: Dict[Tuple, Outcome] = {}
        self._packed: PackedCycleSimulator = system.simulator().word

    # ------------------------------------------------------------------
    def outcome_of_state_errors(
        self,
        checkpoint: Checkpoint,
        overrides: Dict[int, int],
        at_next_boundary: bool = True,
    ) -> Outcome:
        """Outcome of forcing *overrides* (DFF index → value) into the state.

        With ``at_next_boundary=True`` (the delay-fault case) the checkpoint
        cycle is first re-simulated fault-free and the erroneous values are
        applied at the following clock edge — where an SDF in that cycle
        would deposit them.  With ``False`` (the particle-strike case) the
        overrides are applied directly at the checkpoint boundary.

        Resolution order: the in-memory cache, then a one-task
        :meth:`prefetch`: the persistent verdict cache (if configured), then
        an injected run in a one-lane word, whose verdict is written back to
        both.
        """
        if not overrides:
            return Outcome.MASKED
        items = tuple(sorted(overrides.items()))
        key = (checkpoint.cycle, at_next_boundary, items)
        cached = self._cache.get(key)
        if cached is None:
            self.prefetch(checkpoint, [overrides], at_next_boundary)
            return self._cache[key]
        self.telemetry.incr("group_ace_cache_hits")
        return cached

    def is_group_ace(
        self, checkpoint: Checkpoint, overrides: Dict[int, int]
    ) -> bool:
        """GroupACE(S, i+1) for the dynamically reachable set *overrides*."""
        return self.outcome_of_state_errors(checkpoint, overrides).is_failure

    # ------------------------------------------------------------------
    def prefetch(
        self,
        checkpoint: Checkpoint,
        sets: Sequence[Dict[int, int]],
        at_next_boundary: bool = True,
        lanes: int = MAX_LANES,
    ) -> None:
        """Batch-resolve many error sets into the cache (lane-parallel).

        Deduplicates against the cache and within *sets*, then runs the
        remaining unique injections through one packed word of up to
        *lanes* lanes, each lane taking the next injection once its run
        resolves (:func:`prefetch_spanning_multi`).  Subsequent
        :meth:`outcome_of_state_errors` calls for these sets are memo hits.

        Campaigns always pack :data:`MAX_LANES` wide; narrower *lanes* serve
        the width ablation and the refill tests.  Raises
        ``ValueError`` for a width outside ``1..MAX_LANES`` (a programming
        error, not something to silently clamp).
        """
        self.prefetch_spanning(
            [(checkpoint, overrides) for overrides in sets],
            at_next_boundary=at_next_boundary,
            lanes=lanes,
        )

    def prefetch_spanning(
        self,
        items: Sequence[Tuple[Checkpoint, Dict[int, int]]],
        at_next_boundary: bool = True,
        lanes: int = MAX_LANES,
    ) -> None:
        """Batch-resolve error sets spanning *different* checkpoints.

        The lane dimension packs across the whole campaign, not just within
        one cycle: zero-delay simulation is Markovian, so lanes starting at
        different checkpoints (each with its own environment, inputs, and
        cycle counter) share one packed word.  This is what fills 64-wide
        words when any single cycle only contributes a handful of unique
        error sets.  Deduplication, verdict-cache flow, and outcomes are
        identical to per-checkpoint :meth:`prefetch`.  (For packing across
        *different analyzers* — several workloads sharing one netlist — see
        :func:`prefetch_spanning_multi`.)
        """
        prefetch_spanning_multi(
            [(self, items)], at_next_boundary=at_next_boundary, lanes=lanes
        )

    def _dedup_items(
        self,
        items: Sequence[Tuple[Checkpoint, Dict[int, int]]],
        at_next_boundary: bool,
    ) -> List["_LaneTask"]:
        """Filter *items* against the caches; return unresolved lane tasks."""
        unique: List[_LaneTask] = []
        seen = set()
        for checkpoint, overrides in items:
            if not overrides:
                continue
            key_items = tuple(sorted(overrides.items()))
            key = (checkpoint.cycle, at_next_boundary, key_items)
            if key in self._cache or key in seen:
                continue
            if self.verdict_cache is not None:
                persisted = self.verdict_cache.lookup(
                    checkpoint.cycle, at_next_boundary, key_items
                )
                if persisted is not None:
                    self.telemetry.incr("verdict_cache_hits")
                    self._cache[key] = persisted
                    continue
            seen.add(key)
            unique.append(_LaneTask(self, key, checkpoint, dict(overrides)))
        return unique

    def _store_outcome(
        self, task: "_LaneTask", outcome: Outcome, at_next_boundary: bool
    ) -> None:
        self._cache[task.key] = outcome
        if self.verdict_cache is not None:
            self.verdict_cache.store(
                task.key[0], at_next_boundary, task.key[2], outcome
            )


@dataclass
class _LaneTask:
    """One unresolved injection: its analyzer, cache key, and inputs."""

    analyzer: GroupAceAnalyzer
    key: Tuple
    checkpoint: Checkpoint
    overrides: Dict[int, int]


def prefetch_spanning_multi(
    groups: Sequence[
        Tuple[GroupAceAnalyzer, Sequence[Tuple[Checkpoint, Dict[int, int]]]]
    ],
    at_next_boundary: bool = True,
    lanes: int = MAX_LANES,
) -> None:
    """Batch-resolve error sets spanning different *analyzers*.

    The widest packing: analyzers for different workloads (programs) share
    one netlist — everything program-specific lives in the per-lane
    environment — so their injected runs pack into the same 64-lane word.
    Each lane converges against the golden fingerprints, budget, and
    observables of *its own* workload; deduplication, verdict-cache flow,
    and outcomes per analyzer are identical to :meth:`prefetch_spanning`.

    Each netlist's unresolved injections form one queue, longest first, run
    by one word of ``min(lanes, len(queue))`` lanes (:class:`_LaneQueue`):
    a lane whose run resolves takes the next queued injection.  Analyzers
    whose netlist differs from the first group's (e.g. an ECC variant among
    plain ones) get their own queue rather than being rejected.

    Telemetry: per queue, ``lane_batches`` (words), ``lanes_filled``
    (active lane-steps), ``lane_slots`` (width × word-steps) and
    ``lane_refills`` go to the queue's first analyzer, so its
    ``lanes_filled / lane_slots`` is the word's time-integrated occupancy;
    ``group_ace_runs`` goes to each run's own analyzer.
    """
    lanes = int(lanes)
    if not 1 <= lanes <= MAX_LANES:
        raise ValueError(f"lanes must be in 1..{MAX_LANES}, got {lanes}")
    tasks: List[_LaneTask] = []
    for analyzer, items in groups:
        tasks.extend(analyzer._dedup_items(items, at_next_boundary))
    # Partition by netlist identity: lanes can only share a packed word when
    # they share the value-array geometry.
    by_netlist: Dict[int, List[_LaneTask]] = {}
    for task in tasks:
        netlist = task.analyzer._packed.netlist
        by_netlist.setdefault(id(netlist), []).append(task)
    for queue in by_netlist.values():
        # Longest lanes first, so the word's last steps are not spent on
        # one long run after the queue has drained.
        queue.sort(key=lambda t: t.checkpoint.cycle - t.analyzer.golden.cycles)
        outcomes = _LaneQueue(queue, at_next_boundary, lanes).run()
        for task, outcome in zip(queue, outcomes):
            task.analyzer.telemetry.incr("group_ace_runs")
            task.analyzer._store_outcome(task, outcome, at_next_boundary)


class _LaneQueue:
    """One packed word running a queue of injections, refilling retired lanes.

    Each lane decides its injection as one scalar run would (the tests'
    ``helpers.run_injected``): the same checks, halt handling and DUE
    budget at the same (per-lane absolute) cycle boundaries, against the
    golden run of the injection's own analyzer.  With ``at_next_boundary``
    a freshly loaded lane makes its fault-free pre-step on the next
    word-step, takes its overrides after it, and is not checked before
    then.  Past its golden run's end a lane can only halt or reach its
    budget, so it is not checked there.  A one-task queue is a one-lane
    word.

    The convergence check starts with one bit-sliced pass over the whole
    word.  Lanes loaded from one checkpoint stay in lockstep, so one golden
    DFF row per (golden run, cycle) group, times the group's lane mask,
    builds the expected DFF word; one XOR with the word and one OR-reduce
    flag every lane whose DFFs differ from its golden state.  Only the
    others pay the full state fingerprint.
    """

    def __init__(
        self, tasks: Sequence[_LaneTask], at_next_boundary: bool, lanes: int
    ):
        self.tasks = tasks
        self.at_next_boundary = at_next_boundary
        self.width = width = min(lanes, len(tasks))
        self.psim: PackedCycleSimulator = tasks[0].analyzer._packed
        self.outcomes: List[Optional[Outcome]] = [None] * len(tasks)
        self._queued = iter(range(len(tasks)))
        #: per lane: the index of the task it runs (-1 once retired), and
        #: that task's analyzer, golden length and DUE budget
        self.lane_task = [-1] * width
        self.analyzers: List[Optional[GroupAceAnalyzer]] = [None] * width
        self.golden_ends = [0] * width
        self.budgets = [0] * width
        #: lanes whose fault-free pre-step is still to come (bitmask)
        self.pending = 0
        self.steps = 0
        self.lane_steps = 0
        self.refills = 0

    def run(self) -> List[Outcome]:
        psim = self.psim
        first = [next(self._queued) for _ in range(self.width)]
        psim.load_lanes(
            [(self.tasks[i].checkpoint, self._make_env(i)) for i in first]
        )
        for lane, index in enumerate(first):
            self._start(lane, index)
        check = list(range(self.width))
        while True:
            # Check every lane at its boundary, then the lanes that took a
            # new injection meanwhile (they start at this boundary too).
            while check:
                check = self._check(
                    [lane for lane in check if not self.pending >> lane & 1]
                )
            running = [
                lane for lane, index in enumerate(self.lane_task) if index >= 0
            ]
            if not running:
                break
            psim.step()
            self.steps += 1
            self.lane_steps += len(running)
            for lane in running:
                bit = 1 << lane
                if self.pending & bit:
                    self.pending ^= bit
                    overrides = self.tasks[self.lane_task[lane]].overrides
                    psim.override_lane_dffs(lane, overrides)
                    check.append(lane)
                elif psim.envs[lane].halted():
                    if self._resolve(lane, self._halt_outcome(lane)):
                        check.append(lane)
                else:
                    check.append(lane)
        owner = self.tasks[0].analyzer.telemetry
        owner.incr("lane_batches")
        owner.incr("lanes_filled", self.lane_steps)
        owner.incr("lane_slots", self.width * self.steps)
        owner.incr("lane_refills", self.refills)
        return self.outcomes

    # ------------------------------------------------------------------
    def _make_env(self, index: int):
        analyzer = self.tasks[index].analyzer
        return analyzer.system.make_env(analyzer.program)

    def _start(self, lane: int, index: int) -> None:
        """Bookkeeping for a lane just loaded with task *index*."""
        task = self.tasks[index]
        analyzer = task.analyzer
        self.lane_task[lane] = index
        self.analyzers[lane] = analyzer
        self.golden_ends[lane] = len(analyzer.golden.fingerprints)
        self.budgets[lane] = analyzer.golden.cycles + analyzer.margin_cycles
        if self.at_next_boundary:
            self.pending |= 1 << lane
        else:
            self.psim.override_lane_dffs(lane, task.overrides)

    def _resolve(self, lane: int, outcome: Outcome) -> bool:
        """Record a lane's outcome and refill the lane from the queue.

        Returns whether the lane took an injection that is checked at this
        boundary (one without a pre-step to come).
        """
        self.outcomes[self.lane_task[lane]] = outcome
        index = next(self._queued, None)
        if index is None:
            self.lane_task[lane] = -1
            self.psim.retire_lane(lane)
            return False
        self.psim.refill_lane(
            lane, self.tasks[index].checkpoint, self._make_env(index)
        )
        self.refills += 1
        self._start(lane, index)
        return not self.at_next_boundary

    def _halt_outcome(self, lane: int) -> Outcome:
        produced = self.psim.envs[lane].observables()
        if produced == self.analyzers[lane].golden.observables:
            return Outcome.MASKED
        if any(e and e[0] == "trap" for e in produced):
            return Outcome.DUE
        return Outcome.SDC

    def _check(self, lanes: Sequence[int]) -> List[int]:
        """Boundary checks of *lanes*; returns the lanes refilled to check."""
        cycles = self.psim.lane_cycles
        resolved: List[Tuple[int, Outcome]] = []
        converging: List[int] = []
        for lane in lanes:
            cycle = cycles[lane]
            if cycle < self.golden_ends[lane]:
                converging.append(lane)
            elif cycle >= self.budgets[lane]:
                resolved.append((lane, Outcome.DUE))
        if converging:
            resolved.extend(self._converged(converging))
        return [
            lane for lane, outcome in resolved if self._resolve(lane, outcome)
        ]

    def _converged(self, lanes: Sequence[int]) -> List[Tuple[int, Outcome]]:
        psim = self.psim
        cycles = psim.lane_cycles
        groups: Dict[Tuple[int, int], List] = {}
        for lane in lanes:
            golden = self.analyzers[lane].golden
            key = (id(golden), cycles[lane])
            group = groups.get(key)
            if group is None:
                groups[key] = [golden.dff_rows[key[1]], 1 << lane]
            else:
                group[1] |= 1 << lane
        rows = np.unpackbits(
            np.stack([row for row, _ in groups.values()]),
            axis=1, count=psim.netlist.num_dffs,
        )
        masks = np.array(
            [mask for _, mask in groups.values()], dtype=psim.dtype
        )
        expected = np.bitwise_or.reduce(rows * masks[:, None], axis=0)
        differ = int(np.bitwise_or.reduce(expected ^ psim.dff_values))
        resolved = []
        for lane in lanes:
            if differ >> lane & 1:
                continue
            golden = self.analyzers[lane].golden
            fingerprint = golden.fingerprints[cycles[lane]]
            if psim.lane_fingerprint(lane) != fingerprint:
                continue
            produced = psim.envs[lane].observables()
            resolved.append((
                lane,
                Outcome.MASKED
                if produced == golden.observables[: len(produced)]
                else Outcome.SDC,
            ))
        return resolved
