"""The zero-delay cycle simulator: up to 64 runs of one netlist per word.

This is the repo's stand-in for the Verilator stage of the paper's flow: a
2-state, cycle-accurate simulator used for

- the fault-free *golden* run of a workload (recording per-cycle state
  fingerprints, checkpoints at sampled cycles, and the program-visible
  output), and
- *GroupACE* runs, which restart from a checkpoint, overwrite the state
  elements in a dynamically reachable set with their erroneous latched
  values, and compare the resulting program-visible behaviour against the
  golden run.

The circuit interacts with behavioural components (memories, the halt/output
protocol) through an :class:`Environment`: output ports are sampled after the
combinational logic settles and the environment produces the values driven
into the input ports for the *next* cycle — i.e. every external interface is
register-latched, so a delay fault can only ever corrupt DFFs (the paper's
state-element error model).

Runs of one netlist differ only in their state bits and environments, so up
to :data:`MAX_LANES` of them ride in the bit-planes of the value arrays
(classic parallel fault simulation) and one ``EvalPlan.evaluate`` pass
settles them all (inversions become XOR-with-mask, everything else is
already bitwise).  The word width follows the lane count: up to 8 lanes ride
in uint8 arrays, anything wider in uint64.  A single run is a one-lane word,
uint8 with mask 1, whose arrays hold plain 0/1 values; that is what
:class:`repro.sim.cyclesim.CycleSimulator` wraps.  Every golden run, at any
lane count, comes from :meth:`PackedCycleSimulator.run`.
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.netlist import Netlist
from repro.sim.levelize import EvalPlan, levelize

#: Bit-planes available in a uint64 value array.
MAX_LANES = 64


class Environment(abc.ABC):
    """Behavioural components surrounding the netlist (memories, MMIO).

    The simulator calls :meth:`step` once per cycle with the sampled output
    port values; the returned dict provides the input-port values for the
    next cycle.  Implementations must support snapshot/restore (for
    checkpointing) and expose an incremental *fingerprint* so that state
    convergence between an injected run and the golden run can be detected
    cheaply.
    """

    @abc.abstractmethod
    def reset(self) -> Dict[str, int]:
        """Reset internal state; return initial input-port values."""

    @abc.abstractmethod
    def step(self, outputs: Dict[str, int], cycle: int) -> Dict[str, int]:
        """React to this cycle's sampled outputs; return next inputs."""

    @abc.abstractmethod
    def snapshot(self) -> Any:
        """Return an opaque deep snapshot of the environment state."""

    @abc.abstractmethod
    def restore(self, snap: Any) -> None:
        """Restore a snapshot previously produced by :meth:`snapshot`."""

    @abc.abstractmethod
    def fingerprint(self) -> int:
        """A value that is equal iff the environment state is equal (w.h.p.)."""

    @abc.abstractmethod
    def observables(self) -> Tuple[Any, ...]:
        """The program-visible output produced so far (stores, halt, traps)."""

    @abc.abstractmethod
    def halted(self) -> bool:
        """Whether the program has signalled completion (or a trap)."""


@dataclass
class Checkpoint:
    """Everything needed to restart at — and event-simulate — cycle ``cycle``."""

    cycle: int
    dff_values: np.ndarray  #: Q values at the start of the cycle
    input_values: Dict[str, int]  #: input-port values during the cycle
    env_snapshot: Any
    prev_settled: np.ndarray  #: settled net values of the previous cycle


@dataclass
class RunResult:
    """Outcome of a (golden or injected) simulation run."""

    cycles: int
    halted: bool
    observables: Tuple[Any, ...]
    fingerprints: List[int] = field(default_factory=list)
    checkpoints: Dict[int, Checkpoint] = field(default_factory=dict)
    #: recorded with the fingerprints: row ``i`` is the DFF state at the
    #: start of cycle ``i`` as one :func:`np.packbits` row (see
    #: :class:`DffRows`), so a word of injected lanes can be compared
    #: against it bit-sliced
    dff_rows: Optional[np.ndarray] = None


class DffRows:
    """A run's per-cycle DFF states as packed rows, one row list per lane.

    :meth:`append` takes each cycle's whole DFF word.  Every :attr:`BLOCK`
    words are packed, each lane's bit-plane into ``np.packbits`` rows, and
    dropped, so a run keeps at most that many words besides its rows.
    """

    BLOCK = 1024

    def __init__(self, lanes: int = 1):
        self._words: List[np.ndarray] = []
        self._rows: List[List[np.ndarray]] = [[] for _ in range(lanes)]

    def append(self, dff_values: np.ndarray) -> None:
        self._words.append(dff_values)
        if len(self._words) == self.BLOCK:
            self._pack()

    def lane(self, lane: int = 0) -> np.ndarray:
        """Lane *lane*'s rows, one per appended word."""
        self._pack()
        return np.concatenate(self._rows[lane])

    def _pack(self) -> None:
        if not self._words:
            return
        block = np.stack(self._words)
        self._words.clear()
        for lane, rows in enumerate(self._rows):
            bits = (block >> block.dtype.type(lane)) & 1
            rows.append(np.packbits(bits, axis=1))


class PackedCycleSimulator:
    """Simulates up to :data:`MAX_LANES` divergent runs of one netlist."""

    def __init__(self, netlist: Netlist, plan: Optional[EvalPlan] = None):
        if not netlist.frozen:
            netlist.freeze()
        self.netlist = netlist
        self.plan = plan if plan is not None else levelize(netlist)
        self._q_nets = np.array([d.q for d in netlist.dffs], dtype=np.int64)
        self._d_nets = np.array([d.d for d in netlist.dffs], dtype=np.int64)
        #: the DFFs' reset values, 0/1
        self.init_values = np.array(
            [d.init for d in netlist.dffs], dtype=np.uint8
        )
        self._in_ports = {
            name: (
                np.array(nets, dtype=np.int64),
                np.arange(len(nets), dtype=np.uint64),
            )
            for name, nets in netlist.input_ports.items()
        }
        # Output ports gather as one (ports, 64) index array, each port
        # padded with net 0 (constant 0), so every port reads as one word.
        self._out_names = tuple(netlist.output_ports)
        self._out_index = np.zeros((len(self._out_names), 64), dtype=np.int64)
        for row, nets in enumerate(netlist.output_ports.values()):
            if len(nets) > 64:
                raise ValueError(
                    f"output port wider than 64 bits: {len(nets)}"
                )
            self._out_index[row, : len(nets)] = nets
        self._begin(1)

    # ------------------------------------------------------------------
    def _begin(self, lanes: int) -> None:
        """Start an empty word of *lanes* active lanes: all-zero state, no
        environments, every lane at cycle 0."""
        if not 1 <= lanes <= MAX_LANES:
            raise ValueError(f"1..{MAX_LANES} lanes supported, got {lanes}")
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        # The narrowest word that holds the lanes: uint8 up to 8, else uint64.
        self.dtype = np.dtype(np.uint8 if lanes <= 8 else np.uint64)
        self._lane_shifts = np.arange(lanes, dtype=np.uint64)
        self.values = np.zeros(self.netlist.num_nets, dtype=self.dtype)
        self.dff_values = np.zeros(self.netlist.num_dffs, dtype=self.dtype)
        self.envs: List[Optional[Environment]] = [None] * lanes
        self.lane_inputs: List[Dict[str, int]] = [{} for _ in range(lanes)]
        #: per-lane cycle counters — lanes loaded from different checkpoints
        #: (see :meth:`load_lanes`) advance in lock-step but live at
        #: different absolute cycles
        self.lane_cycles = [0] * lanes
        self._active = list(range(lanes))

    def load_lanes(
        self, lanes: Sequence[Tuple[Checkpoint, Environment]]
    ) -> None:
        """Load one ``(checkpoint, environment)`` pair per lane.

        Lanes may come from *different* checkpoints — and even different
        *programs*, as long as they run on the same netlist: the zero-delay
        cycle simulation is Markovian (next state depends only on current
        state and inputs), and everything program-specific lives in the
        per-lane environment.  Each lane keeps its own environment, input
        values, and cycle counter; :meth:`step` advances them all by one
        cycle of *their own* timeline.
        """
        self._begin(len(lanes))
        for lane, (checkpoint, env) in enumerate(lanes):
            self.refill_lane(lane, checkpoint, env)

    def load_reset(self, envs: Sequence[Environment]) -> None:
        """Start one lane per environment from the circuit's reset state.

        Every lane begins at cycle 0 with the netlist's DFF init values and
        the input-port values its own environment's ``reset()`` returns.
        After loading, :meth:`settle` makes the boundary-0 settled values
        observable (a cycle-0 checkpoint's ``prev_settled``).
        """
        self._begin(len(envs))
        self.dff_values = self.init_values.astype(self.dtype) * self.mask
        self.envs = list(envs)
        self.lane_inputs = [dict(env.reset()) for env in self.envs]

    def load_state(
        self, dff_values: np.ndarray, input_values: Dict[str, int]
    ) -> None:
        """One lane at the 0/1 *dff_values* and *input_values*, with no
        environment: enough to :meth:`settle`, not to :meth:`step`."""
        self._begin(1)
        self.dff_values = np.asarray(dff_values, dtype=np.uint8).copy()
        self.lane_inputs = [dict(input_values)]

    def retire_lane(self, lane: int) -> None:
        """Stop stepping one lane's environment (its outcome is decided).

        The lane's bit-plane keeps riding along in the packed word (masking
        it out of every value array would cost more than it saves), but its
        environment is no longer stepped and its ports are no longer packed
        or unpacked — the plane's contents become don't-care garbage that no
        active lane can observe (planes are independent by construction).
        """
        if lane in self._active:
            self._active.remove(lane)

    def refill_lane(
        self, lane: int, checkpoint: Checkpoint, env: Environment
    ) -> None:
        """Start a new run from *checkpoint* in one lane of the loaded word.

        Writes the checkpoint's DFF bits into this lane's bit-plane only,
        restores *env* to the checkpoint's snapshot as the lane's
        environment, sets the lane's inputs and cycle, and makes the lane
        active again.  Width, dtype and mask stay as loaded; the other lanes
        are untouched.
        """
        if not 0 <= lane < self.lanes:
            raise ValueError(f"lane {lane} outside the loaded {self.lanes}")
        word = self.dtype.type
        self.dff_values &= ~word(1 << lane)
        plane = checkpoint.dff_values.astype(self.dtype) << word(lane)
        self.dff_values |= plane
        env.restore(checkpoint.env_snapshot)
        self.envs[lane] = env
        self.lane_inputs[lane] = dict(checkpoint.input_values)
        self.lane_cycles[lane] = checkpoint.cycle
        if lane not in self._active:
            bisect.insort(self._active, lane)

    def override_lane_dffs(self, lane: int, overrides: Dict[int, int]) -> None:
        """Force DFF bits in one lane only (the per-lane injected errors)."""
        bit = 1 << lane
        keep = int(np.iinfo(self.dtype).max) ^ bit
        for index, value in overrides.items():
            if value & 1:
                self.dff_values[index] |= bit
            else:
                self.dff_values[index] &= keep

    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Settle combinational logic for the current state of every lane."""
        values = self.values
        values[self._q_nets] = self.dff_values
        for name, (nets, shifts) in self._in_ports.items():
            active = self._active
            first = self.lane_inputs[active[0]].get(name, 0)
            if all(
                self.lane_inputs[lane].get(name, 0) == first for lane in active
            ):
                # Active lanes agree (the overwhelmingly common case):
                # replicate the shared 0/1 bits into every plane in one pass.
                packed = ((first >> shifts) & 1).astype(self.dtype)
                packed *= self.dtype.type(self.mask)
            else:
                words = np.array(
                    [self.lane_inputs[lane].get(name, 0) for lane in active],
                    dtype=np.uint64,
                )
                lane_bits = self._lane_shifts[active, None]
                planes = ((words[:, None] >> shifts[None, :]) & 1) << lane_bits
                packed = np.bitwise_or.reduce(planes, axis=0).astype(self.dtype)
            values[nets] = packed
        self.plan.evaluate(values, mask=self.mask)

    def lane_outputs(self) -> Dict[int, Dict[str, int]]:
        """Output-port words for every *active* lane, from one gather.

        The gathered ``(ports, 64)`` word array is transposed exactly into
        ``(lanes, ports)`` integers: its bytes unpack into bits with the
        lane last, and the bits of each (lane, port) pack back into one
        little-endian 64-bit word.
        """
        gathered = self.values[self._out_index].astype(
            self.dtype.newbyteorder("<"), copy=False
        )
        bits = np.unpackbits(
            gathered.view(np.uint8).reshape(*gathered.shape, -1),
            axis=-1, bitorder="little",
        )[..., self._active]
        words = np.packbits(
            bits.transpose(2, 0, 1), axis=-1, bitorder="little"
        ).view("<u8")[..., 0]
        return {
            lane: dict(zip(self._out_names, row))
            for lane, row in zip(self._active, words.tolist())
        }

    def step(self) -> Dict[int, Dict[str, int]]:
        """Advance all active lanes by one cycle (each lane steps its own
        env); returns each active lane's sampled output-port values."""
        self.settle()
        next_dff = self.values[self._d_nets]
        outputs = self.lane_outputs()
        for lane, sampled in outputs.items():
            self.lane_inputs[lane] = dict(
                self.envs[lane].step(sampled, self.lane_cycles[lane])
            )
            self.lane_cycles[lane] += 1
        self.dff_values = next_dff
        return outputs

    # ------------------------------------------------------------------
    def lane_dff_values(self, lane: int) -> np.ndarray:
        return ((self.dff_values >> lane) & 1).astype(np.uint8)

    def lane_settled_values(self, lane: int) -> np.ndarray:
        """One lane's settled net values as a scalar 0/1 uint8 array."""
        return ((self.values >> lane) & 1).astype(np.uint8)

    def lane_fingerprint(self, lane: int) -> int:
        """Fingerprint of one lane's whole system state at its boundary:
        its DFF bits, its input-port values and its environment."""
        inputs_key = tuple(sorted(self.lane_inputs[lane].items()))
        return hash(
            (
                self.lane_dff_values(lane).tobytes(),
                inputs_key,
                self.envs[lane].fingerprint(),
            )
        )

    def lane_checkpoint(self, lane: int) -> Checkpoint:
        """One lane's state at its current boundary; its ``prev_settled``
        is the word's last settled values (the cycle the lane just left)."""
        return Checkpoint(
            cycle=self.lane_cycles[lane],
            dff_values=self.lane_dff_values(lane),
            input_values=dict(self.lane_inputs[lane]),
            env_snapshot=self.envs[lane].snapshot(),
            prev_settled=self.lane_settled_values(lane),
        )

    # ------------------------------------------------------------------
    def run(
        self,
        envs: Sequence[Environment],
        max_cycles: int,
        checkpoint_cycles: Sequence[Sequence[int]],
        record_fingerprints: bool = True,
    ) -> List[RunResult]:
        """Run one lane per environment from reset: the golden-run loop.

        Each lane runs until its environment halts or *max_cycles* pass,
        then retires while the word steps the rest; the last stay active,
        so a one-lane run can step on.  At each boundary a lane records its
        fingerprint and packed DFF row (with *record_fingerprints*), so
        ``fingerprints[i]`` is its state at the start of cycle ``i``, and a
        checkpoint if the cycle is one of its *checkpoint_cycles*.  Every
        lane starts at cycle 0, so word-step ``i`` holds each lane's
        cycle-``i`` state; each step latches into a fresh word.
        """
        self.load_reset(envs)
        self.settle()  # the boundary-0 values, cycle 0's prev_settled
        wanted = [set(int(c) for c in cycles) for cycles in checkpoint_cycles]
        runs = [RunResult(cycles=0, halted=False, observables=())
                for _ in envs]
        rows = DffRows(len(envs))
        for _ in range(max_cycles):
            if record_fingerprints:
                rows.append(self.dff_values)
            for lane in self._active:
                if record_fingerprints:
                    runs[lane].fingerprints.append(self.lane_fingerprint(lane))
                if self.lane_cycles[lane] in wanted[lane]:
                    checkpoint = self.lane_checkpoint(lane)
                    runs[lane].checkpoints[checkpoint.cycle] = checkpoint
            self.step()
            running = [i for i in self._active if not envs[i].halted()]
            if not running:
                break  # the last lanes stay active: their state is exact
            self._active = running
        # A retired lane's cycle counter and environment stay as it left them.
        for lane, run in enumerate(runs):
            run.cycles = self.lane_cycles[lane]
            run.halted = envs[lane].halted()
            run.observables = envs[lane].observables()
            if record_fingerprints:
                run.dff_rows = rows.lane(lane)[: run.cycles]
        return runs
