"""Timing-agnostic (zero-delay) cycle simulator.

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
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.netlist import Netlist
from repro.sim.levelize import EvalPlan, levelize


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

    :meth:`append` takes each cycle's whole DFF word (a scalar 0/1 state
    is lane 0).  Every :attr:`BLOCK` words are packed, each lane's
    bit-plane into ``np.packbits`` rows, and dropped, so a run keeps at
    most that many words besides its rows.
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


class CycleSimulator:
    """Zero-delay cycle-accurate simulator over a frozen netlist."""

    def __init__(self, netlist: Netlist, plan: Optional[EvalPlan] = None):
        if not netlist.frozen:
            netlist.freeze()
        self.netlist = netlist
        self.plan = plan if plan is not None else levelize(netlist)
        self._q_nets = np.array([d.q for d in netlist.dffs], dtype=np.int64)
        self._d_nets = np.array([d.d for d in netlist.dffs], dtype=np.int64)
        self._init_values = np.array(
            [d.init for d in netlist.dffs], dtype=np.uint8
        )
        self._in_ports = {
            name: (
                np.array(nets, dtype=np.int64),
                np.arange(len(nets), dtype=np.uint64),
            )
            for name, nets in netlist.input_ports.items()
        }
        self._out_ports = {
            name: (
                np.array(nets, dtype=np.int64),
                np.arange(len(nets), dtype=np.uint64),
            )
            for name, nets in netlist.output_ports.items()
        }
        self.values = np.zeros(netlist.num_nets, dtype=np.uint8)
        self.dff_values = self._init_values.copy()
        self.input_values: Dict[str, int] = {}
        self.prev_settled = np.zeros(netlist.num_nets, dtype=np.uint8)
        self.cycle = 0
        self.env: Optional[Environment] = None

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def reset(self, env: Environment) -> None:
        """Reset the circuit and attach *env* as the behavioural environment."""
        self.env = env
        self.dff_values = self._init_values.copy()
        self.input_values = dict(env.reset())
        self.cycle = 0
        self._settle()
        # Before the first cycle the circuit is held in its reset state, so
        # the "previous" settled values equal the reset-state settled values.
        self.prev_settled = self.values.copy()

    def restore(self, checkpoint: Checkpoint, env: Environment) -> None:
        """Resume simulation from *checkpoint* using *env*."""
        self.env = env
        env.restore(checkpoint.env_snapshot)
        self.dff_values = checkpoint.dff_values.copy()
        self.input_values = dict(checkpoint.input_values)
        self.prev_settled = checkpoint.prev_settled.copy()
        self.cycle = checkpoint.cycle

    def checkpoint(self) -> Checkpoint:
        """Capture a checkpoint at the start of the current cycle."""
        assert self.env is not None, "reset() the simulator first"
        return Checkpoint(
            cycle=self.cycle,
            dff_values=self.dff_values.copy(),
            input_values=dict(self.input_values),
            env_snapshot=self.env.snapshot(),
            prev_settled=self.prev_settled.copy(),
        )

    def override_dffs(self, overrides: Dict[int, int]) -> None:
        """Overwrite DFF state bits (by DFF index) at the current boundary.

        This is how GroupACE injects a dynamically reachable set: the
        overrides are the erroneous values latched at the preceding clock
        edge.
        """
        for index, value in overrides.items():
            self.dff_values[index] = value & 1

    def fingerprint(self) -> int:
        """Fingerprint of the full system state at the current boundary."""
        assert self.env is not None
        inputs_key = tuple(sorted(self.input_values.items()))
        return hash(
            (self.dff_values.tobytes(), inputs_key, self.env.fingerprint())
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        values = self.values
        values[self._q_nets] = self.dff_values
        for name, (nets, shifts) in self._in_ports.items():
            word = self.input_values.get(name, 0)
            values[nets] = (word >> shifts) & 1
        self.plan.evaluate(values)

    def evaluate_combinational(
        self,
        input_values: Dict[str, int],
        dff_values: Optional[np.ndarray] = None,
    ) -> Dict[str, int]:
        """Settle the logic for given inputs/state and return the outputs.

        A convenience for unit-testing combinational blocks: no environment
        or clocking involved.  ``dff_values`` defaults to the reset state.
        """
        if dff_values is not None:
            self.dff_values = np.asarray(dff_values, dtype=np.uint8).copy()
        else:
            self.dff_values = self._init_values.copy()
        self.input_values = dict(input_values)
        self._settle()
        return self.sample_outputs()

    def sample_outputs(self) -> Dict[str, int]:
        """Pack the settled output-port nets into integers."""
        outputs = {}
        for name, (nets, shifts) in self._out_ports.items():
            bits = self.values[nets].astype(np.uint64)
            outputs[name] = int((bits << shifts).sum())
        return outputs

    def step(self) -> Dict[str, int]:
        """Simulate one cycle; returns the sampled output-port values."""
        assert self.env is not None, "reset() the simulator first"
        self._settle()
        next_dff = self.values[self._d_nets]
        outputs = self.sample_outputs()
        next_inputs = self.env.step(outputs, self.cycle)
        self.prev_settled = self.values.copy()
        self.dff_values = next_dff
        self.input_values = dict(next_inputs)
        self.cycle += 1
        return outputs

    # ------------------------------------------------------------------
    # Whole-program runs
    # ------------------------------------------------------------------
    def run(
        self,
        env: Environment,
        max_cycles: int,
        checkpoint_cycles: Sequence[int] = (),
        record_fingerprints: bool = False,
    ) -> RunResult:
        """Run from reset until the environment halts or *max_cycles* pass.

        *checkpoint_cycles* selects boundaries at which full checkpoints are
        captured (used by the campaign engine for its sampled injection
        cycles).  Fingerprints, when recorded, are indexed so that
        ``fingerprints[i]`` is the system state at the start of cycle ``i``,
        and so are the packed DFF rows recorded with them.
        """
        self.reset(env)
        wanted = set(int(c) for c in checkpoint_cycles)
        result = RunResult(cycles=0, halted=False, observables=())
        # Each step() latches into a fresh array, so keeping a reference
        # keeps that cycle's state until its block is packed.
        rows = DffRows()
        for _ in range(max_cycles):
            if record_fingerprints:
                result.fingerprints.append(self.fingerprint())
                rows.append(self.dff_values)
            if self.cycle in wanted:
                result.checkpoints[self.cycle] = self.checkpoint()
            self.step()
            if env.halted():
                break
        result.cycles = self.cycle
        result.halted = env.halted()
        result.observables = env.observables()
        if record_fingerprints:
            result.dff_rows = rows.lane()
        return result
