"""One zero-delay run at a time: the one-lane cycle simulator.

:class:`CycleSimulator` is a one-lane
:class:`~repro.sim.packed.PackedCycleSimulator` (that module holds the
simulation model, the :class:`Environment` protocol, checkpoints and run
results) behind the interface of a single run.  At one lane the word is
uint8 with mask 1, so its value, DFF and settled arrays are 0/1 arrays.  It
settles, steps, samples and fingerprints nothing itself.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.netlist.netlist import Netlist
from repro.sim.levelize import EvalPlan
from repro.sim.packed import (
    Checkpoint,
    Environment,
    PackedCycleSimulator,
    RunResult,
)


class CycleSimulator:
    """Zero-delay cycle-accurate simulation of one run of a netlist."""

    def __init__(self, netlist: Netlist, plan: Optional[EvalPlan] = None):
        #: the one-lane word every call goes to
        self.word = PackedCycleSimulator(netlist, plan)
        self.netlist = self.word.netlist
        self.plan = self.word.plan

    @property
    def values(self) -> np.ndarray:
        """Every net's 0/1 value as of the last settle."""
        return self.word.values

    @property
    def dff_values(self) -> np.ndarray:
        """The 0/1 DFF state at the current boundary."""
        return self.word.dff_values

    @property
    def prev_settled(self) -> np.ndarray:
        """Settled net values of the previous cycle (a copy)."""
        return self.word.lane_settled_values(0)

    @property
    def cycle(self) -> int:
        return self.word.lane_cycles[0]

    # ------------------------------------------------------------------
    def reset(self, env: Environment) -> None:
        """Reset the circuit and attach *env* as the behavioural environment;
        the reset state's settled values read as the previous cycle's."""
        self.word.load_reset([env])
        self.word.settle()

    def restore(self, checkpoint: Checkpoint, env: Environment) -> None:
        """Resume simulation from *checkpoint* using *env*."""
        self.word.load_lanes([(checkpoint, env)])
        self.word.values[:] = checkpoint.prev_settled

    def checkpoint(self) -> Checkpoint:
        """Capture a checkpoint at the start of the current cycle."""
        return self.word.lane_checkpoint(0)

    def override_dffs(self, overrides: Dict[int, int]) -> None:
        """Overwrite DFF state bits (by DFF index) at the current boundary.

        This is how GroupACE injects a dynamically reachable set: the
        overrides are the erroneous values latched at the preceding clock
        edge.
        """
        self.word.override_lane_dffs(0, overrides)

    def fingerprint(self) -> int:
        """Fingerprint of the full system state at the current boundary."""
        return self.word.lane_fingerprint(0)

    # ------------------------------------------------------------------
    def evaluate_combinational(
        self,
        input_values: Dict[str, int],
        dff_values: Optional[np.ndarray] = None,
    ) -> Dict[str, int]:
        """Settle the logic for given inputs/state and return the outputs.

        A convenience for unit-testing combinational blocks: no environment
        or clocking involved.  ``dff_values`` defaults to the reset state.
        """
        if dff_values is None:
            dff_values = self.word.init_values
        self.word.load_state(dff_values, input_values)
        self.word.settle()
        return self.sample_outputs()

    def sample_outputs(self) -> Dict[str, int]:
        """The settled output-port values, one integer per port."""
        return self.word.lane_outputs()[0]

    def step(self) -> Dict[str, int]:
        """Simulate one cycle; returns the sampled output-port values."""
        return self.word.step()[0]

    def run(
        self,
        env: Environment,
        max_cycles: int,
        checkpoint_cycles: Sequence[int] = (),
        record_fingerprints: bool = False,
    ) -> RunResult:
        """Run from reset until the environment halts or *max_cycles* pass:
        the golden-run loop (:meth:`PackedCycleSimulator.run`) at one lane,
        checkpointed at *checkpoint_cycles*."""
        return self.word.run(
            [env], max_cycles, [checkpoint_cycles], record_fingerprints
        )[0]
