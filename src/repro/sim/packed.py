"""Lane-parallel ("packed") cycle simulation — classic parallel fault sim.

GroupACE dominates a campaign's runtime: every non-masked injection needs a
timing-agnostic re-simulation to the end of the program.  Those runs share
the same netlist and differ only in a handful of flipped state bits, so up
to 64 of them are packed into the bit-planes of the value arrays and
evaluated simultaneously — one `EvalPlan.evaluate` pass settles all lanes
(inversions become XOR-with-mask, everything else is already bitwise).  The
word width follows the lane count: up to 8 lanes ride in uint8 arrays
(cheapest per-cycle footprint), anything wider in uint64.

Each lane keeps its own behavioural environment, input-port values, and
per-lane state fingerprint, bit-exact with what a scalar
:class:`repro.sim.cyclesim.CycleSimulator` run of the same injection would
produce — the equivalence the test suite asserts.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.netlist import Netlist
from repro.sim.cyclesim import Checkpoint, Environment
from repro.sim.levelize import EvalPlan, levelize

#: Bit-planes available in a uint64 value array.
MAX_LANES = 64


def lane_dtype(lanes: int) -> np.dtype:
    """Narrowest supported word dtype that holds *lanes* bit-planes."""
    return np.dtype(np.uint8 if lanes <= 8 else np.uint64)


class PackedCycleSimulator:
    """Simulates up to :data:`MAX_LANES` divergent runs of one netlist."""

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
        self.dtype = np.dtype(np.uint8)
        self.values = np.zeros(netlist.num_nets, dtype=self.dtype)
        self.dff_values = np.zeros(netlist.num_dffs, dtype=self.dtype)
        self.lanes = 0
        self.mask = 0
        self._lane_shifts = np.zeros(0, dtype=np.uint64)
        self.envs: List[Environment] = []
        self.lane_inputs: List[Dict[str, int]] = []
        #: per-lane cycle counters — lanes loaded from different checkpoints
        #: (see :meth:`load_lanes`) advance in lock-step but live at
        #: different absolute cycles
        self.lane_cycles: List[int] = []
        self._active: List[int] = []

    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        """Absolute cycle of lane 0 (every lane, for a single-checkpoint load)."""
        return self.lane_cycles[0] if self.lane_cycles else 0

    def load(self, checkpoint: Checkpoint, envs: Sequence[Environment]) -> None:
        """Replicate a scalar *checkpoint* across one lane per environment."""
        self.load_lanes([(checkpoint, env) for env in envs])

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
        if not 1 <= len(lanes) <= MAX_LANES:
            raise ValueError(f"1..{MAX_LANES} lanes supported, got {len(lanes)}")
        self.lanes = len(lanes)
        self.mask = (1 << self.lanes) - 1
        self.dtype = lane_dtype(self.lanes)
        self._lane_shifts = np.arange(self.lanes, dtype=np.uint64)
        self.values = np.zeros(self.netlist.num_nets, dtype=self.dtype)
        self.envs = [env for _, env in lanes]
        for (checkpoint, _), env in zip(lanes, self.envs):
            env.restore(checkpoint.env_snapshot)
        # Pack each lane's 0/1 scalar state into its own bit-plane.  The
        # all-lanes-share-one-checkpoint case (the common one) broadcasts.
        first = lanes[0][0]
        if all(ckpt is first for ckpt, _ in lanes):
            self.dff_values = first.dff_values.astype(self.dtype) * self.mask
        else:
            packed = np.zeros(self.netlist.num_dffs, dtype=np.uint64)
            for lane, (ckpt, _) in enumerate(lanes):
                packed |= ckpt.dff_values.astype(np.uint64) << np.uint64(lane)
            self.dff_values = packed.astype(self.dtype)
        self.lane_inputs = [dict(ckpt.input_values) for ckpt, _ in lanes]
        self.lane_cycles = [ckpt.cycle for ckpt, _ in lanes]
        self._active = list(range(self.lanes))

    def load_reset(self, envs: Sequence[Environment]) -> None:
        """Start one lane per environment from the circuit's reset state.

        The packed twin of :meth:`CycleSimulator.reset`: every lane begins
        at cycle 0 with the netlist's DFF init values and the input-port
        values its own environment's ``reset()`` returns.  Used to run many
        workloads' golden runs through one packed word; after loading,
        :meth:`settle` makes the boundary-0 settled values observable (the
        scalar simulator's ``prev_settled`` for a cycle-0 checkpoint).
        """
        if not 1 <= len(envs) <= MAX_LANES:
            raise ValueError(f"1..{MAX_LANES} lanes supported, got {len(envs)}")
        self.lanes = len(envs)
        self.mask = (1 << self.lanes) - 1
        self.dtype = lane_dtype(self.lanes)
        self._lane_shifts = np.arange(self.lanes, dtype=np.uint64)
        self.values = np.zeros(self.netlist.num_nets, dtype=self.dtype)
        self.envs = list(envs)
        self.dff_values = self._init_values.astype(self.dtype) * self.mask
        self.lane_inputs = [dict(env.reset()) for env in self.envs]
        self.lane_cycles = [0] * self.lanes
        self._active = list(range(self.lanes))

    def settle(self) -> None:
        """Settle combinational logic for the current state of every lane."""
        self._settle()

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
        active again.  Width, dtype and mask stay as loaded, so the word
        keeps its compiled step program; the other lanes are untouched.
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
    def _settle(self) -> None:
        values = self.values
        values[0] = 0
        values[1] = self.mask
        if len(self._q_nets):
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

    def _active_lane_outputs(self) -> Dict[int, Dict[str, int]]:
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

    def step(self) -> None:
        """Advance all active lanes by one cycle (each lane steps its own env)."""
        self._settle()
        next_dff = self.values[self._d_nets].copy() if len(self._d_nets) else (
            np.zeros(0, dtype=self.dtype)
        )
        for lane, outputs in self._active_lane_outputs().items():
            self.lane_inputs[lane] = dict(
                self.envs[lane].step(outputs, self.lane_cycles[lane])
            )
            self.lane_cycles[lane] += 1
        self.dff_values = next_dff

    # ------------------------------------------------------------------
    def lane_dff_values(self, lane: int) -> np.ndarray:
        return ((self.dff_values >> lane) & 1).astype(np.uint8)

    def lane_settled_values(self, lane: int) -> np.ndarray:
        """One lane's settled net values as a scalar 0/1 uint8 array."""
        return ((self.values >> lane) & 1).astype(np.uint8)

    def lane_fingerprint(self, lane: int) -> int:
        """Bit-exact twin of :meth:`CycleSimulator.fingerprint` for one lane."""
        inputs_key = tuple(sorted(self.lane_inputs[lane].items()))
        return hash(
            (
                self.lane_dff_values(lane).tobytes(),
                inputs_key,
                self.envs[lane].fingerprint(),
            )
        )
