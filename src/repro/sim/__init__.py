"""Simulators for the gate-level netlist.

Two complementary engines implement the paper's two-step methodology:

- :mod:`repro.sim.packed` — the *timing-agnostic* zero-delay cycle
  simulator (the Verilator stand-in) used for golden runs and GroupACE
  fault-injection runs, up to 64 runs per word; :mod:`repro.sim.cyclesim`
  is its one-run interface;
- :mod:`repro.sim.eventsim` — the *timing-aware* transport-delay event-driven
  simulator used to find the state elements that latch incorrect values
  during the single faulty cycle.
"""

from repro.sim.cyclesim import Checkpoint, CycleSimulator, Environment, RunResult
from repro.sim.eventsim import CycleWaveforms, EventSimulator
from repro.sim.levelize import EvalPlan, levelize

__all__ = [
    "Checkpoint",
    "CycleSimulator",
    "CycleWaveforms",
    "Environment",
    "EvalPlan",
    "EventSimulator",
    "RunResult",
    "levelize",
]
