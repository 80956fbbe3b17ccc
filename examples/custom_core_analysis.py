#!/usr/bin/env python3
"""Applying DelayAVF to *your own* hardware: a custom accumulator design.

The DelayAVF machinery is not tied to the IbexMini core — anything expressed
as a :class:`repro.netlist.Netlist` with an :class:`Environment` can be
analyzed.  This example builds a small MAC (multiply-accumulate-ish) datapath
from scratch, defines a workload, and computes per-structure DelayAVF with
the same two-step methodology.

It also demonstrates the timing-library hook: the same design is analyzed
under the default NanGate-45-like library and under a slowed "weak-cells"
variant loaded from the mini-Liberty text format, showing how DelayAVF moves
when the cell timing changes.

Run:  python examples/custom_core_analysis.py
"""

from typing import Dict

from repro.core.delayavf import DelayAceEvaluator
from repro.core.dynamic_reach import DynamicReachability
from repro.core.group_ace import GroupAceAnalyzer
from repro.core.static_reach import StaticReachability
from repro.hdl.ops import Reg, adder, band, bxor, mux
from repro.netlist.netlist import Netlist
from repro.netlist.validate import validate
from repro.sim.cyclesim import CycleSimulator, Environment
from repro.sim.eventsim import EventSimulator
from repro.timing.liberty import NANGATE45ISH, dump_library, parse_library
from repro.timing.sta import StaticTiming


def build_mac_core() -> Netlist:
    """acc' = acc + (a & b) ^ (sel ? a : b), with an output port."""
    nl = Netlist()
    a = nl.add_input("a", 16)
    b = nl.add_input("b", 16)
    sel = nl.add_input("sel", 1)[0]
    with nl.scope("datapath"):
        masked = band(nl, a, b)
        chosen = mux(nl, sel, a, b)
        term = bxor(nl, masked, chosen)
    with nl.scope("accumulator"):
        acc = Reg(nl, "acc", 16)
        total, _ = adder(nl, acc.q, term)
        acc.set(total)
    nl.add_output("acc", acc.q)
    validate(nl)
    nl.freeze()
    return nl


class MacWorkload(Environment):
    """Feeds a fixed operand stream; the output is the final accumulator."""

    def __init__(self, length: int = 40):
        self.length = length
        self.cycle_count = 0
        self.log = []

    def _inputs(self, cycle: int) -> Dict[str, int]:
        return {
            "a": (cycle * 0x1234 + 7) & 0xFFFF,
            "b": (cycle * 0x0891 + 3) & 0xFFFF,
            "sel": cycle & 1,
        }

    def reset(self):
        self.cycle_count = 0
        self.log = []
        return self._inputs(0)

    def step(self, outputs, cycle):
        self.cycle_count += 1
        if self.cycle_count == self.length:  # program output = final acc
            self.log.append(("acc", outputs["acc"]))
        return self._inputs(self.cycle_count)

    def snapshot(self):
        return (self.cycle_count, tuple(self.log))

    def restore(self, snap):
        self.cycle_count, log = snap
        self.log = list(log)

    def fingerprint(self):
        return hash((self.cycle_count, tuple(self.log)))

    def observables(self):
        return tuple(self.log)

    def halted(self):
        return self.cycle_count >= self.length


def analyze(netlist: Netlist, library, label: str) -> None:
    sta = StaticTiming(netlist, library)
    event_sim = EventSimulator(netlist, sta)
    sim = CycleSimulator(netlist)
    golden = sim.run(MacWorkload(), max_cycles=100, record_fingerprints=True,
                     checkpoint_cycles=range(5, 36, 6))

    class _Sys:  # minimal system adapter for the analyzers
        def simulator(self_inner):
            return CycleSimulator(netlist)

        def make_env(self_inner, _program):
            return MacWorkload()

    group = GroupAceAnalyzer(_Sys(), None, golden, margin_cycles=100)
    static = StaticReachability(sta)
    dynamic = DynamicReachability(event_sim, static)
    evaluator = DelayAceEvaluator(static, dynamic, group)

    print(f"\n=== {label}: clock period {sta.clock_period:.0f} ps ===")
    for structure in ("datapath", "accumulator"):
        wires = netlist.wires_of_structure(structure)
        records = []
        for cycle in sorted(golden.checkpoints):
            ckpt = golden.checkpoints[cycle]
            waves = event_sim.simulate_cycle(
                ckpt.prev_settled, ckpt.dff_values, ckpt.input_values, cycle
            )
            for index, wire in enumerate(wires[::3]):
                records.append(
                    evaluator.evaluate(waves, ckpt, wire, index, 0.7,
                                       with_orace=False)
                )
        failures = sum(r.delay_ace for r in records)
        dyn = sum(r.dynamically_reachable for r in records)
        print(f"  {structure:12s}: {len(wires):4d} wires, "
              f"{len(records):4d} injections at d=70% -> "
              f"{dyn:3d} error sets, DelayAVF = {failures / len(records):.3f}")


def main() -> None:
    netlist = build_mac_core()
    print(f"custom design: {netlist.num_cells} cells, {netlist.num_dffs} DFFs")

    analyze(netlist, NANGATE45ISH, "NanGate-45-like library")

    # A degraded library: every cell 40% slower (e.g. a weak process corner).
    text = dump_library(NANGATE45ISH)
    slow = parse_library(
        "".join(
            line if "intrinsic" not in line else _scale_line(line, 1.4)
            for line in text.splitlines(keepends=True)
        )
    )
    analyze(netlist, slow, "weak-corner library (+40% cell delay)")
    print("\nNote: the clock period scales with the slower cells, so the")
    print("*relative* DelayAVF picture is what a designer compares.")


def _scale_line(line: str, factor: float) -> str:
    import re

    def repl(match):
        return f"intrinsic: {float(match.group(1)) * factor:.1f};"

    return re.sub(r"intrinsic:\s*([0-9.]+);", repl, line)


if __name__ == "__main__":
    main()
