"""The "IbexMini" SoC: a 2-stage in-order RV32E core built at gate level.

This is the hardware under study — the stand-in for the paper's Ibex core.
It reproduces the five analyzed microarchitectural structures:

- ``core.prefetch`` — a prefetch buffer (2-entry FIFO + one in-flight fetch),
- ``core.decoder``  — a logic-only RV32E instruction decoder,
- ``core.alu``      — adder/comparator/shifter/logic datapath,
- ``core.regfile``  — a 15×32 DFF register file, optionally protected by a
  single-error-correcting Hamming code (no double-error detection, matching
  the paper's ECC configuration),
- ``core.lsu``      — load/store unit with byte-lane alignment and a
  registered memory interface.

Every external interface is register-latched, so all delay-fault errors are
DFF errors (see :mod:`repro.sim.packed`).
"""

from repro.soc.system import IbexMiniSystem, MemoryEnvironment, build_system

__all__ = ["IbexMiniSystem", "MemoryEnvironment", "build_system"]
