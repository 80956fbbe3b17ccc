"""DelayAVF — architectural vulnerability factors for small delay faults.

This package reproduces the system described in *DelayAVF: Calculating
Architectural Vulnerability Factors for Delay Faults* (MICRO 2024).  It
contains:

- ``repro.netlist`` — a gate-level netlist substrate,
- ``repro.hdl`` — a word-level hardware construction API,
- ``repro.timing`` — a mini timing library and static timing analysis,
- ``repro.sim`` — timing-agnostic (cycle) and timing-aware (event) simulators,
- ``repro.isa`` — an RV32I/RV32E assembler and disassembler,
- ``repro.soc`` — the "IbexMini" 2-stage in-order RISC-V core under study,
- ``repro.workloads`` — Beebs-like benchmark programs,
- ``repro.core`` — the paper's contribution: DelayACE / DelayAVF, sAVF,
  ORACE / OrDelayAVF, and the fault-injection campaign engine,
- ``repro.analysis`` — table/figure rendering used by the benchmark harness.

Quickstart (the :mod:`repro.api` facade)::

    from repro import analyze

    result = analyze("alu", "libstrstr")
    print(result.delay_avf(0.5))
"""

_EXPORTS = {
    "analyze": ("repro.api", "analyze"),
    "sweep": ("repro.api", "sweep"),
    "savf": ("repro.api", "savf"),
    "shutdown": ("repro.api", "shutdown"),
    "CampaignConfig": ("repro.core.campaign", "CampaignConfig"),
    "DelayAVFEngine": ("repro.core.campaign", "DelayAVFEngine"),
    "DelayAVFResult": ("repro.core.results", "DelayAVFResult"),
    "Outcome": ("repro.core.group_ace", "Outcome"),
    "SAVFEngine": ("repro.core.savf", "SAVFEngine"),
    "StructureCampaignResult": ("repro.core.results", "StructureCampaignResult"),
    "IbexMiniSystem": ("repro.soc.system", "IbexMiniSystem"),
    "build_system": ("repro.soc.system", "build_system"),
    "BENCHMARK_NAMES": ("repro.workloads.beebs", "BENCHMARK_NAMES"),
    "load_benchmark": ("repro.workloads.beebs", "load_benchmark"),
    "ConfidenceInterval": ("repro.core.stats", "ConfidenceInterval"),
    "wilson_interval": ("repro.core.stats", "wilson_interval"),
    "bootstrap_interval": ("repro.core.stats", "bootstrap_interval"),
    "GuardViolation": ("repro.core.guards", "GuardViolation"),
    "check_campaign_result": ("repro.core.guards", "check_campaign_result"),
    "preflight_campaign": ("repro.core.guards", "preflight_campaign"),
    "ReproError": ("repro.errors", "ReproError"),
    "InputError": ("repro.errors", "InputError"),
    "TimingError": ("repro.errors", "TimingError"),
    "WorkloadError": ("repro.errors", "WorkloadError"),
    "CacheError": ("repro.errors", "CacheError"),
    "UnknownJobError": ("repro.errors", "UnknownJobError"),
    "ServiceDrainingError": ("repro.errors", "ServiceDrainingError"),
    "ERROR_TAXONOMY": ("repro.errors", "ERROR_TAXONOMY"),
    "CampaignService": ("repro.service", "CampaignService"),
    "ServiceConfig": ("repro.service", "ServiceConfig"),
    "ServiceClient": ("repro.client", "ServiceClient"),
    "engine_for": ("repro.api", "engine_for"),
    "engine_cache_stats": ("repro.api", "engine_cache_stats"),
    "result_from_payload": ("repro.core.results", "result_from_payload"),
    "PAYLOAD_SCHEMA": ("repro.core.results", "PAYLOAD_SCHEMA"),
}


def __getattr__(name):
    """Lazily resolve the public API to keep ``import repro`` lightweight."""
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


__all__ = [
    "BENCHMARK_NAMES",
    "CacheError",
    "CampaignConfig",
    "CampaignService",
    "ConfidenceInterval",
    "DelayAVFEngine",
    "DelayAVFResult",
    "ERROR_TAXONOMY",
    "GuardViolation",
    "IbexMiniSystem",
    "InputError",
    "Outcome",
    "PAYLOAD_SCHEMA",
    "ReproError",
    "SAVFEngine",
    "ServiceClient",
    "ServiceConfig",
    "ServiceDrainingError",
    "StructureCampaignResult",
    "TimingError",
    "UnknownJobError",
    "WorkloadError",
    "analyze",
    "bootstrap_interval",
    "build_system",
    "check_campaign_result",
    "engine_cache_stats",
    "engine_for",
    "load_benchmark",
    "preflight_campaign",
    "result_from_payload",
    "savf",
    "shutdown",
    "sweep",
    "wilson_interval",
]

__version__ = "1.0.0"
