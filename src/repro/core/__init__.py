"""The paper's contribution: DelayACE / DelayAVF and friends.

Implements Section V's two-step methodology (Eq. 4):

``DelayACE_d(e, i) = GroupACE(DynamicReachable_d(e, i), i + 1)``

- :mod:`repro.core.static_reach` — statically reachable sets (Definition 2),
- :mod:`repro.core.dynamic_reach` — dynamically reachable sets (Definition 3),
- :mod:`repro.core.group_ace` — GroupACE (Definition 4) via timing-agnostic
  injection against a golden run,
- :mod:`repro.core.delayavf` — DelayAVF (Eq. 3) estimation,
- :mod:`repro.core.savf` — classic particle-strike AVF (sAVF, Section VI-C),
- :mod:`repro.core.orace` — ORACE / OrDelayAVF and the ACE interference /
  compounding accounting (Section VII),
- :mod:`repro.core.campaign` — the statistical fault-injection campaign
  engine tying everything together with the paper's §V-C optimizations,
- :mod:`repro.core.plan` / :mod:`repro.core.executor` — campaign planning
  into per-cycle work shards and pluggable serial/worker-fleet execution,
- :mod:`repro.core.cache` — the persistent content-addressed verdict cache,
- :mod:`repro.core.telemetry` — campaign counters and phase timers.
"""

from repro.core.attribution import InstructionAttributor
from repro.core.cache import VerdictCache
from repro.core.campaign import CampaignConfig, CampaignSession, DelayAVFEngine
from repro.core.delay_model import DelayFault
from repro.core.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    SessionSpec,
)
from repro.core.failure_rate import structure_failure_fit
from repro.core.group_ace import GroupAceAnalyzer, Outcome
from repro.core.plan import CampaignPlan, WorkShard, build_plan
from repro.core.results import (
    DelayAVFResult,
    InjectionRecord,
    SAVFResult,
    StructureCampaignResult,
    geometric_mean,
    normalize,
)
from repro.core.sampling import sample_cycles, sample_wires
from repro.core.savf import SAVFEngine
from repro.core.telemetry import CampaignTelemetry

__all__ = [
    "CampaignConfig",
    "CampaignPlan",
    "CampaignSession",
    "CampaignTelemetry",
    "DelayAVFEngine",
    "DelayAVFResult",
    "DelayFault",
    "Executor",
    "GroupAceAnalyzer",
    "InjectionRecord",
    "InstructionAttributor",
    "Outcome",
    "ParallelExecutor",
    "SAVFEngine",
    "SAVFResult",
    "SerialExecutor",
    "SessionSpec",
    "StructureCampaignResult",
    "VerdictCache",
    "WorkShard",
    "build_plan",
    "geometric_mean",
    "normalize",
    "sample_cycles",
    "sample_wires",
    "structure_failure_fit",
]
