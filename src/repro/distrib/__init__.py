"""Worker processes and the message transport between them and a coordinator.

DelayAVF campaigns are embarrassingly parallel across sampled cycles, and a
:class:`repro.core.plan.WorkShard` is already a tiny self-contained
description any worker can resolve against its own rebuilt session.  The one
shard coordinator, :class:`repro.core.executor.ParallelExecutor`, sends
those shards to worker processes — forked locally (``jobs=N``) or joining
from other hosts (``workers_from=ADDR``, the DAVOS host/controller shape).
This package holds the two pieces every worker source shares:

- :mod:`repro.distrib.transport` — stdlib-only message channels: framed
  JSON lines over a socket (TCP or a local socketpair), or a file queue on a
  shared filesystem.
- :mod:`repro.distrib.worker` — the worker loop (``repro worker``): rebuild
  sessions from wire-serializable :class:`repro.core.executor.SessionSpec`
  payloads, serve shards from warm caches, stream back
  :class:`~repro.core.executor.ShardResult` payloads (records + telemetry
  delta + trace spans).

Records are byte-identical to :class:`~repro.core.executor.SerialExecutor`
runs — shard execution is deterministic and the merge is order-independent —
so workers only ever change wall-clock time and telemetry.
"""

from repro.distrib.transport import parse_workers_from

__all__ = ["parse_workers_from"]
