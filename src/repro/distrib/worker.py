"""The ``repro worker`` serve loop: execute shards a coordinator sends.

Every worker of a :class:`~repro.core.executor.ParallelExecutor` runs this
loop — the local workers it forks for ``jobs=N`` over a socketpair, and
``repro worker`` processes that join a ``workers_from`` fleet.  A worker
rebuilds a campaign session once per
:class:`~repro.core.executor.SessionSpec` (golden run, analyzers, verdict
cache) and then serves shards from those warm caches, streaming back
:class:`~repro.core.executor.ShardResult` payloads that carry the records,
the worker's telemetry delta, and its drained trace spans.

Protocol (all messages are JSON dicts over one
:class:`~repro.distrib.transport.MessageChannel`):

========== =========== =====================================================
direction   type        payload
========== =========== =====================================================
worker →    ``hello``   ``pid``, ``worker_id`` — announce and identify
coord →     ``session`` ``digest``, ``spec`` — build/cache a session
coord →     ``plan``    ``plan_id``, ``digest``, ``plan`` — register a plan
coord →     ``shard``   ``plan_id`` + the shard payload — execute one shard
coord →     ``ping``    liveness probe; answered with ``pong``
coord →     ``shutdown`` flush caches and exit the loop
worker →    ``result``  ``plan_id``, ``shard_index``, ``result`` payload
worker →    ``error``   ``plan_id``, ``shard_index``, ``message`` — raised
worker →    ``pong``    liveness answer
========== =========== =====================================================

Sessions are cached per spec *digest*, so a coordinator serving several
engines (the campaign service) can interleave their shards and every engine
still hits a warm session.  The worker never interprets shard contents — it
runs the exact :func:`repro.core.executor.execute_shard` inner loop the
serial path runs, which is what keeps worker records byte-identical.

Before each shard the loop fires the ``worker.shard`` hook point of
:mod:`repro.testing.chaos` — the fault seam for worker crashes (``kill``),
raised shards (``raise``) and hangs (``delay:S``).  Only workers fire it, so
the coordinator's serial path is immune by construction.
"""

from __future__ import annotations

import dataclasses
import os
import signal
from typing import Any, Dict, Optional, Tuple

from repro.core import tracing
from repro.core.executor import (
    SessionSpec,
    execute_shard,
    shard_result_to_payload,
)
from repro.core.plan import CampaignPlan, WorkShard
from repro.distrib.transport import MessageChannel, TransportError
from repro.testing import chaos


def _build_session(spec: SessionSpec, cache_dir: Optional[str]):
    """Rebuild the campaign session, honouring a worker-local cache override.

    With ``--cache-dir`` the worker keeps its *own* verdict cache (useful when
    workers do not share a filesystem with the coordinator); records still
    merge on return because the coordinator re-puts every record into its own
    cache after the merge (``_persist_result``), so per-worker caches are
    additive warm-starts, never sources of divergence.
    """
    if cache_dir:
        spec = dataclasses.replace(
            spec, config=dataclasses.replace(spec.config, cache_dir=cache_dir)
        )
    return spec.build_session()


def serve(
    channel: MessageChannel,
    *,
    cache_dir: Optional[str] = None,
    max_idle: Optional[float] = None,
    configure_tracing: bool = True,
) -> int:
    """Serve shards from *channel* until shutdown; returns shards served.

    *max_idle* bounds how long the worker waits for the next message before
    giving up (None = wait forever); CI uses it so orphaned workers drain
    themselves.  *configure_tracing* lets in-process test workers leave the
    host tracer alone — a real worker process adopts the campaign's tracing
    state from the first session spec it receives.
    """
    sessions: Dict[str, Any] = {}
    plans: Dict[str, Tuple[CampaignPlan, str]] = {}
    served = 0

    def flush_caches() -> None:
        for session in sessions.values():
            if session.verdict_cache is not None:
                session.verdict_cache.flush()

    try:
        channel.send(
            {"type": "hello", "pid": os.getpid(), "worker_id": uuid_of(channel)}
        )
        while True:
            message = channel.recv(timeout=max_idle)
            if message is None:
                break  # idled out
            kind = message.get("type")
            if kind == "shutdown":
                break
            if kind == "ping":
                channel.send({"type": "pong", "pid": os.getpid()})
            elif kind == "session":
                digest = str(message["digest"])
                if digest not in sessions:
                    spec = SessionSpec.from_payload(message["spec"])
                    if configure_tracing:
                        tracing.configure(
                            bool(getattr(spec.config, "trace", False)),
                            reset=True,
                        )
                    sessions[digest] = _build_session(spec, cache_dir)
            elif kind == "plan":
                plans[str(message["plan_id"])] = (
                    CampaignPlan.from_payload(message["plan"]),
                    str(message["digest"]),
                )
            elif kind == "shard":
                served += _serve_shard(channel, sessions, plans, message)
    finally:
        flush_caches()
    return served


def serve_forked(channel: MessageChannel, inherited) -> None:
    """The body of a local worker forked by a ``jobs=N`` coordinator.

    *inherited* are the coordinator-side channels the fork copied (this
    worker's own and its siblings'); closing them leaves the coordinator
    their only holder, so a coordinator that dies reads as EOF here.
    """
    # Signals belong to the coordinator (a service daemon's drain handler
    # must not survive the fork): SIGTERM stops a worker outright, and
    # Ctrl-C reaches the fleet through the coordinator's shutdown.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in inherited:
        end.close()
    try:
        serve(channel)
    except TransportError:
        pass  # the coordinator is gone
    finally:
        channel.close()


def uuid_of(channel: MessageChannel) -> str:
    """The channel's worker id when it has one (file queue), else the pid."""
    return str(getattr(channel, "worker_id", os.getpid()))


def _serve_shard(
    channel: MessageChannel,
    sessions: Dict[str, Any],
    plans: Dict[str, Tuple[CampaignPlan, str]],
    message: Dict[str, Any],
) -> int:
    """Execute one shard message; returns 1 on a result reply, 0 on error."""
    shard = WorkShard.from_payload(message["shard"])
    try:
        plan, digest = plans[str(message["plan_id"])]
        session = sessions[digest]
        chaos.fire("worker.shard")
        before = session.telemetry.snapshot()
        result = execute_shard(session, plan, shard)
        result.telemetry = session.telemetry.diff(before)
        if tracing.enabled():
            result.spans = tracing.drain()
    except TransportError:
        raise
    except BaseException as exc:  # noqa: BLE001 - report, keep serving
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        channel.send(
            {
                "type": "error",
                "plan_id": message.get("plan_id"),
                "shard_index": shard.index,
                "message": f"{type(exc).__name__}: {exc}",
            }
        )
        return 0
    channel.send(
        {
            "type": "result",
            "plan_id": message.get("plan_id"),
            "shard_index": result.shard_index,
            "pid": os.getpid(),
            "result": shard_result_to_payload(result),
        }
    )
    return 1
