"""In-process span recorder the launcher installs around the program's layers.

The benchmark measures every layer from outside: :func:`install` replaces a
fixed list of public functions and methods of :mod:`repro` with wrappers that
record one span each — ``(id, parent, name, start, end, thread)`` plus a few
work counts read from the call's arguments or result.  No file under ``src/``
knows about it.

Spans stay in memory and are written as JSONL (``spans-<pid>.jsonl``) when
the process ends: at interpreter exit for the main process, and through a
``multiprocessing.util.Finalize`` hook for forked pool workers, whose
inherited buffer :func:`os.register_at_fork` empties first.  Each file ends
with a ``proc`` record naming the process's role (main or pool worker).
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class Tracer:
    """Span buffer of one process; per-thread parent stacks."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.spans: List[tuple] = []
        self.records: List[Dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.pid = os.getpid()
        self.role = "main"
        self._finalizer_pending = False
        self._flushed = False

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs,
             post: Optional[Callable] = None):
        """Run ``fn(*args, **kwargs)`` inside one recorded span."""
        if self._finalizer_pending:
            self._register_worker_flush()
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
        attrs = post(args, kwargs, result) if post is not None else None
        self.spans.append(
            (span_id, parent, name, start, end, threading.get_ident(), attrs)
        )
        return result

    def wrap(self, fn: Callable, name: str,
             post: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, post)

        return traced

    def record(self, kind: str, **fields) -> None:
        self.records.append(dict(kind=kind, **fields))

    # ------------------------------------------------------------------
    def after_fork_in_child(self) -> None:
        """A forked child starts with an empty buffer of its own."""
        self.spans = []
        self.records = []
        self._local = threading.local()
        self.pid = os.getpid()
        self.role = "worker"
        self._flushed = False
        # multiprocessing clears its finalizer registry right after fork,
        # so the exit hook is registered on the child's first span instead.
        self._finalizer_pending = True

    def _register_worker_flush(self) -> None:
        from multiprocessing import util

        self._finalizer_pending = False
        util.Finalize(self, self.flush, exitpriority=100)

    def flush(self) -> None:
        """Write this process's spans once, as JSONL."""
        if self._flushed or os.getpid() != self.pid:
            return
        self._flushed = True
        path = self.directory / f"spans-{self.pid}.jsonl"
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, tid, attrs in self.spans:
                entry = {
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "tid": tid,
                }
                if attrs:
                    entry["attrs"] = attrs
                handle.write(json.dumps(entry) + "\n")
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps({
                "kind": "proc", "pid": self.pid, "ppid": os.getppid(),
                "role": self.role,
            }) + "\n")


# ----------------------------------------------------------------------
# Work counts read at the layer boundaries
# ----------------------------------------------------------------------
def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _golden_cycles(args, kwargs, result):
    return {"cycles": result.cycles}


def _packed_golden(args, kwargs, result):
    adopted = [s for s in _arg(args, kwargs, 0, "sessions")
               if s._golden is not None]
    return {"runs": len(adopted),
            "cycles": sum(s._golden.cycles for s in adopted)}


def _static_pass(args, kwargs, result):
    return {"pass": bool(result)}


def _batch_reach(args, kwargs, result):
    return {"queries": len(_arg(args, kwargs, 2, "queries"))}


def _resim_batch(args, kwargs, result):
    return {"resims": len(result),
            "useful": sum(1 for errors in result if errors)}


def _evaluate_cells(args, kwargs, result):
    mask = _arg(args, kwargs, 2, "mask", 1)
    return {"gate_lanes": len(args[0].cell_levels) * bin(mask).count("1")}


def _prefetch_items(args, kwargs, result):
    groups = _arg(args, kwargs, 0, "groups")
    return {"items": sum(len(items) for _, items in groups)}


def _cache_get(args, kwargs, result):
    return {"hit": result is not None}


def _submit(args, kwargs, result):
    return {"deduplicated": bool(result[1])}


def _engine_close(args, kwargs, result):
    # The engine's cumulative telemetry (worker deltas merged in): the
    # program's own counters, read once per engine at shutdown.
    counters = args[0].telemetry.snapshot()["counters"]
    _TRACER.record("telemetry", counters=counters)
    return None


#: (module, attribute path, span name, work-count reader).  Module-level
#: functions are also replaced at every ``repro`` module that imported them.
TARGETS = [
    ("repro.soc.system", "build_system", "system.build", None),
    ("repro.soc.system", "IbexMiniSystem.run_program", "golden.run",
     _golden_cycles),
    ("repro.core.campaign", "packed_golden_runs", "golden.packed",
     _packed_golden),
    ("repro.core.plan", "build_plan", "plan.build", None),
    ("repro.core.guards", "preflight_campaign", "guards.preflight", None),
    ("repro.core.static_reach", "StaticReachability.reachable_set",
     "static_reach.reachable_set", _static_pass),
    ("repro.core.dynamic_reach", "DynamicReachability.reachable_set_batch",
     "dynamic_reach.batch", _batch_reach),
    ("repro.sim.eventsim", "EventSimulator.simulate_cycle",
     "eventsim.simulate_cycle", None),
    ("repro.sim.eventsim", "EventSimulator.resimulate_batch",
     "eventsim.resimulate_batch", _resim_batch),
    ("repro.core.delayavf", "DelayAceEvaluator.evaluate",
     "delayavf.evaluate", None),
    ("repro.core.group_ace", "GroupAceAnalyzer.prefetch_spanning",
     "group_ace.prefetch", None),
    ("repro.core.group_ace", "GroupAceAnalyzer.outcome_of_state_errors",
     "group_ace.outcome", None),
    ("repro.core.group_ace", "prefetch_spanning_multi",
     "group_ace.prefetch_multi", _prefetch_items),
    ("repro.sim.packed", "PackedCycleSimulator.step", "packed.step", None),
    ("repro.sim.levelize", "EvalPlan.evaluate", "levelize.evaluate",
     _evaluate_cells),
    ("repro.core.cache", "VerdictCache.open", "cache.open", None),
    ("repro.core.cache", "VerdictCache.flush", "cache.flush", None),
    ("repro.core.cache", "VerdictCache.get_record", "cache.get_record",
     _cache_get),
    ("repro.core.cache", "VerdictCache.put_record", "cache.put_record", None),
    ("repro.core.cache", "VerdictCache.lookup", "cache.lookup", None),
    ("repro.core.cache", "VerdictCache.store", "cache.store", None),
    ("repro.core.executor", "SerialExecutor.execute", "executor.serial", None),
    ("repro.core.executor", "ParallelExecutor.execute", "executor.parallel",
     None),
    ("repro.core.campaign", "DelayAVFEngine.from_spec", "api.engine_build",
     None),
    ("repro.core.campaign", "DelayAVFEngine.close", "api.engine_close",
     _engine_close),
    ("repro.service.jobs", "JobManager.submit", "service.submit", _submit),
    ("repro.service.jobs", "JobManager._run_job", "service.job", None),
    ("repro.service.journal", "JobJournal.record_submitted",
     "service.journal", None),
    ("repro.service.journal", "JobJournal.record_started",
     "service.journal", None),
    ("repro.service.journal", "JobJournal.record_finished",
     "service.journal", None),
    ("repro.service.daemon", "_ServiceHandler.do_GET", "service.http", None),
    ("repro.service.daemon", "_ServiceHandler.do_POST", "service.http", None),
]

_TRACER: Optional[Tracer] = None


def tracer() -> Optional[Tracer]:
    """The installed tracer of this process (None when tracing is off)."""
    return _TRACER


def _patch(active: Tracer, module_name: str, path: str, name: str,
           post) -> None:
    import importlib

    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(active.wrap(raw.__func__, name, post))
        else:
            wrapped = active.wrap(raw, name, post)
        setattr(owner, attr, wrapped)
        return
    original = getattr(module, attr)
    wrapped = active.wrap(original, name, post)
    # Rebind the function at every import site, not just its home module.
    for other in list(sys.modules.values()):
        if getattr(other, "__name__", "").startswith("repro") and (
            getattr(other, attr, None) is original
        ):
            setattr(other, attr, wrapped)


def install(directory: Path) -> Tracer:
    """Wrap every target, route forks and exit to the span flush."""
    global _TRACER
    _TRACER = Tracer(directory)
    # Registered before repro is imported: exit hooks run last-in first-out,
    # so the flush follows repro.api's own shutdown hook (engine telemetry,
    # worker pools joined).
    atexit.register(_TRACER.flush)
    os.register_at_fork(after_in_child=_TRACER.after_fork_in_child)
    import repro.api  # noqa: F401 - load the import sites before patching
    import repro.cli  # noqa: F401
    import repro.service.daemon  # noqa: F401

    for module_name, path, name, post in TARGETS:
        _patch(_TRACER, module_name, path, name, post)
    return _TRACER


def install_from_env() -> Optional[Tracer]:
    """Install when the runner asked for a traced process."""
    directory = os.environ.get("PERF_TRACE_DIR")
    return install(Path(directory)) if directory else None
