"""Deterministic fault injection for durability and integrity tests.

The production code calls :func:`fire` at a small set of *hook points* —
places where real infrastructure faults bite:

``cache.flush``
    Fired on the temporary file just before a verdict-cache flush atomically
    publishes it.  Truncating here publishes a torn scope file, exactly what
    a power cut mid-``write()`` leaves behind.
``transport.send``
    Fired on the framed wire bytes of every distributed-transport message
    before they are sent; corrupting them exercises the receiver's checksum
    path (detected corruption must requeue the shard, never crash the
    coordinator).
``service.job``
    Fired by the campaign-service job runner right after a job transitions
    to RUNNING (and after the journal records it).  A ``kill`` action here is
    a daemon SIGKILL mid-job — the scenario the write-ahead journal exists
    to survive.
``worker.shard``
    Fired by the worker loop (:mod:`repro.distrib.worker`) before each shard
    it executes, in local and joining workers alike.  ``kill`` is a worker
    crash (the coordinator sees EOF and evicts), ``raise`` a shard error (the
    coordinator retries), ``delay:S`` a hang (the shard timeout evicts).

With no hooks installed and no environment configuration every ``fire`` is
inert, so the hook points cost one dict lookup and one ``os.environ`` probe
on production paths.

Two activation styles:

* **Programmatic** (in-process tests): :func:`install` / :func:`uninstall` a
  callable per point, or use the :func:`injected` context manager.  The
  callable receives ``data`` and ``path`` keyword arguments and may return
  replacement bytes (or ``None`` to leave the payload alone).
* **Environment** (subprocess tests, CI smokes): ``REPRO_CHAOS`` holds a
  comma-separated list of ``point=action[:arg]`` entries, e.g.
  ``REPRO_CHAOS="service.job=kill"`` or
  ``REPRO_CHAOS="cache.flush=truncate,transport.send=corrupt:7"``.
  ``REPRO_CHAOS_ONCE_FILE`` names a marker-file prefix; when set, each point
  fires at most once across *all* processes sharing the prefix (the claim is
  an ``O_CREAT | O_EXCL`` marker), so "corrupt one message then behave" or
  "kill one worker then behave" is expressible for multi-process fleets.

Actions:

``kill``
    ``SIGKILL`` the current process (no atexit, no cleanup — a real crash).
``raise``
    Raise :class:`ChaosError`.
``delay[:seconds]``
    Sleep (default 0.1 s) and continue.
``truncate[:size]``
    Truncate the file named by the hook's ``path`` (default: half its
    current size).
``corrupt[:index]``
    Flip every bit of one byte of the hook's ``data`` payload (default: the
    middle byte) and return the damaged copy.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from typing import Callable, Dict, Optional

__all__ = [
    "ChaosError",
    "fire",
    "install",
    "uninstall",
    "injected",
    "reset",
]


class ChaosError(RuntimeError):
    """Raised by the ``raise`` action (and for malformed chaos specs)."""


_HOOKS: Dict[str, Callable] = {}
_LOCK = threading.Lock()

ENV_SPEC = "REPRO_CHAOS"
ENV_ONCE_FILE = "REPRO_CHAOS_ONCE_FILE"


def install(point: str, hook: Callable) -> None:
    """Install *hook* at *point* (replacing any previous hook there)."""
    with _LOCK:
        _HOOKS[point] = hook


def uninstall(point: str) -> None:
    with _LOCK:
        _HOOKS.pop(point, None)


def reset() -> None:
    """Remove every programmatic hook (test teardown)."""
    with _LOCK:
        _HOOKS.clear()


@contextlib.contextmanager
def injected(point: str, hook: Callable):
    """Scoped :func:`install`: the hook is removed on exit, even on error."""
    install(point, hook)
    try:
        yield
    finally:
        uninstall(point)


def fire(point: str, data: Optional[bytes] = None, path=None) -> Optional[bytes]:
    """Fire hook *point*; returns the (possibly transformed) ``data``.

    Inert unless a programmatic hook is installed or ``REPRO_CHAOS`` names
    this point.  Callers that pass bytes MUST use the return value in place
    of their original payload.
    """
    hook = _HOOKS.get(point)
    if hook is not None:
        result = hook(data=data, path=path)
        return data if result is None else result
    spec = os.environ.get(ENV_SPEC)
    if not spec:
        return data
    action = _env_action(spec, point)
    if action is None or not _claim_once(point):
        return data
    return _apply(action, data, path)


# ----------------------------------------------------------------------
def _env_action(spec: str, point: str) -> Optional[str]:
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry or "=" not in entry:
            continue
        name, action = entry.split("=", 1)
        if name.strip() == point:
            return action.strip()
    return None


def _claim_once(point: str) -> bool:
    """True when this process may fire *point* under the once-file policy.

    Without ``REPRO_CHAOS_ONCE_FILE`` every matching fire goes through.
    With it, the first process to create ``<prefix>.<point>`` wins; everyone
    else (including this process on later fires) stays inert.
    """
    prefix = os.environ.get(ENV_ONCE_FILE)
    if not prefix:
        return True
    marker = f"{prefix}.{point.replace('.', '-')}"
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _apply(action: str, data: Optional[bytes], path) -> Optional[bytes]:
    name, _, arg = action.partition(":")
    name = name.strip()
    if name == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
        return data  # pragma: no cover - unreachable
    if name == "raise":
        raise ChaosError(f"chaos raise at configured hook point (arg={arg!r})")
    if name == "delay":
        time.sleep(float(arg) if arg else 0.1)
        return data
    if name == "truncate":
        if path is None:
            raise ChaosError("truncate action fired at a hook point without a path")
        size = int(arg) if arg else max(1, os.path.getsize(path) // 2)
        with open(path, "r+b") as handle:
            handle.truncate(size)
        return data
    if name == "corrupt":
        if data is None:
            raise ChaosError("corrupt action fired at a hook point without data")
        damaged = bytearray(data)
        if not damaged:
            return data
        index = int(arg) if arg else len(damaged) // 2
        index = max(0, min(index, len(damaged) - 1))
        damaged[index] ^= 0xFF
        return bytes(damaged)
    raise ChaosError(f"unknown chaos action {action!r}")
