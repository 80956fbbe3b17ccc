"""Stdlib-only message channels for distributed campaign execution.

Two transports, one contract.  A :class:`MessageChannel` carries JSON
messages (plain dicts) between the coordinator and one worker:

- **Socket** (:class:`SocketChannel`) — newline-delimited frames over a
  connected socket: TCP for joining workers (the coordinator listens with
  :class:`SocketListener`, workers :func:`connect` with a retry window so
  start order does not matter), a ``socket.socketpair()`` for the local
  workers a ``jobs=N`` coordinator forks.  Disconnects surface eagerly as
  :class:`TransportError`, which is what the coordinator's dead-worker
  eviction keys on.
- **File queue** (:class:`FileQueueChannel`) — a directory on a shared
  filesystem.  Workers announce themselves with a hello file
  (:func:`announce`); each direction is a spool of sequence-numbered JSON
  files written atomically (temp file + ``os.replace``) so a reader never
  observes a torn message.  There is no connection to break, so worker
  death is only detected by the coordinator's per-shard timeout — the fault
  model is documented in DESIGN.md §7.

Messages are whole JSON objects; framing (newlines / one file per message)
is the transport's business.  Every message travels inside a
``<length> <sha256[:12]> <body>`` envelope (:func:`frame_message` /
:func:`parse_frame`), so a truncated or bit-flipped message is *detected* —
the receiver raises :class:`CorruptFrameError` (a :class:`TransportError`),
which the coordinator treats exactly like a worker death: evict the channel
and requeue the in-flight shard uncharged, never crash on a JSON decode
error.  Every peer frames its messages; an unframed line is corrupt.

Neither transport authenticates: the socket listener should bind loopback
or a trusted network, and the queue directory carries the filesystem's own
permissions — the worker protocol rebuilds sessions by importing a factory
the coordinator names, so a fleet trusts its coordinator exactly as much as
a forked worker trusts its parent.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import select
import socket
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from repro.fileio import atomic_write
from repro.testing import chaos


class TransportError(RuntimeError):
    """The peer is gone or the channel broke mid-message."""


class CorruptFrameError(TransportError):
    """A message arrived complete but failed its length/checksum envelope."""


#: Hex digits of the body sha256 carried in each frame header.  12 (48 bits)
#: makes an undetected corruption vanishingly unlikely while keeping the
#: per-message overhead to ~20 bytes.
_FRAME_DIGEST_LEN = 12


def frame_message(message: Dict[str, Any]) -> bytes:
    """``b"<len> <sha256(body)[:12]> <body>\\n"`` for one JSON message.

    ``json.dumps`` with default ``ensure_ascii`` never emits a raw newline,
    so the trailing ``\\n`` stays an unambiguous message delimiter.
    """
    body = json.dumps(message, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(body).hexdigest()[:_FRAME_DIGEST_LEN]
    return b"%d %s %s\n" % (len(body), digest.encode("ascii"), body)


def parse_frame(line: bytes) -> Dict[str, Any]:
    """Verify and decode one frame (without its trailing newline).

    Raises :class:`CorruptFrameError` on any mismatch — malformed header,
    declared-length disagreement (truncation), checksum failure (bit rot),
    or an unparseable body.
    """
    try:
        length_bytes, digest, body = line.split(b" ", 2)
        length = int(length_bytes)
    except ValueError as exc:
        raise CorruptFrameError("corrupt frame: malformed header") from exc
    if len(body) != length:
        raise CorruptFrameError(
            f"corrupt frame: header declares {length} body bytes, got {len(body)}"
        )
    expected = hashlib.sha256(body).hexdigest()[:_FRAME_DIGEST_LEN]
    if digest != expected.encode("ascii"):
        raise CorruptFrameError("corrupt frame: checksum mismatch")
    try:
        return json.loads(body)
    except ValueError as exc:
        raise CorruptFrameError(f"corrupt frame: unparseable body: {exc}") from exc


def parse_workers_from(value: str) -> Tuple:
    """Parse a ``workers_from`` address into ``("socket", host, port)`` or
    ``("queue", directory)``.

    ``HOST:PORT`` names a socket listen address (``HOST`` may be empty for
    loopback; ``PORT`` 0 binds an ephemeral port); ``queue:DIR`` names a
    shared-filesystem queue directory.  Raises ``ValueError`` on anything
    else, so configs fail fast at validation time.
    """
    if not isinstance(value, str) or not value:
        raise ValueError("workers_from must be 'HOST:PORT' or 'queue:DIR'")
    if value.startswith("queue:"):
        directory = value[len("queue:"):]
        if not directory:
            raise ValueError("workers_from queue transport needs a directory")
        return ("queue", directory)
    host, sep, port = value.rpartition(":")
    if not sep or not port.lstrip("-").isdigit():
        raise ValueError(
            f"workers_from must be 'HOST:PORT' or 'queue:DIR', got {value!r}"
        )
    port_number = int(port)
    if not 0 <= port_number <= 65535:
        raise ValueError(f"workers_from port out of range: {port_number}")
    return ("socket", host or "127.0.0.1", port_number)


class MessageChannel:
    """One bidirectional JSON-message channel to a single peer."""

    def send(self, message: Dict[str, Any]) -> None:
        raise NotImplementedError

    def poll(self) -> List[Dict[str, Any]]:
        """Every message that has fully arrived; never blocks."""
        raise NotImplementedError

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """The next message, waiting up to *timeout* seconds (None = forever)."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Socket transport: newline-delimited JSON over TCP
# ----------------------------------------------------------------------
class SocketChannel(MessageChannel):
    """JSON-lines over one connected TCP socket (blocking sends, buffered
    non-blocking receives)."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.setblocking(True)
        self._buffer = b""
        self._pending: List[Dict[str, Any]] = []
        self._closed = False

    def fileno(self) -> int:
        """The socket's descriptor, so coordinators can ``select`` on it."""
        return self._sock.fileno()

    def send(self, message: Dict[str, Any]) -> None:
        data = chaos.fire("transport.send", data=frame_message(message))
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"peer gone while sending: {exc}") from exc

    def _readable(self, timeout: float) -> bool:
        try:
            ready, _, _ = select.select([self._sock], [], [], timeout)
        except OSError as exc:
            raise TransportError(f"socket unusable: {exc}") from exc
        return bool(ready)

    def _fill(self) -> None:
        """One non-blocking read into the buffer (caller checked readability)."""
        try:
            chunk = self._sock.recv(1 << 16)
        except OSError as exc:
            if exc.errno in (errno.EAGAIN, errno.EWOULDBLOCK):
                return
            raise TransportError(f"peer gone while reading: {exc}") from exc
        if not chunk:
            raise TransportError("peer closed the connection")
        self._buffer += chunk

    def _drain_lines(self) -> None:
        while b"\n" in self._buffer:
            line, self._buffer = self._buffer.split(b"\n", 1)
            if line.strip():
                # CorruptFrameError propagates to poll()/recv() callers; the
                # coordinator handles it like a dead worker (evict + requeue
                # uncharged) instead of crashing on a decode error.
                self._pending.append(parse_frame(line))

    def poll(self) -> List[Dict[str, Any]]:
        while self._readable(0.0):
            self._fill()
        self._drain_lines()
        messages, self._pending = self._pending, []
        return messages

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            self._drain_lines()
            if self._pending:
                return self._pending.pop(0)
            wait = 0.25
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                wait = min(wait, remaining)
            if self._readable(wait):
                self._fill()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass


class SocketListener:
    """The coordinator's accept loop: non-blocking, one channel per worker."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 16):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self._sock.setblocking(False)

    @property
    def address(self) -> Tuple[str, int]:
        """The actually bound ``(host, port)`` (resolves ephemeral ports)."""
        host, port = self._sock.getsockname()[:2]
        return host, port

    def accept(self) -> List[SocketChannel]:
        """Every connection waiting right now (possibly none)."""
        channels = []
        while True:
            try:
                sock, _ = self._sock.accept()
            except BlockingIOError:
                break
            except OSError:
                break
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            channels.append(SocketChannel(sock))
        return channels

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def connect(
    host: str,
    port: int,
    retry_seconds: float = 30.0,
    retry_interval: float = 0.25,
) -> SocketChannel:
    """Connect to a coordinator, retrying while it comes up.

    Workers and coordinator start in arbitrary order (CI starts the workers
    first); retrying connection-refused for *retry_seconds* makes the order
    irrelevant.  Raises :class:`TransportError` once the window closes.
    """
    deadline = time.monotonic() + max(0.0, retry_seconds)
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return SocketChannel(sock)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise TransportError(
                    f"cannot connect to coordinator at {host}:{port}: {exc}"
                ) from exc
            time.sleep(retry_interval)


# ----------------------------------------------------------------------
# File-queue transport: sequence-numbered JSON spool files on a shared dir
# ----------------------------------------------------------------------
#
# Layout under the queue directory:
#
#     workers/<worker-id>.json      worker announce (hello payload)
#     to/<worker-id>/NNNNNNNN.json  coordinator -> worker spool
#     from/<worker-id>/NNNNNNNN.json worker -> coordinator spool
#
# Writers publish with repro.fileio.atomic_write, readers consume in
# sequence order and unlink behind themselves, so the spool stays small and a
# torn message can never be observed.
def _spool_messages(directory: str) -> Tuple[List[Dict[str, Any]], int]:
    """Consume every complete spool file, in order: ``(messages, corrupt)``.

    Spool files are published atomically, so a file that fails frame
    verification is genuinely damaged (bit rot, a faulty shared FS), not a
    half-written race: it is unlinked and counted in ``corrupt`` rather
    than retried forever.
    """
    try:
        names = sorted(
            name for name in os.listdir(directory) if name.endswith(".json")
        )
    except FileNotFoundError:
        return [], 0
    messages = []
    corrupt = 0
    for name in names:
        path = os.path.join(directory, name)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            continue  # replaced-but-not-yet-visible races resolve next poll
        stripped = raw.strip()
        if not stripped:
            continue
        try:
            message = parse_frame(stripped)
        except CorruptFrameError:
            try:
                os.unlink(path)
            except OSError:
                pass
            corrupt += 1
            continue
        messages.append(message)
        try:
            os.unlink(path)
        except OSError:
            pass
    return messages, corrupt


def sweep_stale_files(
    directory: str,
    max_age_seconds: float = 3600.0,
    tmp_age_seconds: float = 60.0,
) -> int:
    """Age-based GC for a shared queue directory; returns files removed.

    Two kinds of garbage accumulate when workers crash: ``.tmp`` files from
    a writer killed between ``mkstemp`` and ``os.replace`` (dead after
    *tmp_age_seconds* — live publishes take milliseconds), and spool
    ``*.json`` messages whose reader died and will never consume them (dead
    after *max_age_seconds*).  Worker announce files under ``workers/`` are
    deliberately left alone: a fresh coordinator discovers existing fleets
    through them, so only their age-less ``.tmp`` orphans are swept.
    """
    removed = 0
    now = time.time()
    workers_dir = os.path.join(directory, "workers")
    for root, _dirs, files in os.walk(directory):
        for name in files:
            if name.endswith(".tmp"):
                limit = tmp_age_seconds
            elif (
                name.endswith(".json")
                and root != directory
                and os.path.normpath(root) != os.path.normpath(workers_dir)
            ):
                limit = max_age_seconds
            else:
                continue
            path = os.path.join(root, name)
            try:
                age = now - os.path.getmtime(path)
            except OSError:
                continue
            if age >= limit:
                try:
                    os.unlink(path)
                except OSError:
                    continue
                removed += 1
    return removed


class FileQueueChannel(MessageChannel):
    """One worker's spool pair under a shared queue directory."""

    def __init__(self, directory: str, worker_id: str, side: str):
        if side not in ("coordinator", "worker"):
            raise ValueError(f"side must be coordinator/worker, got {side!r}")
        self.worker_id = worker_id
        to_dir = os.path.join(directory, "to", worker_id)
        from_dir = os.path.join(directory, "from", worker_id)
        if side == "coordinator":
            self._send_dir, self._recv_dir = to_dir, from_dir
        else:
            self._send_dir, self._recv_dir = from_dir, to_dir
        os.makedirs(self._send_dir, exist_ok=True)
        os.makedirs(self._recv_dir, exist_ok=True)
        self._seq = 0
        self._pending: List[Dict[str, Any]] = []

    def send(self, message: Dict[str, Any]) -> None:
        self._seq += 1
        data = chaos.fire("transport.send", data=frame_message(message))
        path = os.path.join(self._send_dir, f"{self._seq:08d}.json")
        try:
            atomic_write(path, data)
        except OSError as exc:
            raise TransportError(f"queue directory unusable: {exc}") from exc

    def _corrupt_error(self, corrupt: int) -> CorruptFrameError:
        return CorruptFrameError(
            f"{corrupt} corrupt spool message(s) under {self._recv_dir}"
        )

    def poll(self) -> List[Dict[str, Any]]:
        messages, self._pending = self._pending, []
        fresh, corrupt = _spool_messages(self._recv_dir)
        messages.extend(fresh)
        if corrupt:
            # Bank the clean messages before surfacing: the caller treats a
            # corrupt frame like a broken channel (evict + requeue uncharged).
            self._pending = messages
            raise self._corrupt_error(corrupt)
        return messages

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._pending:
                return self._pending.pop(0)
            fresh, corrupt = _spool_messages(self._recv_dir)
            self._pending.extend(fresh)
            if corrupt:
                raise self._corrupt_error(corrupt)
            if self._pending:
                continue
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(0.05)

    def close(self) -> None:
        pass  # nothing to tear down: the spool is plain files


class FileQueueListener:
    """Coordinator side of the queue transport: watch for worker announces."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(os.path.join(directory, "workers"), exist_ok=True)
        self._seen: set = set()

    @property
    def address(self) -> Tuple[str, int]:
        return (f"queue:{self.directory}", 0)

    def accept(self) -> List[FileQueueChannel]:
        """A channel for every worker announce not yet claimed."""
        workers_dir = os.path.join(self.directory, "workers")
        try:
            names = sorted(os.listdir(workers_dir))
        except FileNotFoundError:
            return []
        channels = []
        for name in names:
            if not name.endswith(".json") or name in self._seen:
                continue
            self._seen.add(name)
            worker_id = name[: -len(".json")]
            channels.append(
                FileQueueChannel(self.directory, worker_id, side="coordinator")
            )
        return channels

    def sweep(
        self,
        max_age_seconds: float = 3600.0,
        tmp_age_seconds: float = 60.0,
    ) -> int:
        """GC orphaned ``.tmp`` / stale spool files; returns files removed."""
        return sweep_stale_files(
            self.directory,
            max_age_seconds=max_age_seconds,
            tmp_age_seconds=tmp_age_seconds,
        )

    def close(self) -> None:
        pass


def announce(directory: str, worker_id: Optional[str] = None) -> FileQueueChannel:
    """Worker side: create the spool pair, then publish the hello file.

    The announce file is written *last* so the coordinator never claims a
    worker whose spool directories do not exist yet.
    """
    worker_id = worker_id or uuid.uuid4().hex[:12]
    channel = FileQueueChannel(directory, worker_id, side="worker")
    atomic_write(
        os.path.join(directory, "workers", f"{worker_id}.json"),
        json.dumps({"worker_id": worker_id, "pid": os.getpid()}, sort_keys=True),
    )
    return channel
