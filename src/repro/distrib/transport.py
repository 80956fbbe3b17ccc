"""The stdlib-only message channel for distributed campaign execution.

A :class:`SocketChannel` carries JSON messages (plain dicts) between the
coordinator and one worker as newline-delimited frames over a connected
socket: TCP for joining workers (the coordinator listens with
:class:`SocketListener`, workers :func:`connect` with a retry window so
start order does not matter), a ``socket.socketpair()`` for the local
workers a ``jobs=N`` coordinator forks.  Disconnects surface eagerly as
:class:`TransportError`, which is what the coordinator's dead-worker
eviction keys on.

Every message travels inside a ``<length> <sha256[:12]> <body>`` envelope
(:func:`frame_message` / :func:`parse_frame`), so a truncated or
bit-flipped message is *detected* — the receiver raises
:class:`CorruptFrameError` (a :class:`TransportError`), which the
coordinator treats exactly like a worker death: evict the channel and
requeue the in-flight shard uncharged, never crash on a JSON decode error.
Every peer frames its messages; an unframed line is corrupt.

The transport does not authenticate: the socket listener should bind
loopback or a trusted network — workers run the program images and shards
the coordinator sends, so a fleet trusts its coordinator exactly as much
as a forked worker trusts its parent.
"""

from __future__ import annotations

import errno
import hashlib
import json
import select
import socket
import time
from typing import Any, Dict, List, Optional, Tuple

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


def parse_workers_from(value: str) -> Tuple[str, int]:
    """Parse a ``workers_from`` listen address into ``(host, port)``.

    ``HOST:PORT`` names a socket listen address (``HOST`` may be empty for
    loopback; ``PORT`` 0 binds an ephemeral port).  Raises ``ValueError``
    on anything else, so configs fail fast at validation time.
    """
    if not isinstance(value, str):
        raise ValueError("workers_from must be 'HOST:PORT'")
    host, sep, port = value.rpartition(":")
    if not sep or not port.lstrip("-").isdigit():
        raise ValueError(f"workers_from must be 'HOST:PORT', got {value!r}")
    port_number = int(port)
    if not 0 <= port_number <= 65535:
        raise ValueError(f"workers_from port out of range: {port_number}")
    return host or "127.0.0.1", port_number


class SocketChannel:
    """One bidirectional JSON-message channel to a single peer: framed
    lines over a connected socket (blocking sends, buffered non-blocking
    receives)."""

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
        """Every message that has fully arrived; never blocks."""
        while self._readable(0.0):
            self._fill()
        self._drain_lines()
        messages, self._pending = self._pending, []
        return messages

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """The next message, waiting up to *timeout* seconds (None = forever)."""
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
