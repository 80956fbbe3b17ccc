"""The campaign service daemon: JSON over HTTP, stdlib only.

:class:`CampaignService` binds a :class:`http.server.ThreadingHTTPServer`
in front of a :class:`repro.service.jobs.JobManager`.  The protocol is five
endpoints under a versioned prefix:

- ``POST /v1/jobs`` — submit a job spec; returns the job id (``202``; a
  deduplicated submission returns the existing job's id with
  ``deduplicated: true``).
- ``GET /v1/jobs/<id>`` — status + live progress snapshot + the job's
  telemetry slice.
- ``GET /v1/jobs/<id>/result`` — the versioned result envelope (``202`` with
  the status document while the job is still running; a failed job answers
  with its taxonomy-mapped error).
- ``GET /v1/metrics`` — Prometheus textfile exposition of the service's
  job counters plus every finished job's telemetry slice.
- ``GET /v1/healthz`` — liveness (reports ``draining`` once shutdown began).

Every response body is a ``repro/v1`` envelope; every error maps through
:data:`repro.errors.ERROR_TAXONOMY`, so the HTTP statuses here and the CLI's
exit codes describe failures identically.

``SIGTERM``/``SIGINT`` trigger a graceful drain: new submissions get 503,
queued and running jobs finish, engines close through the existing
:func:`repro.api.shutdown` path (pools stop, verdict caches flush), then the
listener stops.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.core.executor import breaker_states
from repro.core.metrics import render_prometheus_sections
from repro.core.results import PAYLOAD_SCHEMA, envelope
from repro.core.telemetry import CampaignTelemetry
from repro.errors import (
    ERROR_TAXONOMY,
    InputError,
    UnknownJobError,
    error_payload,
    http_status_for,
)
from repro.service.jobs import DONE, FAILED, QUEUED, RUNNING, JobManager, JobSpec
from repro.service.journal import JobJournal

#: Submission size cap: job specs are small; anything bigger is a mistake.
MAX_BODY_BYTES = 1 << 20


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` configures."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 binds an ephemeral port (reported once bound)
    workers: int = 2  #: concurrent job-executing threads
    cache_dir: Optional[str] = None  #: default verdict-cache dir for jobs
    drain_timeout: Optional[float] = None  #: max seconds drain may take
    #: default remote-worker fleet applied to jobs that do not set one
    #: (``HOST:PORT`` listen address or ``queue:DIR``; see ``repro worker``)
    workers_from: Optional[str] = None
    #: write-ahead job journal directory; None disables durability
    journal_dir: Optional[str] = None
    #: journal fsync policy: "always", "interval", or "never"
    journal_fsync: str = "always"
    #: reject submissions once this many jobs are queued or running
    max_queued: Optional[int] = None


class CampaignService:
    """One daemon instance: HTTP listener + job manager, started together."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        journal = None
        if self.config.journal_dir:
            journal = JobJournal(
                self.config.journal_dir,
                fsync_policy=self.config.journal_fsync,
            )
        self.manager = JobManager(
            workers=self.config.workers,
            cache_dir=self.config.cache_dir,
            workers_from=self.config.workers_from,
            journal=journal,
            max_queued=self.config.max_queued,
        )
        service = self

        class Handler(_ServiceHandler):
            manager = self.manager

        self._handler_cls = Handler
        self.server = ThreadingHTTPServer(
            (self.config.host, self.config.port), Handler
        )
        self.server.daemon_threads = True
        self._serve_thread: Optional[threading.Thread] = None
        self._drained = threading.Event()
        self._recovered = False
        del service  # handler binds the manager, not the service

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The actually bound ``(host, port)`` (resolves ephemeral ports)."""
        return self.server.server_address[0], self.server.server_address[1]

    @property
    def url(self) -> str:
        """A *usable* base URL: wildcard binds report a routable address.

        ``0.0.0.0`` / ``::`` accept connections on every interface but are
        not themselves connectable, so clients handed the literal bind host
        would fail; substitute this host's resolvable address instead.
        """
        host, port = self.address
        if host in ("0.0.0.0", "::"):
            host = _routable_host()
        if ":" in host:  # bare IPv6 literals need brackets in URLs
            host = f"[{host}]"
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Replay the job journal once, before workers start executing.

        Recovery must precede :meth:`JobManager.start`: re-enqueued jobs
        belong at the front of history (their submit order is preserved by
        the journal), and completed jobs must be servable the moment the
        listener accepts its first request.
        """
        if self._recovered:
            return
        self._recovered = True
        if self.manager.journal is None:
            return
        report = self.manager.recover()
        if any(report.values()):
            print(
                "repro-service: journal recovery — "
                + ", ".join(f"{k}={v}" for k, v in sorted(report.items()))
            )

    def start(self) -> None:
        """Start workers and the listener on a background thread."""
        self._recover()
        self.manager.start()
        self._serve_thread = threading.Thread(
            target=self.server.serve_forever,
            name="repro-service-listener",
            daemon=True,
        )
        self._serve_thread.start()

    def serve_forever(self, install_signal_handlers: bool = True) -> None:
        """Run until SIGTERM/SIGINT, then drain gracefully (blocking)."""
        if install_signal_handlers:
            signal.signal(signal.SIGTERM, self._signal_shutdown)
            signal.signal(signal.SIGINT, self._signal_shutdown)
        self._recover()
        self.manager.start()
        try:
            self.server.serve_forever()
        finally:
            self._drain()

    def _signal_shutdown(self, signum, frame) -> None:  # pragma: no cover
        # shutdown() must not run on the serve_forever thread; hand it off.
        threading.Thread(
            target=self.server.shutdown, name="repro-service-shutdown"
        ).start()

    def stop(self) -> None:
        """Programmatic graceful shutdown (same path as SIGTERM)."""
        self.server.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        self._drain()

    def _drain(self) -> None:
        if self._drained.is_set():
            return
        self._drained.set()
        self.manager.drain(timeout=self.config.drain_timeout)
        self.server.server_close()


def _routable_host() -> str:
    """This host's best connectable address (loopback when resolution fails)."""
    try:
        host = socket.gethostbyname(socket.gethostname())
    except OSError:
        return "127.0.0.1"
    return host or "127.0.0.1"


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes ``/v1/*`` onto the bound :class:`JobManager`."""

    manager: JobManager  # bound by CampaignService per instance
    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1"

    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the service reports through /v1/metrics, not an access log

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        self._send_body(status, body, "application/json", extra_headers)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Write one response; a client gone mid-write is counted, not thrown.

        ``BrokenPipeError``/``ConnectionResetError`` escaping here would be
        dumped as a traceback to stderr by ``ThreadingHTTPServer`` — the
        client already hung up, so there is nobody to answer; swallow the
        error, bump ``client_disconnects``, and drop the connection.
        """
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (extra_headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError, ConnectionAbortedError):
            self.manager.telemetry.incr("client_disconnects")
            self.close_connection = True

    def _send_error_payload(self, exc: BaseException) -> None:
        # Overload rejections carry a Retry-After so well-behaved clients
        # (ours does — see ServiceClient) back off rather than hammering.
        headers = None
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            headers = {"Retry-After": str(max(1, int(round(retry_after))))}
        self._send_json(
            http_status_for(exc), envelope("error", error_payload(exc)), headers
        )

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        try:
            if self.path.rstrip("/") != "/v1/jobs":
                raise InputError(f"no such endpoint: POST {self.path}")
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0 or length > MAX_BODY_BYTES:
                raise InputError(
                    "request body required (a JSON job spec, at most "
                    f"{MAX_BODY_BYTES} bytes)"
                )
            raw = self.rfile.read(length)
            try:
                payload = json.loads(raw)
            except ValueError as exc:
                raise InputError(f"request body is not JSON: {exc}") from exc
            spec = JobSpec.from_payload(payload)
            job, deduplicated = self.manager.submit(spec)
            self._send_json(
                202,
                envelope(
                    "job-accepted",
                    {
                        "id": job.id,
                        "state": job.state,
                        "deduplicated": deduplicated,
                        "label": job.spec.label,
                    },
                ),
            )
        except Exception as exc:  # noqa: BLE001 - taxonomy maps everything
            self._send_error_payload(exc)

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        try:
            path = self.path.rstrip("/") or "/"
            if path == "/v1/healthz":
                backlog = sum(
                    1
                    for job in self.manager.jobs()
                    if job.state in (QUEUED, RUNNING)
                )
                payload: Dict[str, Any] = {
                    "status": "draining" if self.manager.draining else "ok",
                    "draining": self.manager.draining,
                    "schema": PAYLOAD_SCHEMA,
                    "queue": {
                        "backlog": backlog,
                        "limit": self.manager.max_queued,
                    },
                    "journal": self.manager.journal is not None,
                }
                breakers = breaker_states()
                if breakers:  # only worth reporting when something tripped
                    payload["breakers"] = breakers
                self._send_json(200, envelope("health", payload))
                return
            if path == "/v1/metrics":
                self._send_text(
                    200, self._render_metrics(), "text/plain; version=0.0.4"
                )
                return
            if path == "/v1/jobs":
                # GET /v1/jobs/ (empty id) normalizes here: an *unknown job*
                # (404), not a malformed request (400) or a crash (500).
                raise UnknownJobError(
                    "no job id given",
                    hint="GET /v1/jobs/<id>; ids are returned by POST /v1/jobs",
                )
            if path.startswith("/v1/jobs/"):
                rest = path[len("/v1/jobs/"):]
                if rest.endswith("/result"):
                    self._get_result(rest[: -len("/result")])
                else:
                    self._send_json(200, self.manager.get(rest).status_payload())
                return
            raise InputError(f"no such endpoint: GET {self.path}")
        except Exception as exc:  # noqa: BLE001 - taxonomy maps everything
            self._send_error_payload(exc)

    # ------------------------------------------------------------------
    def _get_result(self, job_id: str) -> None:
        job = self.manager.get(job_id)
        if job.state == FAILED:
            assert job.error is not None
            # The stored payload keeps the original code ("internal" for
            # non-ReproError escapes), so map it straight off the table.
            _, status = ERROR_TAXONOMY.get(str(job.error.get("code")), (1, 500))
            self._send_json(status, envelope("error", job.error))
            return
        if job.state != DONE:
            # Not ready yet: answer 202 with the status document so pollers
            # need only this endpoint.
            self._send_json(202, job.status_payload())
            return
        assert job.result is not None
        self._send_json(200, job.result)

    def _render_metrics(self) -> str:
        """Service counters + per-job telemetry slices, one exposition doc."""
        sections = [(self.manager.telemetry, {"scope": "service"})]
        for job in self.manager.jobs():
            if job.telemetry is not None:
                sections.append(
                    (
                        CampaignTelemetry.from_snapshot(job.telemetry),
                        {"scope": "job", "job": job.id, "kind": job.spec.kind},
                    )
                )
        return render_prometheus_sections(sections)
