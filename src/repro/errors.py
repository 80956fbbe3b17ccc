"""Unified error hierarchy and taxonomy for user-facing failures.

Every error the preflight layer (``repro doctor``, the strict-mode checks in
:mod:`repro.api`), the campaign engine, or the campaign service raises on
*bad input* derives from :class:`ReproError`, so callers — and pipelines
gating on the CLI — can catch one type and still dispatch on the
machine-readable :attr:`ReproError.code`.  Errors carry an optional *hint*:
one actionable sentence telling the operator what to change (raise a knob,
fix a path, regenerate a file).

Programming errors (assertion failures, internal invariant breaks) stay
ordinary exceptions; :class:`ReproError` is reserved for problems the caller
can fix.

The **taxonomy table** (:data:`ERROR_TAXONOMY`) is the single mapping from
error codes to how each surface reports them: the CLI exit code (``repro
doctor``'s 0/1/2 contract extended to every subcommand) and the HTTP status
the campaign service answers with.  The CLI resolves exits through
:func:`exit_code_for` and the service resolves statuses through
:func:`http_status_for`, so the two surfaces can never disagree about what a
given failure *is* — only about how their transport spells it.

Errors also round-trip as JSON: :func:`error_payload` renders any exception
into the wire form the service returns, and :func:`error_from_payload`
rebuilds the matching :class:`ReproError` subclass on the client, so a
remote failure raises exactly what a local call would have raised.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Type

__all__ = [
    "ReproError",
    "InputError",
    "TimingError",
    "WorkloadError",
    "CacheError",
    "UnknownJobError",
    "ServiceDrainingError",
    "ServiceUnavailableError",
    "ServiceOverloadedError",
    "JobTimeoutError",
    "EXIT_OK",
    "EXIT_FATAL",
    "EXIT_WARNINGS",
    "ERROR_TAXONOMY",
    "exit_code_for",
    "http_status_for",
    "error_payload",
    "error_from_payload",
]

#: The CLI exit-code contract (``repro doctor`` defined it; every subcommand
#: follows it): 0 = clean, 1 = fatal error, 2 = warnings only.
EXIT_OK = 0
EXIT_FATAL = 1
EXIT_WARNINGS = 2


class ReproError(Exception):
    """Base of every user-fixable failure raised by this package.

    :attr:`code` is a stable machine-readable category (subclasses override
    it); :attr:`hint` is an optional actionable remedy surfaced by the CLI.
    """

    code: str = "repro"

    def __init__(self, message: str, *, hint: Optional[str] = None):
        super().__init__(message)
        self.hint = hint

    def describe(self) -> str:
        """``message (hint: ...)`` — the CLI's one-line rendering."""
        message = str(self)
        if self.hint:
            return f"{message} (hint: {self.hint})"
        return message


class InputError(ReproError):
    """Malformed or unknown user input (benchmark names, config values)."""

    code = "input"


class TimingError(ReproError):
    """Inconsistent timing view: bad library values, or a clock period that
    the netlist's longest register-to-register path does not meet."""

    code = "timing"


class WorkloadError(ReproError):
    """A workload that cannot produce a valid golden run under the config."""

    code = "workload"


class CacheError(ReproError):
    """The persistent verdict-cache directory is unusable."""

    code = "cache"


class UnknownJobError(ReproError):
    """A job id the campaign service has never seen (or has evicted)."""

    code = "unknown-job"


class ServiceDrainingError(ReproError):
    """The campaign service is draining (SIGTERM received) and no longer
    accepts new jobs; in-flight jobs finish and results stay readable."""

    code = "draining"


class ServiceUnavailableError(ReproError):
    """The campaign service could not be reached at all — connection
    refused, DNS failure, or a network-level timeout (as opposed to the
    service itself answering with an error envelope)."""

    code = "unavailable"


class ServiceOverloadedError(ReproError):
    """The campaign service's bounded job queue is full (backpressure).

    Unlike :class:`ServiceDrainingError` this is transient by design: the
    service answers HTTP 429 with a ``Retry-After`` header, and
    :class:`repro.client.ServiceClient` retries submissions with jittered
    backoff.  :attr:`retry_after` is the server's suggested wait in seconds.
    """

    code = "overloaded"

    def __init__(
        self,
        message: str,
        *,
        hint: Optional[str] = None,
        retry_after: float = 1.0,
    ):
        super().__init__(message, hint=hint)
        self.retry_after = float(retry_after)


class JobTimeoutError(ReproError):
    """A client-side wait on a job outlived its polling deadline.  The job
    itself may still be running; only the wait gave up."""

    code = "timeout"


#: ``code -> (CLI exit code, HTTP status)``: the one table both surfaces
#: report from.  Validation failures are client errors (400); a job id the
#: service does not know is 404; a draining service is temporarily
#: unavailable (503).
ERROR_TAXONOMY: Dict[str, Tuple[int, int]] = {
    "repro": (EXIT_FATAL, 400),
    "input": (EXIT_FATAL, 400),
    "timing": (EXIT_FATAL, 400),
    "workload": (EXIT_FATAL, 400),
    "cache": (EXIT_FATAL, 400),
    "unknown-job": (EXIT_FATAL, 404),
    "draining": (EXIT_FATAL, 503),
    "unavailable": (EXIT_FATAL, 503),
    "overloaded": (EXIT_FATAL, 429),
    "timeout": (EXIT_FATAL, 504),
}

#: ``code -> class`` registry used to rebuild typed errors from payloads.
_ERROR_CLASSES: Dict[str, Type[ReproError]] = {
    cls.code: cls
    for cls in (
        ReproError,
        InputError,
        TimingError,
        WorkloadError,
        CacheError,
        UnknownJobError,
        ServiceDrainingError,
        ServiceUnavailableError,
        ServiceOverloadedError,
        JobTimeoutError,
    )
}


def _taxonomy_row(exc: BaseException) -> Tuple[int, int]:
    code = getattr(exc, "code", None)
    if code in ERROR_TAXONOMY:
        return ERROR_TAXONOMY[code]
    if isinstance(exc, ReproError):
        return ERROR_TAXONOMY["repro"]
    # Non-ReproError escapes are internal faults: fatal exit, HTTP 500.
    return (EXIT_FATAL, 500)


def exit_code_for(exc: BaseException) -> int:
    """The CLI exit code the taxonomy assigns to *exc* (1 for unknowns)."""
    return _taxonomy_row(exc)[0]


def http_status_for(exc: BaseException) -> int:
    """The HTTP status the taxonomy assigns to *exc* (500 for unknowns)."""
    return _taxonomy_row(exc)[1]


def error_payload(exc: BaseException) -> Dict[str, object]:
    """The wire form of an error (what the service's error envelope carries).

    ``code`` is the taxonomy category (``"internal"`` for non-
    :class:`ReproError` escapes — those are bugs, not user input), ``message``
    the human-readable description, ``hint`` the optional remedy.
    """
    if isinstance(exc, ReproError):
        payload: Dict[str, object] = {
            "code": exc.code,
            "message": str(exc),
            "hint": exc.hint,
        }
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            payload["retry_after"] = retry_after
        return payload
    return {
        "code": "internal",
        "message": f"{type(exc).__name__}: {exc}",
        "hint": None,
    }


def error_from_payload(payload: Mapping) -> ReproError:
    """Rebuild the typed :class:`ReproError` a wire payload describes.

    Unknown codes (including ``"internal"``) come back as the base
    :class:`ReproError`, so clients always get the one catchable type.
    """
    cls = _ERROR_CLASSES.get(str(payload.get("code")), ReproError)
    kwargs = {"hint": payload.get("hint") or None}
    if cls is ServiceOverloadedError:
        try:
            kwargs["retry_after"] = float(payload.get("retry_after", 1.0))
        except (TypeError, ValueError):
            pass
    return cls(str(payload.get("message", "unknown error")), **kwargs)
