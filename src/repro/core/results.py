"""Result records, aggregation helpers, and the versioned payload envelope.

Every externally visible result — CLI ``--format json`` output, campaign
service responses, and the ``to_payload`` methods themselves — is wrapped in
one versioned envelope::

    {"schema": "repro/v1", "kind": "delayavf" | "savf", "result": {...}}

so consumers can dispatch on ``kind`` and future schema revisions can be
detected instead of misparsed.  :func:`envelope` wraps, :func:`unwrap_payload`
unwraps (refusing a payload without the envelope), and
:func:`result_from_payload` is the single round-trip helper that turns any
enveloped payload back into the matching result object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.group_ace import Outcome
from repro.core.stats import (
    DEFAULT_CONFIDENCE,
    ConfidenceInterval,
    bootstrap_interval,
    wilson_interval,
)
from repro.core.telemetry import CampaignTelemetry
from repro.errors import InputError

#: The one schema identifier every enveloped payload carries.
PAYLOAD_SCHEMA = "repro/v1"


def envelope(kind: str, result: Dict) -> Dict:
    """Wrap a bare result payload in the versioned v1 envelope."""
    return {"schema": PAYLOAD_SCHEMA, "kind": kind, "result": result}


def is_enveloped(payload: Mapping) -> bool:
    """Whether *payload* is a v1 envelope (vs a bare result payload)."""
    return "schema" in payload and "result" in payload


def unwrap_payload(
    payload: Mapping, expected_kind: Optional[str] = None
) -> Tuple[str, Mapping]:
    """``(kind, bare payload)`` of an enveloped payload.

    A payload without the envelope, an envelope with a schema this build
    does not read, or a kind differing from *expected_kind* raises
    :class:`repro.errors.InputError` — misparsing a future schema silently
    would be worse than refusing it.
    """
    if not is_enveloped(payload):
        raise InputError(
            f"payload is not a {PAYLOAD_SCHEMA!r} envelope",
            hint="a result's to_payload() returns the envelope",
        )
    schema = payload.get("schema")
    if schema != PAYLOAD_SCHEMA:
        raise InputError(
            f"payload schema {schema!r} is not {PAYLOAD_SCHEMA!r}",
            hint="this build reads repro/v1 envelopes; upgrade one side",
        )
    kind = payload.get("kind")
    if expected_kind is not None and kind != expected_kind:
        raise InputError(
            f"payload kind {kind!r} is not {expected_kind!r}",
            hint="check which result type this payload was produced from",
        )
    return kind, payload["result"]


@dataclass(frozen=True)
class InjectionRecord:
    """Outcome of one (wire, cycle, delay) injection."""

    wire_index: int
    cycle: int
    delay_fraction: float
    statically_reachable: bool
    num_statically_reachable: int
    num_errors: int  #: |dynamically reachable set|
    outcome: Outcome
    or_ace: Optional[bool] = None  #: ORACE verdict (None when set is empty)

    @property
    def dynamically_reachable(self) -> bool:
        return self.num_errors > 0

    @property
    def delay_ace(self) -> bool:
        return self.outcome.is_failure

    @property
    def multi_bit(self) -> bool:
        return self.num_errors > 1


@dataclass
class DelayAVFResult:
    """Aggregated DelayAVF estimate for one (structure, benchmark, d)."""

    structure: str
    benchmark: str
    delay_fraction: float
    records: List[InjectionRecord] = field(default_factory=list)

    @property
    def samples(self) -> int:
        return len(self.records)

    def _rate(self, predicate) -> float:
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if predicate(r)) / len(self.records)

    def _interval(
        self,
        predicate,
        confidence: float,
        method: str,
        seed: int,
    ) -> ConfidenceInterval:
        successes = sum(1 for r in self.records if predicate(r))
        if method == "wilson":
            return wilson_interval(successes, self.samples, confidence)
        if method == "bootstrap":
            return bootstrap_interval(
                successes, self.samples, confidence, seed=seed
            )
        raise ValueError(f"unknown interval method: {method!r}")

    # ------------------------------------------------------------------
    # Confidence intervals — the records are a Bernoulli sample over the
    # (wire, cycle) population, so every rate gets a binomial interval.
    # The seed for the bootstrap variant is derived from the estimator name
    # so intervals stay deterministic per (records, estimator).
    # ------------------------------------------------------------------
    def delay_avf_ci(
        self,
        confidence: float = DEFAULT_CONFIDENCE,
        method: str = "wilson",
    ) -> ConfidenceInterval:
        return self._interval(
            lambda r: r.delay_ace, confidence, method, seed=1
        )

    def or_delay_avf_ci(
        self,
        confidence: float = DEFAULT_CONFIDENCE,
        method: str = "wilson",
    ) -> ConfidenceInterval:
        return self._interval(
            lambda r: bool(r.or_ace), confidence, method, seed=2
        )

    @property
    def static_reach_rate(self) -> float:
        """Fraction of injections with >=1 statically reachable element (Fig. 8)."""
        return self._rate(lambda r: r.statically_reachable)

    @property
    def dynamic_reach_rate(self) -> float:
        """Fraction of injections producing >=1 state element error (Fig. 8)."""
        return self._rate(lambda r: r.dynamically_reachable)

    @property
    def delay_avf(self) -> float:
        """The DelayAVF estimate (Eq. 3, sampled)."""
        return self._rate(lambda r: r.delay_ace)

    @property
    def or_delay_avf(self) -> float:
        """OrDelayAVF: GroupACE replaced by ORACE (Definition 6)."""
        return self._rate(lambda r: bool(r.or_ace))

    @property
    def sdc_rate(self) -> float:
        return self._rate(lambda r: r.outcome is Outcome.SDC)

    @property
    def due_rate(self) -> float:
        return self._rate(lambda r: r.outcome is Outcome.DUE)

    # ------------------------------------------------------------------
    # Multi-bit / confounding-effect accounting (Table III, Observation 2)
    # ------------------------------------------------------------------
    @property
    def error_sets(self) -> List[InjectionRecord]:
        """Injections with a non-empty dynamically reachable set."""
        return [r for r in self.records if r.dynamically_reachable]

    @property
    def multi_bit_fraction(self) -> float:
        """Among error-producing SDFs, the fraction with multi-bit errors."""
        sets = self.error_sets
        if not sets:
            return 0.0
        return sum(1 for r in sets if r.multi_bit) / len(sets)

    @property
    def interference_rate(self) -> float:
        """ACE interference as % of dynamically reachable sets (Table III)."""
        sets = self.error_sets
        if not sets:
            return 0.0
        hits = sum(1 for r in sets if r.or_ace and not r.delay_ace)
        return hits / len(sets)

    @property
    def compounding_rate(self) -> float:
        """ACE compounding as % of dynamically reachable sets (Table III)."""
        sets = self.error_sets
        if not sets:
            return 0.0
        hits = sum(1 for r in sets if r.delay_ace and not r.or_ace)
        return hits / len(sets)

    @property
    def relative_change(self) -> float:
        """|DelayAVF − OrDelayAVF| / DelayAVF (Table III's Rel. Change)."""
        if self.delay_avf == 0.0:
            return 0.0 if self.or_delay_avf == 0.0 else math.inf
        return abs(self.delay_avf - self.or_delay_avf) / self.delay_avf


@dataclass
class StructureCampaignResult:
    """All per-delay results for one (structure, benchmark) campaign."""

    structure: str
    benchmark: str
    wire_count: int  #: |E| of the structure (Table I)
    sampled_wires: int
    sampled_cycles: Tuple[int, ...]
    by_delay: Dict[float, DelayAVFResult] = field(default_factory=dict)
    #: counters/timers of the campaign that produced this result; excluded
    #: from equality so serial and parallel runs compare identical.
    telemetry: Optional[CampaignTelemetry] = field(default=None, compare=False)
    #: True when fault-tolerant execution limped home (a shard timed out, the
    #: worker pool was rebuilt, or shards fell back to serial execution).
    #: Execution metadata like telemetry: the records themselves stay
    #: byte-identical to a clean run, so it is excluded from equality.
    degraded: bool = field(default=False, compare=False)
    #: True when the post-merge invariant guards (:mod:`repro.core.guards`)
    #: found the result violating an algebraic invariant the paper
    #: guarantees.  Like ``degraded`` it annotates rather than identifies:
    #: two runs over the same records are the same result even if only one
    #: of them ran the guards.
    suspect: bool = field(default=False, compare=False)
    #: Machine-readable guard-violation codes (``code: detail`` strings),
    #: empty when the result is clean or the guards did not run.
    suspect_reasons: Tuple[str, ...] = field(default=(), compare=False)

    def delay_avf(self, delay_fraction: float) -> float:
        return self.by_delay[delay_fraction].delay_avf

    @property
    def delay_fractions(self) -> Tuple[float, ...]:
        return tuple(sorted(self.by_delay))

    # ------------------------------------------------------------------
    # JSON-friendly round-trip (CLI ``--format json``)
    # ------------------------------------------------------------------
    #: The envelope ``kind`` of this result type.
    PAYLOAD_KIND = "delayavf"

    def to_payload(self) -> Dict:
        """The enveloped JSON form that :meth:`from_payload` round-trips.

        Returns a :data:`PAYLOAD_SCHEMA` envelope whose ``result`` is the
        bare payload of :meth:`result_payload`.
        """
        return envelope(self.PAYLOAD_KIND, self.result_payload())

    def result_payload(self) -> Dict:
        """The bare (un-enveloped) JSON-serializable dict.

        ``by_delay`` flattens to a list (JSON object keys must be strings;
        floats would lose identity), each delay carrying its full record
        list plus derived summary rates for human and script consumers.
        Telemetry
        is deliberately excluded: it is execution metadata, not part of the
        campaign's result identity.  The ``degraded`` flag *is* included —
        operators filtering campaign outputs need to see which runs limped
        home — but, like telemetry, it never participates in equality.
        """
        return {
            "structure": self.structure,
            "benchmark": self.benchmark,
            "wire_count": self.wire_count,
            "sampled_wires": self.sampled_wires,
            "sampled_cycles": list(self.sampled_cycles),
            "degraded": self.degraded,
            "suspect": self.suspect,
            "suspect_reasons": list(self.suspect_reasons),
            "by_delay": [
                {
                    "delay_fraction": delay,
                    "summary": {
                        "samples": result.samples,
                        "static_reach_rate": result.static_reach_rate,
                        "dynamic_reach_rate": result.dynamic_reach_rate,
                        "delay_avf": result.delay_avf,
                        "or_delay_avf": result.or_delay_avf,
                        "multi_bit_fraction": result.multi_bit_fraction,
                        "delay_avf_ci": result.delay_avf_ci().to_payload(),
                        "or_delay_avf_ci": result.or_delay_avf_ci().to_payload(),
                    },
                    "records": [
                        {
                            "wire_index": r.wire_index,
                            "cycle": r.cycle,
                            "delay_fraction": r.delay_fraction,
                            "statically_reachable": r.statically_reachable,
                            "num_statically_reachable": r.num_statically_reachable,
                            "num_errors": r.num_errors,
                            "outcome": r.outcome.name,
                            "or_ace": r.or_ace,
                        }
                        for r in result.records
                    ],
                }
                for delay, result in sorted(self.by_delay.items())
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "StructureCampaignResult":
        """Rebuild a result from :meth:`to_payload` output (summaries are
        recomputed from the records, so only the records are trusted).

        Reads the v1 envelope only.
        """
        _, payload = unwrap_payload(payload, expected_kind=cls.PAYLOAD_KIND)
        by_delay = {}
        for entry in payload["by_delay"]:
            delay = entry["delay_fraction"]
            by_delay[delay] = DelayAVFResult(
                structure=payload["structure"],
                benchmark=payload["benchmark"],
                delay_fraction=delay,
                records=[
                    InjectionRecord(
                        wire_index=r["wire_index"],
                        cycle=r["cycle"],
                        delay_fraction=r["delay_fraction"],
                        statically_reachable=r["statically_reachable"],
                        num_statically_reachable=r["num_statically_reachable"],
                        num_errors=r["num_errors"],
                        outcome=Outcome[r["outcome"]],
                        or_ace=r["or_ace"],
                    )
                    for r in entry["records"]
                ],
            )
        return cls(
            structure=payload["structure"],
            benchmark=payload["benchmark"],
            wire_count=payload["wire_count"],
            sampled_wires=payload["sampled_wires"],
            sampled_cycles=tuple(payload["sampled_cycles"]),
            by_delay=by_delay,
            degraded=bool(payload.get("degraded", False)),
            suspect=bool(payload.get("suspect", False)),
            suspect_reasons=tuple(payload.get("suspect_reasons", ())),
        )


@dataclass(frozen=True)
class SAVFResult:
    """Particle-strike AVF estimate for one (structure, benchmark)."""

    structure: str
    benchmark: str
    samples: int
    ace_count: int
    sdc_count: int
    due_count: int

    @property
    def savf(self) -> float:
        return self.ace_count / self.samples if self.samples else 0.0

    def savf_ci(
        self,
        confidence: float = DEFAULT_CONFIDENCE,
        method: str = "wilson",
    ) -> ConfidenceInterval:
        """Binomial interval for the sampled bit-flip ACE proportion."""
        if method == "wilson":
            return wilson_interval(self.ace_count, self.samples, confidence)
        if method == "bootstrap":
            return bootstrap_interval(
                self.ace_count, self.samples, confidence, seed=5
            )
        raise ValueError(f"unknown interval method: {method!r}")

    #: The envelope ``kind`` of this result type.
    PAYLOAD_KIND = "savf"

    def to_payload(self) -> Dict:
        """The enveloped JSON form that :meth:`from_payload` round-trips."""
        return envelope(self.PAYLOAD_KIND, self.result_payload())

    def result_payload(self) -> Dict:
        """The bare (un-enveloped) JSON-serializable dict."""
        return {
            "structure": self.structure,
            "benchmark": self.benchmark,
            "samples": self.samples,
            "ace_count": self.ace_count,
            "sdc_count": self.sdc_count,
            "due_count": self.due_count,
            "savf": self.savf,
            "savf_ci": self.savf_ci().to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "SAVFResult":
        """Rebuild from :meth:`to_payload` output (the v1 envelope)."""
        _, payload = unwrap_payload(payload, expected_kind=cls.PAYLOAD_KIND)
        return cls(
            structure=payload["structure"],
            benchmark=payload["benchmark"],
            samples=payload["samples"],
            ace_count=payload["ace_count"],
            sdc_count=payload["sdc_count"],
            due_count=payload["due_count"],
        )


def result_from_payload(
    payload: Mapping,
) -> Union[StructureCampaignResult, SAVFResult]:
    """The single round-trip helper: any result payload back to its object.

    Dispatches on the envelope ``kind`` and hands the envelope to the
    matching ``from_payload``.  Raises :class:`repro.errors.InputError` for
    a payload without the envelope and for kinds this build cannot rebuild.
    """
    kind, _ = unwrap_payload(payload)
    for result_type in (StructureCampaignResult, SAVFResult):
        if kind == result_type.PAYLOAD_KIND:
            return result_type.from_payload(payload)
    raise InputError(
        f"cannot rebuild a result from payload kind {kind!r}",
        hint="known kinds: delayavf, savf",
    )


# ----------------------------------------------------------------------
# Aggregation helpers (the paper reports normalized geometric means)
# ----------------------------------------------------------------------
def geometric_mean(values: Iterable[float], epsilon: float = 1e-6) -> float:
    """Geometric mean with an epsilon floor (AVFs can legitimately be 0)."""
    values = list(values)
    if not values:
        return 0.0
    log_sum = sum(math.log(max(v, epsilon)) for v in values)
    mean = math.exp(log_sum / len(values))
    return 0.0 if mean <= epsilon * (1 + 1e-9) else mean


def normalize(series: Mapping[str, float]) -> Dict[str, float]:
    """Scale a series so its maximum is 1.0 (paper's normalized plots)."""
    peak = max(series.values(), default=0.0)
    if peak == 0.0:
        return dict(series)
    return {key: value / peak for key, value in series.items()}
