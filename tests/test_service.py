"""Campaign service: job model, dedupe, HTTP daemon, client, envelopes."""

import json
import threading
import time

import pytest

from repro import api
from repro.client import ServiceClient
from repro.core.campaign import CampaignConfig
from repro.core.results import (
    PAYLOAD_SCHEMA,
    envelope,
    is_enveloped,
    result_from_payload,
    unwrap_payload,
)
from repro.errors import (
    CacheError,
    ERROR_TAXONOMY,
    InputError,
    JobTimeoutError,
    ReproError,
    ServiceDrainingError,
    ServiceUnavailableError,
    UnknownJobError,
    error_from_payload,
    error_payload,
    exit_code_for,
    http_status_for,
)
from repro.service import CampaignService, JobManager, JobSpec, ServiceConfig

SMALL_CONFIG = {
    "delay_fractions": [0.9],
    "cycle_count": 2,
    "max_wires": 3,
    "seed": 0,
}

ANALYZE_SPEC = {
    "kind": "analyze",
    "structure": "lsu",
    "benchmark": "libstrstr",
    "config": SMALL_CONFIG,
}


@pytest.fixture(autouse=True)
def _fresh_facade():
    yield
    api.shutdown()


# ----------------------------------------------------------------------
# The versioned payload envelope (satellite: repro/v1)
# ----------------------------------------------------------------------
def test_envelope_round_trip():
    wrapped = envelope("delayavf", {"x": 1})
    assert wrapped["schema"] == PAYLOAD_SCHEMA
    assert is_enveloped(wrapped)
    kind, bare = unwrap_payload(wrapped)
    assert kind == "delayavf" and bare == {"x": 1}


def test_unwrap_rejects_bare_payloads():
    with pytest.raises(InputError, match="envelope"):
        unwrap_payload({"by_delay": []})


def test_unwrap_rejects_foreign_schema_and_kind():
    with pytest.raises(InputError, match="schema"):
        unwrap_payload({"schema": "repro/v99", "kind": "x", "result": {}})
    with pytest.raises(InputError, match="kind"):
        unwrap_payload(envelope("savf", {}), expected_kind="delayavf")


def test_result_from_payload_dispatches_on_kind():
    result = api.analyze(
        "lsu", "libstrstr", config=CampaignConfig(**{
            "delay_fractions": (0.9,), "cycle_count": 2, "max_wires": 3,
        })
    )
    rebuilt = result_from_payload(result.to_payload())
    assert rebuilt == result
    savf = api.savf("lsu", "libstrstr", bits=4, config=CampaignConfig(
        delay_fractions=(0.9,), cycle_count=2, max_wires=3,
    ))
    assert result_from_payload(savf.to_payload()) == savf
    with pytest.raises(InputError, match="kind"):
        result_from_payload(envelope("mystery", {}))


# ----------------------------------------------------------------------
# Error taxonomy (satellite: one table, two surfaces)
# ----------------------------------------------------------------------
def test_taxonomy_maps_every_code():
    assert ERROR_TAXONOMY["input"] == (1, 400)
    assert ERROR_TAXONOMY["unknown-job"] == (1, 404)
    assert ERROR_TAXONOMY["draining"] == (1, 503)
    for exc in (
        InputError("x"), CacheError("x"), UnknownJobError("x"),
        ServiceDrainingError("x"),
    ):
        assert exit_code_for(exc) == ERROR_TAXONOMY[exc.code][0]
        assert http_status_for(exc) == ERROR_TAXONOMY[exc.code][1]
    # Non-ReproError escapes are internal faults: fatal exit, HTTP 500.
    assert exit_code_for(RuntimeError("boom")) == 1
    assert http_status_for(RuntimeError("boom")) == 500


def test_error_payload_round_trips_typed():
    original = UnknownJobError("no such job", hint="submit first")
    rebuilt = error_from_payload(error_payload(original))
    assert type(rebuilt) is UnknownJobError
    assert str(rebuilt) == "no such job" and rebuilt.hint == "submit first"
    internal = error_payload(RuntimeError("boom"))
    assert internal["code"] == "internal"
    assert type(error_from_payload(internal)) is ReproError


# ----------------------------------------------------------------------
# Job specs: validation and content-addressed identity
# ----------------------------------------------------------------------
def test_job_spec_identity_excludes_priority():
    base = JobSpec.from_payload(ANALYZE_SPEC)
    urgent = JobSpec.from_payload({**ANALYZE_SPEC, "priority": 9})
    assert base.job_id == urgent.job_id
    assert base.job_id.startswith("job-")
    other = JobSpec.from_payload({**ANALYZE_SPEC, "structure": "decoder"})
    assert other.job_id != base.job_id


def test_job_spec_validation():
    with pytest.raises(InputError, match="kind"):
        JobSpec.from_payload({**ANALYZE_SPEC, "kind": "explode"})
    with pytest.raises(InputError, match="structure"):
        JobSpec.from_payload({**ANALYZE_SPEC, "structure": "warp-core"})
    with pytest.raises(InputError, match="benchmark"):
        JobSpec.from_payload({**ANALYZE_SPEC, "benchmark": "quicksort"})
    with pytest.raises(InputError, match="unknown job field"):
        JobSpec.from_payload({**ANALYZE_SPEC, "frobnicate": 1})
    with pytest.raises(InputError, match="confidence"):
        JobSpec.from_payload({**ANALYZE_SPEC, "confidence": 1.5})
    with pytest.raises(InputError, match="target_half_width"):
        JobSpec.from_payload(
            {**ANALYZE_SPEC, "kind": "savf", "target_half_width": 0.1}
        )
    with pytest.raises(InputError, match="config"):
        JobSpec.from_payload({**ANALYZE_SPEC, "config": {"warp": 9}})
    # Where a run reports is no config field: a client still sending one
    # hears about it instead of silently running without it.
    with pytest.raises(InputError, match="progress"):
        JobSpec.from_payload(
            {**ANALYZE_SPEC, "config": {**SMALL_CONFIG, "progress": True}}
        )
    # Nor is resuming: the record cache serves every re-run on its own.
    with pytest.raises(InputError, match="resume"):
        JobSpec.from_payload(
            {**ANALYZE_SPEC, "config": {**SMALL_CONFIG, "resume": True}}
        )
    # Nor is the lane width: every campaign packs 64 lanes to a word.
    with pytest.raises(InputError, match="lanes"):
        JobSpec.from_payload(
            {**ANALYZE_SPEC, "config": {**SMALL_CONFIG, "lanes": 64}}
        )
    # A config naming only the cycle fraction keeps the count's default: it
    # is rejected at submission, not when the job runs.
    with pytest.raises(InputError, match="cycle_count / cycle_fraction"):
        JobSpec.from_payload(
            {**ANALYZE_SPEC, "config": {"cycle_fraction": 0.04}}
        )
    with pytest.raises(InputError, match="structures"):
        JobSpec.from_payload({"kind": "sweep", "benchmarks": ["libstrstr"]})


@pytest.mark.parametrize(
    "payload, field",
    [
        ({**ANALYZE_SPEC, "benchmarks": ["libfibcall"]}, "'benchmarks'"),
        ({**ANALYZE_SPEC, "kind": "savf", "structures": ["alu"]},
         "'structures'"),
        ({"kind": "sweep", "structures": ["alu"], "benchmarks": ["libstrstr"],
          "structure": "decoder"}, "'structure'"),
        ({"kind": "genwork", "structure": "alu", "structures": ["decoder"]},
         "'structures'"),
    ],
    ids=["analyze", "savf", "sweep", "genwork"],
)
def test_job_spec_rejects_the_other_forms_fields(payload, field):
    """A key of the other spec form is refused by name, not ignored."""
    with pytest.raises(InputError, match=field):
        JobSpec.from_payload(payload)


def test_journal_replay_skips_a_config_field_this_build_removed(
    tmp_path, capsys
):
    """A job journaled by a build whose config still had a field this one
    removed no longer validates: replay warns, naming it, and skips it."""
    import hashlib

    from repro.service.journal import JobJournal

    canonical = JobSpec.from_payload(ANALYZE_SPEC).canonical()
    journal = JobJournal(tmp_path / "journal")
    # Each with a value the build that journaled it accepted.
    for removed, value in (("stats", False), ("resume", False), ("lanes", 64)):
        stale = {
            **canonical, "config": {**canonical["config"], removed: value}
        }
        digest = hashlib.sha256(
            json.dumps(stale, sort_keys=True).encode("utf-8")
        ).hexdigest()
        journal.record_submitted(f"job-{digest[:20]}", stale, 0)
    journal.close()
    manager = JobManager(journal=JobJournal(tmp_path / "journal"))
    counts = manager.recover()
    manager.journal.close()
    assert counts["skipped"] == 3
    assert counts["requeued"] == counts["recovered"] == 0
    assert manager.jobs() == []
    err = capsys.readouterr().err
    assert "no longer validates" in err
    assert "stats" in err and "resume" in err and "lanes" in err


# ----------------------------------------------------------------------
# Tentpole: dedupe — two identical concurrent submissions, one simulation
# ----------------------------------------------------------------------
def test_concurrent_identical_submissions_share_one_run():
    manager = JobManager(workers=2)
    spec = JobSpec.from_payload(ANALYZE_SPEC)
    outcomes = []
    barrier = threading.Barrier(2)

    def client():
        barrier.wait()
        job, deduped = manager.submit(spec)
        job.wait(timeout=300)
        outcomes.append((job, deduped, job.result))

    stats_before = api.engine_cache_stats()
    threads = [threading.Thread(target=client) for _ in range(2)]
    for thread in threads:
        thread.start()
    manager.start()
    for thread in threads:
        thread.join()

    assert len(outcomes) == 2
    (job_a, dedup_a, result_a), (job_b, dedup_b, result_b) = outcomes
    # Both clients landed on the same job; exactly one was flagged deduped.
    assert job_a is job_b
    assert sorted((dedup_a, dedup_b)) == [False, True]
    # Two identical enveloped results...
    assert result_a == result_b
    assert result_a["schema"] == PAYLOAD_SCHEMA
    assert result_a["kind"] == "delayavf"
    # ...from one simulation: one engine built, one campaign's injections.
    stats = api.engine_cache_stats()
    assert stats["misses"] - stats_before["misses"] == 1
    assert manager.telemetry.count("jobs_submitted") == 2
    assert manager.telemetry.count("jobs_deduplicated") == 1
    assert manager.telemetry.count("jobs_completed") == 1
    assert job_a.telemetry["counters"]["injections"] > 0
    assert result_a["result"]["by_delay"][0]["records"]
    assert manager.drain(timeout=30)


def test_resubmission_after_completion_serves_stored_result():
    manager = JobManager(workers=1)
    manager.start()
    spec = JobSpec.from_payload(ANALYZE_SPEC)
    job, deduped = manager.submit(spec)
    assert not deduped
    assert job.wait(timeout=300)
    again, deduped = manager.submit(spec)
    assert deduped and again is job and again.result is job.result
    assert again.submissions == 2
    assert manager.drain(timeout=30)


def test_duplicate_submission_raises_queued_priority():
    manager = JobManager(workers=1)  # never started: stays queued
    job, _ = manager.submit(JobSpec.from_payload(ANALYZE_SPEC))
    assert job.priority == 0
    raised, deduped = manager.submit(
        JobSpec.from_payload({**ANALYZE_SPEC, "priority": 7})
    )
    assert deduped and raised is job and job.priority == 7


def test_draining_manager_rejects_submissions():
    manager = JobManager(workers=1)
    manager.start()
    assert manager.drain(timeout=10)
    with pytest.raises(ServiceDrainingError):
        manager.submit(JobSpec.from_payload(ANALYZE_SPEC))


def test_unknown_job_raises():
    manager = JobManager(workers=1)
    with pytest.raises(UnknownJobError, match="unknown job"):
        manager.get("job-doesnotexist")


# ----------------------------------------------------------------------
# Warm path: a fresh manager over the same cache dir re-simulates nothing
# ----------------------------------------------------------------------
def test_repeat_query_on_shared_cache_runs_zero_injections(tmp_path):
    spec = JobSpec.from_payload(ANALYZE_SPEC)

    def run_once():
        manager = JobManager(workers=1, cache_dir=str(tmp_path))
        manager.start()
        job, _ = manager.submit(spec)
        assert job.wait(timeout=300)
        assert job.state == "done", job.error
        assert manager.drain(timeout=30)
        return job

    first = run_once()
    assert first.telemetry["counters"].get("injections", 0) > 0
    api.shutdown()  # cold process boundary: only the disk cache survives
    second = run_once()
    assert second.result == first.result
    assert second.telemetry["counters"].get("injections", 0) == 0
    assert second.telemetry["counters"].get("record_cache_hits", 0) > 0


# ----------------------------------------------------------------------
# The HTTP daemon end to end (tentpole)
# ----------------------------------------------------------------------
@pytest.fixture()
def service():
    service = CampaignService(ServiceConfig(port=0, workers=2))
    service.start()
    yield service
    service.stop()


def test_service_http_round_trip_matches_direct_api(service):
    # The reference result, straight through the facade.
    direct = api.analyze(
        "lsu", "libstrstr",
        config=CampaignConfig(
            delay_fractions=(0.9,), cycle_count=2, max_wires=3, seed=0
        ),
    )
    client = ServiceClient(service.url)
    assert client.healthz()["status"] == "ok"

    info = client.submit_info(ANALYZE_SPEC)
    assert info["deduplicated"] is False
    payload = client.result(info["id"], wait=True, timeout=300)
    # Byte-identical to the same query through repro.api.analyze.
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        direct.to_payload(), sort_keys=True
    )
    assert result_from_payload(payload) == direct

    # A repeat submission dedupes onto the stored result.
    again = client.submit_info(ANALYZE_SPEC)
    assert again["id"] == info["id"] and again["deduplicated"] is True

    status = client.status(info["id"])
    assert status["state"] == "done"
    assert status["submissions"] == 2
    assert status["progress"]["shards_done"] == status["progress"]["shards_total"]

    metrics = client.metrics()
    assert 'scope="service"' in metrics
    assert "repro_campaign_counter{" in metrics
    assert 'name="jobs_completed",scope="service"' in metrics
    assert f'job="{info["id"]}"' in metrics


def test_service_error_statuses(service):
    client = ServiceClient(service.url)
    with pytest.raises(UnknownJobError):
        client.status("job-doesnotexist")
    with pytest.raises(InputError):
        client.submit({**ANALYZE_SPEC, "kind": "explode"})
    with pytest.raises(InputError):
        client._request("GET", "/v1/nope")
    # Raw HTTP statuses come straight from the taxonomy table.
    import urllib.error
    import urllib.request

    try:
        urllib.request.urlopen(service.url + "/v1/jobs/job-doesnotexist")
    except urllib.error.HTTPError as exc:
        assert exc.code == 404
    else:  # pragma: no cover
        pytest.fail("expected HTTP 404")


def test_service_rejects_repeated_delay_fractions(service):
    """A job whose config lists a delay twice is a 400 input error at
    submission, not a campaign that counts every record twice."""
    import urllib.error
    import urllib.request

    spec = {
        **ANALYZE_SPEC,
        "config": {**SMALL_CONFIG, "delay_fractions": [0.5, 0.5]},
    }
    with pytest.raises(InputError, match="distinct"):
        JobSpec.from_payload(spec)
    request = urllib.request.Request(
        service.url + "/v1/jobs", data=json.dumps(spec).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(request, timeout=30)
    assert caught.value.code == 400
    assert "distinct" in caught.value.read().decode("utf-8")
    assert ServiceClient(service.url).healthz()["status"] == "ok"


def test_service_failed_job_raises_typed_error(service):
    # savf over a logic-only structure fails at run time, not at submit.
    client = ServiceClient(service.url)
    job_id = client.submit({
        "kind": "savf", "structure": "alu", "benchmark": "libstrstr",
        "bits": 4, "config": SMALL_CONFIG,
    })
    with pytest.raises(ReproError, match="state elements"):
        client.result(job_id, wait=True, timeout=300)


def test_service_graceful_stop_reports_draining():
    service = CampaignService(ServiceConfig(port=0, workers=1))
    service.start()
    client = ServiceClient(service.url)
    assert client.healthz()["draining"] is False
    service.stop()
    # Fully stopped: the listener is gone, surfaced as the typed
    # connection-level error (taxonomy-mapped, not a raw OSError).
    with pytest.raises(ServiceUnavailableError):
        client.healthz()


# ----------------------------------------------------------------------
# Transport hardening satellites: escalation, empty ids, routable URLs,
# typed connection failures, deadline-respecting result waits
# ----------------------------------------------------------------------
def test_priority_escalation_requeues_at_new_priority():
    manager = JobManager(workers=1)  # never started: entries stay queued
    low, _ = manager.submit(JobSpec.from_payload(ANALYZE_SPEC))
    high, _ = manager.submit(
        JobSpec.from_payload({**ANALYZE_SPEC, "structure": "alu", "priority": 5})
    )
    raised, deduped = manager.submit(
        JobSpec.from_payload({**ANALYZE_SPEC, "priority": 9})
    )
    assert deduped and raised is low and low.priority == 9
    # The escalation re-pushed a queue entry at the new priority, so the
    # dequeue order actually changes; the stale original entry drains last
    # and no-ops (the job is no longer QUEUED by then).
    order = [
        manager._queue.get_nowait() for _ in range(manager._queue.qsize())
    ]
    assert [job_id for _, _, job_id in order] == [low.id, high.id, low.id]
    assert [priority for priority, _, _ in order] == [-9, -5, 0]


def test_get_jobs_without_id_is_not_found(service):
    import urllib.error
    import urllib.request

    for suffix in ("/v1/jobs", "/v1/jobs/"):
        try:
            urllib.request.urlopen(service.url + suffix)
        except urllib.error.HTTPError as exc:
            assert exc.code == 404, suffix
        else:  # pragma: no cover
            pytest.fail(f"expected HTTP 404 for GET {suffix}")


def test_wildcard_bind_reports_routable_url():
    service = CampaignService(
        ServiceConfig(host="0.0.0.0", port=0, workers=1)
    )
    service.start()
    try:
        assert "0.0.0.0" not in service.url
        # The substituted host actually routes to this daemon.
        assert ServiceClient(service.url).healthz()["status"] == "ok"
    finally:
        service.stop()


def test_client_wraps_connection_refused_as_unavailable():
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listens here any more
    client = ServiceClient(
        f"http://127.0.0.1:{port}", timeout=2.0, connect_retries=0
    )
    with pytest.raises(ServiceUnavailableError) as exc_info:
        client.healthz()
    assert http_status_for(exc_info.value) == 503
    assert exc_info.value.hint  # points the operator at the daemon


def test_client_retries_connection_refused_before_raising(monkeypatch):
    client = ServiceClient(
        "http://127.0.0.1:1", connect_retries=2, retry_backoff=0.0
    )
    calls = []

    def refused(method, path, body=None):
        calls.append(path)
        raise ServiceUnavailableError("cannot reach service")

    monkeypatch.setattr(client, "_request", refused)
    with pytest.raises(ServiceUnavailableError):
        client.status("job-x")
    assert len(calls) == 3  # initial attempt + connect_retries


def test_result_wait_raises_typed_timeout_without_overshoot():
    import time as time_mod

    service = CampaignService(ServiceConfig(port=0, workers=1))
    # Keep the job threads parked so the submitted job stays QUEUED.
    service.manager.start = lambda: None
    service.start()
    try:
        client = ServiceClient(service.url)
        job_id = client.submit(ANALYZE_SPEC)
        started = time_mod.monotonic()
        with pytest.raises(JobTimeoutError) as exc_info:
            client.result(job_id, wait=True, timeout=1.0, poll_seconds=30.0)
        elapsed = time_mod.monotonic() - started
        # The final sleep is clipped to the remaining budget: a 30 s poll
        # interval must not stretch a 1 s deadline into half a minute.
        assert elapsed < 5.0
        assert http_status_for(exc_info.value) == 504
    finally:
        # Un-park the workers so the queued job drains and stop() returns.
        del service.manager.start
        service.manager.start()
        service.stop()


# ----------------------------------------------------------------------
# genwork jobs (coverage-directed generated-workload proposal)
# ----------------------------------------------------------------------
GENWORK_SPEC = {
    "kind": "genwork",
    "structure": "alu",
    "count": 2,
    "pool": 3,
    "knobs": "blocks=2,ops_per_block=4,loop_iters=2",
}


def test_genwork_spec_validation():
    with pytest.raises(InputError):  # benchmarks are generated, not given
        JobSpec.from_payload({**GENWORK_SPEC, "benchmark": "md5"})
    with pytest.raises(InputError):
        JobSpec.from_payload({**GENWORK_SPEC, "count": 0})
    with pytest.raises(InputError):  # pool must cover count
        JobSpec.from_payload({**GENWORK_SPEC, "count": 5, "pool": 3})
    with pytest.raises(InputError):
        JobSpec.from_payload({**GENWORK_SPEC, "knobs": "bogus=1"})
    with pytest.raises(InputError):  # genwork-only fields stay genwork-only
        JobSpec.from_payload({**ANALYZE_SPEC, "count": 3})
    spec = JobSpec.from_payload(GENWORK_SPEC)
    assert spec.benchmarks == ()
    assert spec.label == "gen[2]/alu:genwork"


def test_genwork_fields_do_not_perturb_existing_job_ids():
    # from_payload rejects genwork-only fields on other kinds, so their
    # canonical form (which replay validates) must not carry them.
    assert "count" not in JobSpec.from_payload(ANALYZE_SPEC).canonical()


@pytest.mark.parametrize("payload", [
    ANALYZE_SPEC,
    {**ANALYZE_SPEC, "target_half_width": 0.05, "confidence": 0.9},
    {"kind": "sweep", "structures": ["alu", "lsu"],
     "benchmarks": ["libstrstr", "md5"], "config": SMALL_CONFIG, "ecc": True},
    {"kind": "savf", "structure": "regfile", "benchmark": "libstrstr",
     "bits": 3, "seed": 5, "config": SMALL_CONFIG},
    GENWORK_SPEC,
], ids=["analyze", "analyze-adaptive", "sweep", "savf", "genwork"])
def test_canonical_form_is_a_submission_that_round_trips(payload):
    """Journal replay validates a spec's canonical form exactly like a
    submission, so that form must parse back to the same spec and id."""
    spec = JobSpec.from_payload(payload)
    again = JobSpec.from_payload(spec.canonical())
    assert again == spec
    assert again.job_id == spec.job_id


def test_generated_spec_canonicalizes_in_job_identity():
    plain = JobSpec.from_payload({**ANALYZE_SPEC, "benchmark": "gen:7"})
    spelled = JobSpec.from_payload(
        {**ANALYZE_SPEC, "benchmark": "gen:7:alu=8"}
    )
    assert plain.job_id == spelled.job_id
    with pytest.raises(InputError):
        JobSpec.from_payload({**ANALYZE_SPEC, "benchmark": "gen:oops"})


def test_jobs_on_one_system_never_run_campaigns_at_once(monkeypatch):
    """Engines of one ecc share one system, so its run lock serializes
    their campaigns: two analyze jobs and a genwork job's probe campaigns
    never overlap, though three worker threads could run them at once."""
    from repro.core.campaign import DelayAVFEngine

    intervals = []
    run_structure = DelayAVFEngine.run_structure

    def recorded(engine, *args, **kwargs):
        started = time.perf_counter()
        try:
            return run_structure(engine, *args, **kwargs)
        finally:
            intervals.append((started, time.perf_counter(), id(engine.system)))

    monkeypatch.setattr(DelayAVFEngine, "run_structure", recorded)
    manager = JobManager(workers=3)
    specs = [
        {**ANALYZE_SPEC, "structure": "decoder", "benchmark": benchmark}
        for benchmark in ("libstrstr", "libfibcall")
    ] + [{**GENWORK_SPEC, "count": 1, "pool": 2}]
    jobs = [manager.submit(JobSpec.from_payload(spec))[0] for spec in specs]
    manager.start()
    for job in jobs:
        assert job.wait(timeout=300)
        assert job.error is None, job.error
    assert manager.drain(timeout=60)
    assert len(intervals) == 4  # two analyze jobs, two genwork probes
    assert len({system for _, _, system in intervals}) == 1
    ordered = sorted(interval[:2] for interval in intervals)
    for (_, end), (start, _) in zip(ordered, ordered[1:]):
        assert end <= start


def test_genwork_job_executes_and_dedupes(tmp_path):
    manager = JobManager(workers=1, cache_dir=str(tmp_path))
    manager.start()
    spec = JobSpec.from_payload(GENWORK_SPEC)
    job, deduped = manager.submit(spec)
    assert not deduped
    assert job.wait(timeout=300)
    assert job.error is None, job.error
    kind, body = unwrap_payload(job.result)
    assert kind == "genwork"
    assert body["structure"] == "alu"
    assert len(body["selected"]) == 2
    assert len(body["candidates"]) == 3
    assert body["union"]["covered_wires"]
    # Selected specs are ordinary workload names for analyze jobs.
    follow_up = JobSpec.from_payload({
        **ANALYZE_SPEC,
        "structure": "alu",
        "benchmark": body["selected"][0],
    })
    again, deduped = manager.submit(spec)
    assert deduped and again is job
    follow_job, _ = manager.submit(follow_up)
    assert follow_job.wait(timeout=300)
    assert follow_job.error is None, follow_job.error
    assert manager.drain(timeout=60)
