"""ServiceApp routing: dedup, status codes, pagination, metrics — no sockets."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Grid3Config, ServiceApp
from repro.errors import ConfigurationError
from repro.service.schemas import split_hint


def fake_payload(config, progress=None):
    """A runner stub shaped like execute_run's payload, instant; it
    sends no progress."""
    rows = [{"record": "Row", "site": f"site-{i}", "seed": config.seed}
            for i in range(5)]
    return {
        "reports": {"ops": rows, "troubleshooting": [], "trace": []},
        "summary": {"jobs": 5, "seed": config.seed},
    }


@pytest.fixture
def app():
    instance = ServiceApp(
        workers=1, queue_depth=4, cache_bytes=1024 * 1024,
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        runner=fake_payload,
    )
    yield instance
    instance.close(drain=True, timeout=10.0)


def call(app, method, path, query=None, body=b""):
    status, payload = app.respond(method, path, query or {}, body)[:2]
    return status, json.loads(payload)


def submit(app, seed=1):
    return call(app, "POST", "/v1/runs",
                body=json.dumps({"config": {"seed": seed}}).encode())


def wait_done(app, run_id, timeout=10.0):
    assert app.queue.drain(timeout=timeout)
    status, view = call(app, "GET", f"/v1/runs/{run_id}")
    assert status == 200 and view["state"] == "done", view
    return view


def test_submit_poll_report_roundtrip(app):
    status, sub = submit(app, seed=3)
    assert status == 202 and sub["dedup"] == "new"
    view = wait_done(app, sub["run_id"])
    assert view["summary"]["seed"] == 3
    status, page = call(app, "GET", f"/v1/runs/{sub['run_id']}/report/ops",
                        query={"offset": "1", "limit": "2"})
    assert status == 200
    assert page["total"] == 5
    assert page["slice"] == {"offset": 1, "limit": 2, "returned": 2}
    assert [row["site"] for row in page["items"]] == ["site-1", "site-2"]


def test_duplicate_submit_never_reruns(app):
    status, first = submit(app, seed=7)
    assert status == 202
    wait_done(app, first["run_id"])
    status, again = submit(app, seed=7)
    assert status == 200
    assert again["dedup"] == "cached"
    assert again["run_id"] == first["run_id"]
    # The acceptance criterion: one simulation executed, ever.
    assert app.service_metrics()["service.queue.executed"] == 1
    assert app.service_metrics()["service.cache.hits"] == 1


def test_resubmission_validates_its_config_once(app, monkeypatch):
    status, first = submit(app, seed=8)
    wait_done(app, first["run_id"])
    calls = []
    validate = Grid3Config.validate

    def counting(config):
        calls.append(config.seed)
        return validate(config)

    monkeypatch.setattr(Grid3Config, "validate", counting)
    status, again = submit(app, seed=8)
    assert status == 200 and again["dedup"] == "cached"
    assert calls == [8]


def test_invalid_config_is_400_with_the_validation_message(app):
    with pytest.raises(ConfigurationError) as expected:
        Grid3Config(scale=-1.0).validate()
    status, body = call(app, "POST", "/v1/runs",
                        body=json.dumps({"config": {"scale": -1}}).encode())
    assert status == 400 and body["error"]["code"] == "bad_request"
    message, hint = split_hint(str(expected.value))
    assert (body["error"]["message"], body["error"]["hint"]) == (message, hint)


def test_inflight_duplicate_joins(app):
    gate = threading.Event()
    app.queue._runner = lambda config, progress: (gate.wait(10.0), fake_payload(config))[1]
    status, first = submit(app, seed=5)
    assert status == 202 and first["dedup"] == "new"
    status, joined = submit(app, seed=5)
    assert status == 202 and joined["dedup"] == "joined"
    assert joined["run_id"] == first["run_id"]
    gate.set()
    wait_done(app, first["run_id"])
    metrics = app.service_metrics()
    assert metrics["service.queue.executed"] == 1
    assert metrics["service.queue.joined"] == 1


def test_failed_run_reports_409_and_digest_can_rerun(app):
    calls = []

    def flaky(config, progress):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("transient")
        return fake_payload(config)

    app.queue._runner = flaky
    _, first = submit(app, seed=9)
    assert app.queue.drain(timeout=10.0)
    status, view = call(app, "GET", f"/v1/runs/{first['run_id']}")
    assert view["state"] == "failed" and "transient" in view["error"]
    status, body = call(app, "GET", f"/v1/runs/{first['run_id']}/report/ops")
    assert status == 409 and body["error"]["code"] == "run_failed"
    assert "transient" in body["error"]["message"]
    # A failed digest does not poison dedup: resubmission re-runs.
    status, second = submit(app, seed=9)
    assert status == 202 and second["dedup"] == "new"
    assert second["run_id"] != first["run_id"]
    wait_done(app, second["run_id"])


def test_report_before_done_is_409(app):
    gate = threading.Event()
    app.queue._runner = lambda config, progress: (gate.wait(10.0), fake_payload(config))[1]
    _, sub = submit(app, seed=2)
    status, body = call(app, "GET", f"/v1/runs/{sub['run_id']}/report/ops")
    assert status == 409 and body["error"]["code"] == "run_not_finished"
    gate.set()
    wait_done(app, sub["run_id"])


def test_evicted_payload_is_410_and_resubmit_reruns(app):
    app.store.max_bytes = 1  # each finished run evicts the one before
    _, sub = submit(app, seed=4)
    wait_done(app, sub["run_id"])
    _, newer = submit(app, seed=5)
    wait_done(app, newer["run_id"])
    status, body = call(app, "GET", f"/v1/runs/{sub['run_id']}/report/ops")
    assert status == 410 and body["error"]["code"] == "result_evicted"
    status, again = submit(app, seed=4)
    assert status == 202 and again["dedup"] == "new"
    wait_done(app, again["run_id"])
    assert app.service_metrics()["service.queue.executed"] == 3


def test_queue_full_maps_to_429(app):
    gate = threading.Event()
    app.queue._runner = lambda config, progress: (gate.wait(10.0), fake_payload(config))[1]
    seeds = iter(range(100))
    statuses = []
    while True:
        status, body = submit(app, seed=next(seeds))
        statuses.append(status)
        if status == 429:
            break
        assert len(statuses) < 20, "queue depth bound never hit"
    assert body["error"]["code"] == "queue_full"
    # The rejected submission is not left indexed: the same config can
    # be resubmitted once the queue clears.
    gate.set()
    assert app.queue.drain(timeout=10.0)


def test_malformed_body_is_400(app):
    status, body = call(app, "POST", "/v1/runs", body=b"{nope")
    assert status == 400 and body["error"]["code"] == "bad_request"
    status, body = call(
        app, "POST", "/v1/runs",
        body=json.dumps({"config": {"scal": 2}}).encode(),
    )
    assert status == 400
    # Did-you-mean moved into the envelope's hint field.
    assert "did you mean 'scale'" in body["error"]["hint"]
    assert "scal" in body["error"]["message"]


def test_unknown_paths_and_methods(app):
    assert call(app, "GET", "/v1/nope")[0] == 404
    assert call(app, "GET", "/v1/runs/999")[0] == 404
    assert call(app, "GET", "/v1/runs/1/report/nope")[0] == 404
    assert call(app, "POST", "/v1/healthz")[0] == 405
    assert call(app, "DELETE", "/v1/runs")[0] == 405


def test_healthz_and_runs_listing(app):
    status, health = call(app, "GET", "/v1/healthz")
    assert status == 200 and health["status"] == "ok"
    assert health["workers"] == 1
    _, a = submit(app, seed=1)
    wait_done(app, a["run_id"])
    submit(app, seed=2)
    assert app.queue.drain(timeout=10.0)
    status, page = call(app, "GET", "/v1/runs", query={"limit": "1"})
    assert status == 200 and page["total"] == 2
    assert page["items"][0]["run_id"] == 1


def test_metrics_scrape_feeds_metric_store(app):
    _, sub = submit(app, seed=1)
    wait_done(app, sub["run_id"])
    status, gauges = call(app, "GET", "/v1/metrics", query={"format": "json"})
    assert status == 200
    assert gauges["service.runs.done"] == 1
    assert gauges["service.queue.executed"] == 1
    assert gauges["service.cache.entries"] == 1
    # Scrapes append history into the estate's MetricStore surface.
    call(app, "GET", "/v1/metrics", query={"format": "json"})
    history = app.metrics_store.query("service.queue.executed")
    assert [s.value for s in history] == [1.0, 1.0]


def test_metrics_default_is_prometheus_text(app):
    status, text = app.respond("GET", "/v1/metrics", {}, b"")[:2]
    assert status == 200
    lines = text.splitlines()
    assert "# TYPE service_queue_depth gauge" in lines
    assert any(line.startswith("service_uptime_s ") for line in lines)
    # Alert states are exposed as 0/1 gauges with rule labels.
    assert any(line.startswith('service_alert_firing{rule="queue-backlog"')
               for line in lines)


def test_metrics_scrape_history_is_bounded(app):
    from repro.service.app import SCRAPE_HISTORY
    for _ in range(5):
        call(app, "GET", "/v1/metrics", query={"format": "json"})
    assert app.metrics_store.max_samples == SCRAPE_HISTORY
    series = app.metrics_store._samples["service.queue.depth"]
    assert series.maxlen == SCRAPE_HISTORY and len(series) == 5


def test_alerts_endpoint_lists_service_rules(app):
    status, payload = call(app, "GET", "/v1/alerts")
    assert status == 200
    names = [r["name"] for r in payload["rules"]]
    assert "queue-backlog" in names and "workers-saturated" in names
    assert payload["firing"] == 0


def test_events_delta_poll_and_bad_since(app):
    _, sub = submit(app, seed=1)
    run_id = sub["run_id"]
    wait_done(app, run_id)
    status, payload = call(app, "GET", f"/v1/runs/{run_id}/events",
                           query={"since": "-1"})
    assert status == 200
    assert payload["closed"] is True
    # Fake runners emit nothing; the envelope still closes cleanly.
    assert payload["events"] == []
    assert payload["next_since"] == -1
    assert call(app, "GET", "/v1/runs/999/events",
                query={"since": "-1"})[0] == 404
    assert call(app, "GET", f"/v1/runs/{run_id}/events",
                query={"since": "zap"})[0] == 400


def test_progress_capable_runner_streams_into_record_log():
    from repro.service.progress import ProgressSender

    def streaming_runner(config, progress):
        sender = ProgressSender(progress)
        for i in range(4):
            sender.emit({"seq": i, "kind": "phase" if i == 0 else "tick",
                         "phase": "sim"})
        sender.close()
        return fake_payload(config)

    instance = ServiceApp(
        workers=1, queue_depth=4,
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        runner=streaming_runner,
    )
    try:
        status, payload = instance.respond(
            "POST", "/v1/runs", {},
            json.dumps({"config": {"seed": 9}}).encode())[:2]
        assert status == 202
        run_id = json.loads(payload)["run_id"]
        assert instance.queue.drain(timeout=10.0)
        record = instance.store.get(run_id)
        events, closed = record.progress.since(-1)
        assert [e["seq"] for e in events] == [0, 1, 2, 3]
        assert closed  # terminal state closed the log
        # The delta poll serves the same sequence.
        status, body = instance.respond(
            "GET", f"/v1/runs/{run_id}/events", {"since": "1"}, b"")[:2]
        assert status == 200
        delta = json.loads(body)
        assert [e["seq"] for e in delta["events"]] == [2, 3]
        assert delta["closed"] is True and delta["next_since"] == 3
    finally:
        instance.close(drain=True, timeout=10.0)


def test_every_error_validates_against_the_envelope(app):
    """Each non-2xx body is {"error": {code, message, hint}} with a
    known code — the docs/API.md contract."""
    from repro.service import ERROR_CODES

    probes = [
        ("POST", "/v1/runs", {}, b"{nope"),
        ("GET", "/v1/runs/999", {}, b""),
        ("GET", "/v1/runs/999/events", {"since": "-1"}, b""),
        ("GET", "/v1/nope", {}, b""),
        ("POST", "/v1/healthz", {}, b""),
        ("DELETE", "/v1/runs", {}, b""),
        ("GET", "/v1/runs", {"offset": "-3"}, b""),
    ]
    for method, path, query, body in probes:
        status, payload, _headers = app.respond(method, path, query, body)
        assert status >= 400, (method, path)
        envelope = json.loads(payload)
        assert set(envelope) == {"error"}, (method, path)
        error = envelope["error"]
        assert set(error) == {"code", "message", "hint"}, (method, path)
        assert error["code"] in ERROR_CODES, (method, path)
        assert error["message"], (method, path)


def test_healthz_reports_durability(app):
    status, health = call(app, "GET", "/v1/healthz")
    assert status == 200
    assert health["durable"] is False  # no state_dir in this fixture
    assert health["recovered_runs"] == 0


def test_admission_metrics_present_on_idle_app(app):
    gauges = app.service_metrics()
    assert gauges["service.admission.quota"] == 0.0
    assert gauges["service.admission.quota_rejections"] == 0.0
    assert gauges["service.admission.active_runs"] == 0.0
    assert "service.admission.mean_run_s" in gauges
    assert gauges["service.runs.recovered"] == 0


def test_submit_with_client_and_lane_lands_on_the_record(app):
    body = json.dumps({"config": {"seed": 11}, "client": "alice",
                       "lane": "interactive"}).encode()
    status, sub = call(app, "POST", "/v1/runs", body=body)
    assert status == 202
    view = wait_done(app, sub["run_id"])
    assert view["client"] == "alice" and view["lane"] == "interactive"


def test_quota_breach_is_429_with_retry_after(app):
    gate = threading.Event()
    app.queue._runner = lambda config, progress: (gate.wait(10.0), fake_payload(config))[1]
    app.admission.quota = 1
    body = lambda seed: json.dumps(  # noqa: E731
        {"config": {"seed": seed}, "client": "greedy"}).encode()
    status, _, _ = app.respond("POST", "/v1/runs", {}, body(1))
    assert status == 202
    status, payload, headers = app.respond("POST", "/v1/runs", {}, body(2))
    assert status == 429
    envelope = json.loads(payload)
    assert envelope["error"]["code"] == "quota_exceeded"
    assert int(dict(headers)["Retry-After"]) >= 1
    # Another client's lane is unaffected by greedy's breach.
    other = json.dumps({"config": {"seed": 3}, "client": "light"}).encode()
    status, _, _ = app.respond("POST", "/v1/runs", {}, other)
    assert status == 202
    assert app.service_metrics()["service.admission.quota_rejections"] == 1
    gate.set()
    assert app.queue.drain(timeout=10.0)
    # Terminal runs release the quota: greedy can submit again.
    status, _, _ = app.respond("POST", "/v1/runs", {}, body(4))
    assert status == 202
    gate.set()
    assert app.queue.drain(timeout=10.0)


def test_cache_eviction_drops_store_payload(app):
    app.store.max_bytes = 1  # next finished run evicts everything else
    _, a = submit(app, seed=1)
    wait_done(app, a["run_id"])
    _, b = submit(app, seed=2)
    wait_done(app, b["run_id"])
    assert app.store.get(a["run_id"]).payload is None
    status, _body = call(app, "GET", f"/v1/runs/{a['run_id']}/report/ops")
    assert status == 410
    # The newest result is still servable.
    assert call(app, "GET", f"/v1/runs/{b['run_id']}/report/ops")[0] == 200
