"""GridClient: the typed stdlib client against a live v1 server."""

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import GridClient, GridServiceError, ReproService, ServiceApp
from repro.core.results import ReportPage
from repro.service.schemas import HealthView, RunSubmitted, RunView

from .test_app import fake_payload


@pytest.fixture(scope="module")
def service():
    app = ServiceApp(
        workers=1, queue_depth=8, cache_bytes=1024 * 1024,
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        runner=fake_payload,
    )
    instance = ReproService(port=0, app=app).start()
    yield instance
    instance.close(drain=True, timeout=30.0)


@pytest.fixture
def client(service):
    with GridClient(service.url, timeout=30.0) as client:
        yield client


def test_submit_wait_report_typed_roundtrip(client):
    submitted = client.submit({"seed": 21}, client_id="alice",
                              lane="interactive")
    assert isinstance(submitted, RunSubmitted)
    assert submitted.dedup == "new"
    view = client.wait(submitted.run_id, timeout=30.0)
    assert isinstance(view, RunView)
    assert view.state == "done"
    assert view.client == "alice" and view.lane == "interactive"
    page = client.report(view.run_id, "ops")
    assert isinstance(page, ReportPage)
    assert page.total == 5
    assert [row["site"] for row in page.rows] == [
        f"site-{i}" for i in range(5)]
    # The pagination walker sees every row exactly once.
    walked = list(client.report_rows(view.run_id, "ops", page_size=2))
    assert walked == list(page.rows)


def test_dedup_is_visible_to_the_client(client):
    first = client.submit({"seed": 33})
    client.wait(first.run_id, timeout=30.0)
    again = client.submit({"seed": 33})
    assert again.dedup == "cached" and again.run_id == first.run_id


def test_typed_errors_carry_the_envelope(client):
    with pytest.raises(GridServiceError) as excinfo:
        client.run(987654)
    assert excinfo.value.status == 404
    assert excinfo.value.code == "not_found"
    assert "/v1/runs" in excinfo.value.hint
    with pytest.raises(GridServiceError) as excinfo:
        client.submit({"scal": 2})
    assert excinfo.value.status == 400
    assert excinfo.value.code == "bad_request"
    assert "did you mean 'scale'" in excinfo.value.hint


def test_health_metrics_events_alerts(client):
    health = client.health()
    assert isinstance(health, HealthView)
    assert health.status == "ok" and health.durable is False
    gauges = client.metrics()
    assert "service.admission.quota" in gauges
    assert client.metrics_text().startswith("# TYPE")
    submitted = client.submit({"seed": 44})
    view = client.wait(submitted.run_id, timeout=30.0)
    events = client.events(view.run_id)
    assert events.closed is True and events.run_id == view.run_id
    names = [rule["name"] for rule in client.alerts()]
    assert "queue-backlog" in names and "quota-pressure" in names


def test_runs_listing_pages(client):
    listing = client.runs(limit=1)
    assert isinstance(listing, ReportPage)
    assert listing.total >= 1 and len(listing.rows) == 1


def test_bare_path_is_404_without_deprecation_header(service):
    """Only /v1 routes answer; a bare path (the SSE one included) gets
    the not_found envelope pointing there, and no alias headers."""
    for path in ("/healthz", "/metrics", "/alerts", "/runs", "/runs/1",
                 "/runs/1/events"):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(f"{service.url}{path}", timeout=30)
        with caught.value as error:
            assert error.code == 404, path
            assert error.headers["Deprecation"] is None, path
            assert error.headers["Link"] is None, path
            envelope = json.loads(error.read())["error"]
        assert envelope["code"] == "not_found", path
        assert "/v1/" in envelope["hint"], path
