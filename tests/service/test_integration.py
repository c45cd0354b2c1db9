"""End-to-end: a live server on an ephemeral port, real worker processes.

This is the acceptance suite for the grid-as-a-service front end:

* submit -> poll -> paginated report walk over real HTTP;
* duplicate submission of an identical (config, seed) never runs a
  second simulation (proven via the ``service.queue.executed`` counter);
* the report served over HTTP is byte-identical to what the ``repro``
  facade produces locally for the same config;
* malformed requests come back as 400s;
* graceful shutdown drains accepted work before the listener dies.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import Grid3, Grid3Config, ReproService, collect_reports, paginate

#: Small enough to finish in ~0.2s, big enough to produce real reports.
TINY = {"scale": 3000, "duration_days": 0.05, "apps": ["exerciser"],
        "tracing": True, "seed": 7}


def http(method, url, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def poll_done(base, run_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = http("GET", f"{base}/v1/runs/{run_id}")
        assert status == 200, body
        view = json.loads(body)
        if view["state"] in ("done", "failed"):
            return view
        time.sleep(0.05)
    pytest.fail(f"run {run_id} never finished")


@pytest.fixture(scope="module")
def service():
    instance = ReproService(port=0, workers=1, queue_depth=8).start()
    yield instance
    instance.close(drain=True, timeout=60.0)


def metrics(base):
    status, body = http("GET", f"{base}/v1/metrics?format=json")
    assert status == 200
    return json.loads(body)


def test_full_grid_as_a_service_flow(service):
    base = service.url

    # Liveness first.
    status, body = http("GET", f"{base}/v1/healthz")
    assert status == 200 and json.loads(body)["status"] == "ok"

    # Submit and poll to completion.
    status, body = http("POST", f"{base}/v1/runs", {"config": TINY})
    assert status == 202, body
    submitted = json.loads(body)
    assert submitted["dedup"] == "new"
    run_id = submitted["run_id"]
    view = poll_done(base, run_id)
    assert view["state"] == "done", view
    assert view["summary"]["jobs"] > 0

    # The dedup acceptance criterion: an identical resubmission is
    # answered from cache and no second simulation ever runs.
    executed_before = metrics(base)["service.queue.executed"]
    status, body = http("POST", f"{base}/v1/runs", {"config": dict(
        sorted(TINY.items(), reverse=True))})  # different key order, same run
    assert status == 200, body
    duplicate = json.loads(body)
    assert duplicate["dedup"] == "cached"
    assert duplicate["run_id"] == run_id
    after = metrics(base)
    assert after["service.queue.executed"] == executed_before == 1
    assert after["service.cache.hits"] >= 1

    # Paginated report walk: slices concatenate back to the full report.
    status, body = http("GET", f"{base}/v1/runs/{run_id}/report/ops?limit=1000")
    assert status == 200
    full = json.loads(body)
    assert full["total"] == len(full["items"]) > 0
    walked, offset = [], 0
    while offset < full["total"]:
        status, body = http(
            "GET", f"{base}/v1/runs/{run_id}/report/ops?offset={offset}&limit=2")
        assert status == 200
        page = json.loads(body)
        assert page["total"] == full["total"]
        assert page["slice"]["offset"] == offset
        walked += page["items"]
        offset += page["slice"]["returned"]
    assert walked == full["items"]

    # Byte-identity with the facade: the same config run locally through
    # the public API produces exactly the bytes the service returned.
    grid = Grid3(Grid3Config(**TINY))
    grid.run_full()
    local_rows = collect_reports(grid)["ops"]
    expected = paginate(local_rows, 0, 1000).to_json().encode("utf-8")
    status, body = http("GET", f"{base}/v1/runs/{run_id}/report/ops?limit=1000")
    assert status == 200
    assert body == expected

    # Every report kind is servable.
    for kind in ("troubleshooting", "trace"):
        status, body = http("GET", f"{base}/v1/runs/{run_id}/report/{kind}")
        assert status == 200, (kind, body)

    # Malformed requests: non-JSON, typo'd knob, bad pagination.
    status, body = http("POST", f"{base}/v1/runs", {"config": {"scal": 2}})
    assert status == 400 and b"did you mean" in body
    request = urllib.request.Request(
        f"{base}/v1/runs", data=b"{nope", method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            status = response.status
    except urllib.error.HTTPError as error:
        status = error.code
    assert status == 400
    status, _ = http("GET", f"{base}/v1/runs/{run_id}/report/ops?offset=-1")
    assert status == 400


def test_graceful_shutdown_drains_inflight_run():
    service = ReproService(port=0, workers=1, queue_depth=8).start()
    base = service.url
    config = dict(TINY, seed=1234)
    status, body = http("POST", f"{base}/v1/runs", {"config": config})
    assert status == 202, body
    run_id = json.loads(body)["run_id"]
    # Close immediately: drain must let the accepted run finish.
    assert service.close(drain=True, timeout=60.0) is True
    record = service.app.store.get(run_id)
    assert record.state == "done"
    assert record.payload is not None
