"""Live progress over real HTTP: SSE stream, delta poll, disconnects.

The observability acceptance suite: an in-flight run streams >=3
progress events over SSE, the ``?since=`` delta poll returns the
*identical* sequence (both read the same server-side ProgressLog), a
``Last-Event-ID`` reconnect resumes mid-sequence, and a client that
drops its stream mid-run leaves the run (and other consumers) intact.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import ReproService
from repro.service.progress import iter_sse_events

#: Long enough (~1-2s wall) that an SSE client provably overlaps the
#: in-flight run; small enough to keep the suite quick.
SLOW = {"scale": 3000, "duration_days": 0.5, "apps": ["exerciser"],
        "seed": 11}


def http(method, url, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def submit(base, config):
    status, body = http("POST", f"{base}/v1/runs", {"config": config})
    assert status in (200, 202), body  # 200 = dedup'd to a finished run
    return json.loads(body)


def poll_events(base, run_id, since=-1):
    status, body = http("GET", f"{base}/v1/runs/{run_id}/events?since={since}")
    assert status == 200, body
    return json.loads(body)


@pytest.fixture(scope="module")
def service():
    instance = ReproService(port=0, workers=1, queue_depth=8).start()
    yield instance
    instance.close(drain=True, timeout=120.0)


def test_sse_stream_and_delta_poll_agree(service):
    base = service.url
    run_id = submit(base, SLOW)["run_id"]

    streamed = []
    third_event_wall = None
    with urllib.request.urlopen(f"{base}/v1/runs/{run_id}/events",
                                timeout=60) as response:
        assert response.status == 200
        assert response.headers["Content-Type"] == "text/event-stream"
        for event in iter_sse_events(response):
            streamed.append(event)
            if len(streamed) == 3:
                third_event_wall = time.time()

    # The acceptance bar: at least 3 events streamed, and the 3rd
    # arrived before the run finished (so the stream overlapped the
    # in-flight run rather than replaying a closed log).
    assert len(streamed) >= 3
    status, body = http("GET", f"{base}/v1/runs/{run_id}")
    view = json.loads(body)
    assert view["state"] == "done", view
    assert third_event_wall is not None
    assert third_event_wall < view["finished_at"]

    # Deterministic, gap-free sequence; lifecycle frames present.
    seqs = [event["seq"] for event in streamed]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    kinds = [event["kind"] for event in streamed]
    assert kinds[-1] == "end" and "tick" in kinds

    # The ?since= poll returns the *identical* sequence: both views
    # read the same server-side log.
    payload = poll_events(base, run_id)
    assert payload["closed"] is True
    assert payload["events"] == streamed
    assert payload["next_since"] == streamed[-1]["seq"]

    # Delta semantics: polling from the middle returns only the tail.
    middle = seqs[len(seqs) // 2]
    tail = poll_events(base, run_id, since=middle)
    assert tail["events"] == [e for e in streamed if e["seq"] > middle]
    assert tail["since"] == middle


def test_last_event_id_resumes_mid_sequence(service):
    base = service.url
    run_id = submit(base, SLOW)["run_id"]  # joins/caches if already run
    # Wait for the run to finish so the log is complete and stable.
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if json.loads(http("GET", f"{base}/v1/runs/{run_id}")[1])["state"] in (
                "done", "failed"):
            break
        time.sleep(0.05)
    everything = poll_events(base, run_id)["events"]
    assert everything, "run produced no events"
    resume_from = everything[1]["seq"]
    request = urllib.request.Request(
        f"{base}/v1/runs/{run_id}/events",
        headers={"Last-Event-ID": str(resume_from)},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        resumed = list(iter_sse_events(response))
    assert resumed == [e for e in everything if e["seq"] > resume_from]


def test_mid_run_disconnect_leaves_run_unaffected(service):
    base = service.url
    run_id = submit(base, dict(SLOW, seed=12))["run_id"]
    # Open a stream, read a few bytes, then drop the connection
    # mid-run: only the handler thread dies.
    response = urllib.request.urlopen(f"{base}/v1/runs/{run_id}/events",
                                      timeout=30)
    response.read1(512)
    response.close()
    deadline = time.monotonic() + 60
    view = None
    while time.monotonic() < deadline:
        view = json.loads(http("GET", f"{base}/v1/runs/{run_id}")[1])
        if view["state"] in ("done", "failed"):
            break
        time.sleep(0.05)
    assert view is not None and view["state"] == "done", view
    # The log still carries the complete sequence for later consumers.
    payload = poll_events(base, run_id)
    assert payload["closed"] is True
    assert payload["events"][-1]["kind"] == "end"
    seqs = [event["seq"] for event in payload["events"]]
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))


def test_events_404_and_run_metrics_endpoint(service):
    base = service.url
    assert http("GET", f"{base}/v1/runs/424242/events")[0] == 404
    run_id = submit(base, SLOW)["run_id"]
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if json.loads(http("GET", f"{base}/v1/runs/{run_id}")[1])["state"] in (
                "done", "failed"):
            break
        time.sleep(0.05)
    status, body = http("GET", f"{base}/v1/runs/{run_id}/metrics")
    assert status == 200
    text = body.decode("utf-8")
    assert "# TYPE repro_run_progress_frac gauge" in text
    assert "repro_engine_events_dispatched" in text
