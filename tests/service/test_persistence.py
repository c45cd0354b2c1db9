"""The durable run registry: reopen, recovery, and restart.

Three layers of proof, cheapest first:

* a :class:`RunStore` reopened on the same file gets every run back,
  and a file with another schema version is refused;
* a :class:`RunStore`/:class:`ServiceApp` rebuilt over the same state
  dir resumes with every run's state — and a finished run's report
  bytes — intact, with non-terminal runs re-marked ``interrupted``;
* a real ``repro serve`` process SIGKILLed mid-run and restarted on
  the same ``--state-dir`` serves byte-identical reports for finished
  runs and a resubmittable ``interrupted`` run for the one it lost
  (the CI restart-recovery step runs this one), and leaves no process
  of either server behind.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Grid3Config, ServiceApp
from repro.service import RunStore
from repro.service.store import SCHEMA_VERSION, StoreError

from .test_app import fake_payload


def make_app(tmp_path, runner=fake_payload, **kwargs):
    return ServiceApp(
        workers=1, queue_depth=8, cache_bytes=1024 * 1024,
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        runner=runner, state_dir=str(tmp_path / "state"), **kwargs,
    )


def call(app, method, path, query=None, body=b""):
    status, payload = app.respond(method, path, query or {}, body)[:2]
    return status, payload


def submit(app, seed):
    status, payload = call(
        app, "POST", "/v1/runs",
        body=json.dumps({"config": {"seed": seed}}).encode())
    return status, json.loads(payload)


# -- the store over one file -------------------------------------------------

def test_store_reopen_roundtrip(tmp_path):
    path = str(tmp_path / "runs.sqlite3")
    store = RunStore(path)
    record = store.create("d1", Grid3Config(seed=5), client="alice",
                          lane="interactive")
    store.mark_running(record)
    store.mark_done(record, {"reports": {"ops": [{"a": 1}]}, "summary": {}})
    store.close()

    reopened = RunStore(path)
    again = reopened.get(record.run_id)
    assert (again.digest, again.client, again.lane, again.state) == (
        "d1", "alice", "interactive", "done")
    assert again.config.seed == 5
    assert (again.submitted_at, again.started_at, again.finished_at) == (
        record.submitted_at, record.started_at, record.finished_at)
    assert again.payload == record.payload
    assert again.payload_bytes == record.payload_bytes
    assert reopened.cached("d1") is again
    # Run ids keep counting from the reopened file.
    assert reopened.create("d2", Grid3Config()).run_id == record.run_id + 1
    reopened.close()


def test_store_rejects_wrong_schema_version(tmp_path):
    path = str(tmp_path / "runs.sqlite3")
    store = RunStore(path)
    # Rewind the version marker to what the event-log layout wrote: the
    # next open must refuse, loudly, rather than read the wrong layout.
    store._db.execute("UPDATE meta SET value=? WHERE key='schema_version'",
                      (str(SCHEMA_VERSION - 1),))
    store._db.commit()
    store.close()
    with pytest.raises(StoreError, match="schema version 1"):
        RunStore(path)


def test_writes_after_close_are_dropped_and_recovered(tmp_path):
    path = str(tmp_path / "runs.sqlite3")
    store = RunStore(path)
    record = store.create("d1", Grid3Config())
    store.mark_running(record)
    store.close()
    # A worker finishing after the drain window: memory moves on, the
    # file does not, and the next open marks the run interrupted.
    store.mark_done(record, {"reports": {}, "summary": {}})
    assert record.state == "done"
    reopened = RunStore(path)
    assert reopened.get(record.run_id).state == "interrupted"
    assert reopened.recovered_interrupted == 1
    reopened.close()


def test_store_replays_terminal_states_and_recovers_nonterminal(tmp_path):
    path = str(tmp_path / "runs.sqlite3")
    store = RunStore(path)
    done = store.create("d-done", Grid3Config(seed=1), client="alice")
    store.mark_running(done)
    store.mark_done(done, {"reports": {}, "summary": {"jobs": 2}})
    failed = store.create("d-fail", Grid3Config(seed=2))
    store.mark_running(failed)
    store.mark_failed(failed, "boom")
    crashed = store.create("d-crash", Grid3Config(seed=3), lane="interactive")
    store.mark_running(crashed)   # no terminal row: simulated crash
    queued = store.create("d-queued", Grid3Config(seed=4))
    assert queued.state == "queued"
    store.close()                 # the process "dies" here

    recovered = RunStore(path)
    assert recovered.recovered_interrupted == 2
    states = {r.digest: r.state for r in recovered.runs()}
    assert states == {"d-done": "done", "d-fail": "failed",
                      "d-crash": "interrupted", "d-queued": "interrupted"}
    reopened_done = recovered.lookup("d-done")
    assert reopened_done.payload == {"reports": {}, "summary": {"jobs": 2}}
    assert reopened_done.client == "alice"
    # Failed digests stay indexed; interrupted ones are unindexed, so
    # resubmission re-runs.
    assert recovered.lookup("d-fail").error == "boom"
    assert recovered.lookup("d-crash") is None
    assert recovered.lookup("d-queued") is None
    # Every reopened progress log is closed (no live workers exist).
    for record in recovered.runs():
        _events, closed = record.progress.since(-1)
        assert closed
    # The interrupted states were written back, so a *second* open
    # sees terminal states and recovers nothing.
    recovered.close()
    third = RunStore(path)
    assert third.recovered_interrupted == 0
    third.close()


def test_reopen_rebuilds_lru_oldest_first_under_a_smaller_budget(tmp_path):
    path = str(tmp_path / "runs.sqlite3")
    store = RunStore(path)
    first = store.create("d1", Grid3Config())
    store.mark_done(first, {"n": 1})
    second = store.create("d2", Grid3Config())
    store.mark_done(second, {"n": 2})
    store.close()

    smaller = RunStore(path, cache_bytes=second.payload_bytes)
    assert smaller.get(first.run_id).payload is None  # oldest evicted
    assert smaller.lookup("d1") is None
    assert smaller.cached("d2").payload == {"n": 2}
    smaller.close()
    # The eviction was written, so it holds at the next open too.
    assert RunStore(path).get(first.run_id).payload is None


# -- app-level restart ---------------------------------------------------------

def test_app_restart_serves_byte_identical_reports(tmp_path):
    app = make_app(tmp_path)
    _, sub = submit(app, seed=3)
    assert app.queue.drain(timeout=10.0)
    run_id = sub["run_id"]
    status, before = call(app, "GET", f"/v1/runs/{run_id}/report/ops")
    assert status == 200
    app.close(drain=True, timeout=10.0)

    again = make_app(tmp_path)
    try:
        status, payload = call(again, "GET", "/v1/healthz")
        health = json.loads(payload)
        assert health["durable"] is True and health["recovered_runs"] == 0
        status, after = call(again, "GET", f"/v1/runs/{run_id}/report/ops")
        assert status == 200
        assert after.encode("utf-8") == before.encode("utf-8")
        # The reopened result is resident: dedup still answers from it
        # without executing anything.
        status, dup = submit(again, seed=3)
        assert status == 200 and dup["dedup"] == "cached"
        assert dup["run_id"] == run_id
        assert again.service_metrics()["service.queue.executed"] == 0
    finally:
        again.close(drain=True, timeout=10.0)


def test_app_restart_marks_inflight_interrupted_and_resubmittable(tmp_path):
    gate = threading.Event()
    runner = lambda config, progress: (gate.wait(10.0), fake_payload(config))[1]  # noqa: E731
    app = make_app(tmp_path, runner=runner)
    _, sub = submit(app, seed=8)
    run_id = sub["run_id"]
    # "Crash": abandon the app without draining (the gated worker never
    # finishes; release it afterwards so its thread can exit).
    deadline = time.monotonic() + 5.0
    while app.store.get(run_id).state != "running":
        assert time.monotonic() < deadline
        time.sleep(0.01)
    gate.set()
    app.close(drain=True, timeout=10.0)
    # Rewind the table to the crash point: the run is still live, as if
    # the process died before it finished.
    store = RunStore(str(tmp_path / "state" / "runs.sqlite3"))
    store._db.execute("UPDATE runs SET state='running', finished_at=NULL, "
                      "payload=NULL WHERE run_id=?", (run_id,))
    store._db.commit()
    store.close()

    again = make_app(tmp_path)
    try:
        status, payload = call(again, "GET", f"/v1/runs/{run_id}")
        view = json.loads(payload)
        assert view["state"] == "interrupted"
        assert "resubmit" in view["error"]
        assert json.loads(call(again, "GET", "/v1/healthz")[1])[
            "recovered_runs"] == 1
        status, payload = call(
            again, "GET", f"/v1/runs/{run_id}/report/ops")
        assert status == 409
        assert json.loads(payload)["error"]["code"] == "run_interrupted"
        # The digest is free again: the same config re-runs as a new run.
        status, re_sub = submit(again, seed=8)
        assert status == 202 and re_sub["dedup"] == "new"
        assert re_sub["run_id"] != run_id
        assert again.queue.drain(timeout=10.0)
        record = again.store.get(re_sub["run_id"])
        assert record.state == "done"
    finally:
        again.close(drain=True, timeout=10.0)


def test_graceful_drain_persists_queued_leftovers(tmp_path):
    gate = threading.Event()
    runner = lambda config, progress: (gate.wait(30.0), fake_payload(config))[1]  # noqa: E731
    app = make_app(tmp_path, runner=runner)
    _, first = submit(app, seed=1)   # occupies the single worker
    _, second = submit(app, seed=2)  # stays queued
    deadline = time.monotonic() + 5.0
    while app.store.get(first["run_id"]).state != "running":
        assert time.monotonic() < deadline
        time.sleep(0.01)
    # Drain with a short window while the worker is stuck: the queued
    # run must be persisted as interrupted — not dropped.
    completed = app.close(drain=True, timeout=0.3)
    assert completed is False
    assert app.store.get(second["run_id"]).state == "interrupted"
    gate.set()  # let the stuck worker thread exit
    again = make_app(tmp_path)
    try:
        record = again.store.get(second["run_id"])
        assert record.state == "interrupted"
        status, re_sub = submit(again, seed=2)
        assert status == 202 and re_sub["dedup"] == "new"
    finally:
        again.close(drain=True, timeout=10.0)


# -- the real thing: a served process killed mid-run ---------------------------

TINY = {"scale": 3000, "duration_days": 0.05, "apps": ["exerciser"],
        "tracing": True, "seed": 7}
#: Long enough (~10s) that SIGKILL lands mid-simulation.
LONG = {"scale": 3000, "duration_days": 90.0, "apps": ["exerciser"],
        "tracing": False, "seed": 11}


def _start_server(state_dir):
    """A ``repro serve`` in its own session, so that its process group
    holds the server and every pool worker it starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.setdefault("PYTHONUNBUFFERED", "1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--state-dir", str(state_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, start_new_session=True, cwd=os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    )
    deadline = time.monotonic() + 30.0
    banner = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        banner += line
        match = re.search(r"listening on (http://[\d.]+:\d+)", line)
        if match:
            return proc, match.group(1)
    _kill_group(proc)
    pytest.fail(f"server never announced its port:\n{banner}")


def _kill_group(proc):
    """SIGKILL the server's whole process group, workers included.

    Killing the server alone orphans its pool workers, which then run
    on with nobody left to read their results."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=10.0)
    proc.stdout.close()


def _survivors(pgids):
    """Live (non-zombie) pids whose process group is one of ``pgids``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue  # exited while we looked
        state, pgrp = fields[0], int(fields[2])
        if pgrp in pgids and state != "Z":
            found.append(int(entry))
    return found


def _http(method, url, payload=None):
    import urllib.error
    import urllib.request
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def test_sigkill_mid_run_then_restart_recovers(tmp_path):
    state_dir = tmp_path / "state"
    proc, base = _start_server(state_dir)
    groups = {proc.pid}
    try:
        # One run to completion; keep its exact report bytes.
        status, body = _http("POST", f"{base}/v1/runs", {"config": TINY})
        assert status == 202, body
        done_id = json.loads(body)["run_id"]
        deadline = time.monotonic() + 60.0
        while True:
            status, body = _http("GET", f"{base}/v1/runs/{done_id}")
            if json.loads(body)["state"] == "done":
                break
            assert time.monotonic() < deadline, body
            time.sleep(0.1)
        status, before = _http(
            "GET", f"{base}/v1/runs/{done_id}/report/ops?limit=1000")
        assert status == 200

        # A long run, killed while live.
        status, body = _http("POST", f"{base}/v1/runs", {"config": LONG})
        assert status == 202, body
        long_id = json.loads(body)["run_id"]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, body = _http("GET", f"{base}/v1/runs/{long_id}")
            if json.loads(body)["state"] == "running":
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10.0)
    finally:
        _kill_group(proc)

    proc, base = _start_server(state_dir)
    groups.add(proc.pid)
    try:
        # The finished run survived with byte-identical report bytes.
        status, after = _http(
            "GET", f"{base}/v1/runs/{done_id}/report/ops?limit=1000")
        assert status == 200
        assert after == before
        # The killed run is terminal, explained, and resubmittable.
        status, body = _http("GET", f"{base}/v1/runs/{long_id}")
        view = json.loads(body)
        assert view["state"] == "interrupted", view
        status, body = _http("POST", f"{base}/v1/runs", {"config": LONG})
        assert status == 202, body
        assert json.loads(body)["dedup"] == "new"
        # And no accepted run was lost: both originals are listed.
        status, body = _http("GET", f"{base}/v1/runs")
        listed = {item["run_id"] for item in json.loads(body)["items"]}
        assert {done_id, long_id} <= listed
    finally:
        _kill_group(proc)
    # Neither server, nor any worker either one started, outlives the test.
    deadline = time.monotonic() + 10.0
    while _survivors(groups):
        assert time.monotonic() < deadline, _survivors(groups)
        time.sleep(0.1)
