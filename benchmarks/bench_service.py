"""Grid-as-a-service smoke bench: latency, cache amplification, fairness.

Two benchmarks share ``BENCH_service.json`` (each merges its section
into the file, so CI keeps one trajectory):

* the smoke round-trip — boots the service on an ephemeral port with
  one real worker process, times (a) a cold submit -> poll -> report
  round-trip (one full simulation behind it) and (b) a burst of
  identical resubmissions that must all be answered from the result
  cache without running anything;
* the admission-fairness contention trial — three clients (one greedy,
  two light) race 50 runs through a single worker under FIFO and under
  fair-share dispatch; records each mode's max/min completed-runs ratio
  inside a fixed completion window and each client's p95 queue wait,
  and proves a quota breach never blocks another client's lane.  CI
  gates on ``fair_ratio < fifo_ratio``.
"""

import json
import pathlib
import statistics
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

from repro import ReproService, ServiceApp

OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_service.json"

CONFIG = {"scale": 3000, "duration_days": 0.05, "apps": ["exerciser"],
          "tracing": True, "seed": 7}
HOT_REQUESTS = 50


def http(method, url, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def cold_round_trip(base):
    """Submit a new config, poll to done, fetch one report page."""
    start = time.perf_counter()
    _status, submitted = http("POST", f"{base}/v1/runs", {"config": CONFIG})
    run_id = submitted["run_id"]
    while True:
        _status, view = http("GET", f"{base}/v1/runs/{run_id}")
        if view["state"] in ("done", "failed"):
            break
        time.sleep(0.02)
    assert view["state"] == "done", view
    http("GET", f"{base}/v1/runs/{run_id}/report/ops?limit=50")
    return time.perf_counter() - start


def hot_burst(base):
    """Identical resubmissions: every one must be a cache hit."""
    start = time.perf_counter()
    for _ in range(HOT_REQUESTS):
        status, answer = http("POST", f"{base}/v1/runs", {"config": CONFIG})
        assert status == 200 and answer["dedup"] == "cached", answer
    return time.perf_counter() - start


def test_service_round_trip_smoke(benchmark):
    service = ReproService(port=0, workers=1, queue_depth=8).start()
    results = {}
    try:
        base = service.url

        def flow():
            results["cold_s"] = cold_round_trip(base)
            results["hot_burst_s"] = hot_burst(base)
            return results

        benchmark.pedantic(flow, rounds=1, iterations=1)
        _status, gauges = http("GET", f"{base}/v1/metrics?format=json")
    finally:
        service.close(drain=True, timeout=60.0)

    # The service's reason to exist: one simulation, many answers.
    assert gauges["service.queue.executed"] == 1
    assert gauges["service.cache.hits"] >= HOT_REQUESTS

    cold = results["cold_s"]
    hot_each = results["hot_burst_s"] / HOT_REQUESTS
    print(f"\ncold submit->report round-trip: {cold * 1e3:.1f} ms")
    print(f"cached submit (x{HOT_REQUESTS} avg): {hot_each * 1e3:.2f} ms")

    _merge_out({
        "bench": "service_round_trip",
        "config": CONFIG,
        "cold_round_trip_s": round(cold, 4),
        "hot_requests": HOT_REQUESTS,
        "hot_request_mean_s": round(hot_each, 6),
        "cache_speedup": round(cold / max(hot_each, 1e-9), 1),
        "simulations_executed": gauges["service.queue.executed"],
        "cache_hits": gauges["service.cache.hits"],
    })
    print(f"wrote {OUT.name}")


def _merge_out(update):
    """Merge one bench's keys into BENCH_service.json (both benches in
    this file share the output; neither may clobber the other)."""
    data = {}
    if OUT.exists():
        try:
            data = json.loads(OUT.read_text())
        except ValueError:
            data = {}
    data.update(update)
    OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# -- admission fairness under contention --------------------------------------

#: Per-run stub duration: long enough that dispatch order dominates the
#: outcome, short enough that two full 50-run trials stay under ~3 s.
RUN_S = 0.02
GREEDY_RUNS = 30
LIGHT_RUNS = 10
#: Completed-run window the max/min ratio is read at: enough for FIFO
#: to expose the starvation, well under the total so fairness can show.
WINDOW = 20


def _stub_payload(seed):
    return {"reports": {"ops": [], "troubleshooting": [], "trace": []},
            "summary": {"seed": seed}}


def _submit(app, seed, client):
    status, body = app.handle(
        "POST", "/v1/runs", {},
        json.dumps({"config": {"seed": seed}, "client": client}).encode())
    assert status == 202, body
    return json.loads(body)["run_id"]


def _contention_trial(fair):
    """One 3-client race through a single worker; returns the window
    completion counts and per-client p95 queue wait."""
    gate = threading.Event()

    def runner(config):
        if config.seed == 999999:   # the blocker occupying the worker
            gate.wait(30.0)
        else:
            time.sleep(RUN_S)
        return _stub_payload(config.seed)

    app = ServiceApp(
        workers=1, queue_depth=256, cache_bytes=1024 * 1024,
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        runner=runner,
    )
    if not fair:
        app.queue.admission = None  # strict FIFO baseline
    owners = {}
    try:
        _submit(app, 999999, "warmup")  # holds the worker while we queue
        time.sleep(0.05)
        # The greedy client floods first; the light clients arrive after.
        for i in range(GREEDY_RUNS):
            owners[_submit(app, 1000 + i, "greedy")] = "greedy"
        for i in range(LIGHT_RUNS):
            owners[_submit(app, 2000 + i, "light-a")] = "light-a"
        for i in range(LIGHT_RUNS):
            owners[_submit(app, 3000 + i, "light-b")] = "light-b"
        gate.set()
        # Read the score when WINDOW contended runs have completed.
        deadline = time.monotonic() + 60.0
        while True:
            done = [r for r in app.store.runs()
                    if r.state == "done" and r.run_id in owners]
            if len(done) >= WINDOW:
                break
            assert time.monotonic() < deadline, "contention trial stalled"
            time.sleep(0.005)
        window_counts = {"greedy": 0, "light-a": 0, "light-b": 0}
        for record in done[:WINDOW]:
            window_counts[owners[record.run_id]] += 1
        assert app.queue.drain(timeout=60.0)
        waits = {"greedy": [], "light-a": [], "light-b": []}
        for run_id, owner in owners.items():
            record = app.store.get(run_id)
            waits[owner].append(record.started_at - record.submitted_at)
        p95 = {
            owner: round(statistics.quantiles(vals, n=20)[-1], 4)
            for owner, vals in waits.items()
        }
    finally:
        gate.set()
        app.close(drain=True, timeout=30.0)
    ratio = max(window_counts.values()) / max(1, min(window_counts.values()))
    return {"window_counts": window_counts, "ratio": round(ratio, 2),
            "p95_wait_s": p95}


def _quota_isolation_check():
    """A greedy client at quota gets 429; another client still gets 202."""
    gate = threading.Event()

    def runner(config):
        gate.wait(30.0)
        return _stub_payload(config.seed)

    app = ServiceApp(
        workers=1, queue_depth=64, cache_bytes=1024 * 1024,
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        runner=runner, quota_per_client=2,
    )
    try:
        body = lambda seed, client: json.dumps(  # noqa: E731
            {"config": {"seed": seed}, "client": client}).encode()
        assert app.respond("POST", "/v1/runs", {}, body(1, "greedy"))[0] == 202
        assert app.respond("POST", "/v1/runs", {}, body(2, "greedy"))[0] == 202
        status, payload, headers = app.respond(
            "POST", "/v1/runs", {}, body(3, "greedy"))
        breach_seen = (
            status == 429
            and json.loads(payload)["error"]["code"] == "quota_exceeded"
            and int(dict(headers)["Retry-After"]) >= 1
        )
        other_unblocked = app.respond(
            "POST", "/v1/runs", {}, body(4, "light"))[0] == 202
    finally:
        gate.set()
        app.close(drain=True, timeout=30.0)
    return breach_seen, other_unblocked


def test_admission_fairness_benchmark(benchmark):
    results = {}

    def trial():
        results["fifo"] = _contention_trial(fair=False)
        results["fair"] = _contention_trial(fair=True)
        return results

    benchmark.pedantic(trial, rounds=1, iterations=1)
    breach_seen, other_unblocked = _quota_isolation_check()

    fifo, fair = results["fifo"], results["fair"]
    print(f"\nFIFO window counts: {fifo['window_counts']} "
          f"(max/min ratio {fifo['ratio']})")
    print(f"fair window counts: {fair['window_counts']} "
          f"(max/min ratio {fair['ratio']})")
    print(f"p95 wait FIFO: {fifo['p95_wait_s']}")
    print(f"p95 wait fair: {fair['p95_wait_s']}")

    # The acceptance criterion: fair-share is strictly fairer than FIFO
    # inside the contention window, and quotas isolate per client.
    assert fair["ratio"] < fifo["ratio"], (fair, fifo)
    assert breach_seen and other_unblocked

    _merge_out({"admission": {
        "bench": "admission_fairness",
        "clients": {"greedy": GREEDY_RUNS, "light-a": LIGHT_RUNS,
                    "light-b": LIGHT_RUNS},
        "run_stub_s": RUN_S,
        "window": WINDOW,
        "fifo_ratio": fifo["ratio"],
        "fair_ratio": fair["ratio"],
        "fifo_window_counts": fifo["window_counts"],
        "fair_window_counts": fair["window_counts"],
        "fifo_p95_wait_s": fifo["p95_wait_s"],
        "fair_p95_wait_s": fair["p95_wait_s"],
        "quota_breach_seen": breach_seen,
        "quota_isolated": other_unblocked,
    }})
    print(f"merged admission fairness into {OUT.name}")
