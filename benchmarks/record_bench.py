"""Record one performance snapshot of the simulator and its service.

Runs eleven sections in one process and writes them as one entry of
``BENCH.json``::

    {"history": [{"commit", "mode", "python", "sections", "gates"}, ...]}

A run replaces the entry with the same commit and mode; otherwise it
appends one, so the file keeps a per-commit trajectory.  The sections:

* ``kernel``: timeout-chain event throughput;
* ``grid_7day``: full-mix Grid3 wall time, ACDC records, dispatched
  events and garbage-collector counters at scales 400 and 100;
* ``store``: MetricStore query, latest and batch-append latency;
* ``sweep``: sequential vs parallel experiment sweep;
* ``scale``: the 27/200/500-site ladder against a metrics memory bound;
* ``transfers``: a managed-transfer burst;
* ``trace``: tracing overhead, plus a loadable Perfetto sample written
  to ``trace_sample.json`` beside the output;
* ``progress``: progress-hook overhead;
* ``service``: a cold HTTP round trip, then cached resubmits;
* ``admission``: fair-share vs FIFO dispatch, and per-client quotas;
* ``fairshare``: the contention scenario with the policy layer off/on.

Every gate is declared once, in :func:`gate_table`.  The entry is
written first; the exit status is 1 if any gate failed.  Run from the
repo root:

    PYTHONPATH=src python benchmarks/record_bench.py            # full
    PYTHONPATH=src python benchmarks/record_bench.py --smoke    # CI

``--smoke`` shrinks the simulator workloads so the whole script
finishes in about a minute; the numbers are noisier but the entry has
the same shape.  The progress, service, admission and fair-share
sections run the same configs in both modes.
"""

from __future__ import annotations

import argparse
import gc
import json
import operator
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Tuple

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(REPO, "src"))

from repro import (  # noqa: E402
    SCENARIOS,
    Grid3,
    Grid3Config,
    GridClient,
    ReproService,
    ServiceApp,
)
from repro.failures import FailureProfile  # noqa: E402
from repro.lab.experiment import ExperimentSpec, run_experiment  # noqa: E402
from repro.monitoring.core import (  # noqa: E402
    SAMPLE_COST_BYTES,
    MetricSample,
    MetricStore,
    make_tags,
)
from repro.monitoring.prometheus import grid_stores  # noqa: E402
from repro.sim import DAY, Engine, GB  # noqa: E402
from repro.trace import write_chrome_trace  # noqa: E402


def bench_kernel(smoke: bool) -> Dict[str, float]:
    """Timeout-chain throughput: the test_kernel_event_throughput shape."""
    chains, length = (10, 500) if smoke else (10, 5000)
    total = chains * length
    best = float("inf")
    for _ in range(3 if smoke else 5):
        eng = Engine()

        def chain(n, eng=eng):
            for _ in range(n):
                yield eng.timeout(1.0)

        for _ in range(chains):
            eng.process(chain(length))
        t0 = time.perf_counter()
        eng.run()
        best = min(best, time.perf_counter() - t0)
    return {
        "events": total,
        "best_ms": round(best * 1e3, 2),
        "events_per_sec": round(total / best),
    }


def bench_grid(smoke: bool) -> Dict[str, float]:
    """Full-mix Grid3 wall time at the two bench scales, with the record
    and dispatched-event counts that show the trajectory did not move.

    Also the garbage collector's share, recorded but not gated (both
    counts differ between Python versions): the gen-2 collections that
    started during ``run_full()`` and the objects the collector tracks
    once a final collection has run, with the grid still alive."""
    days = 2 if smoke else 7
    out: Dict[str, float] = {"duration_days": days}
    gen2 = Counter()

    def count_gen2(phase: str, info: Dict[str, int]) -> None:
        if phase == "start" and info["generation"] == 2:
            gen2["collections"] += 1

    for scale in (400, 100):
        t0 = time.perf_counter()
        grid = Grid3(Grid3Config(
            seed=3, scale=scale, duration_days=days,
            failures=FailureProfile.calm(),
        ))
        gen2.clear()
        gc.callbacks.append(count_gen2)
        try:
            grid.run_full()
        finally:
            gc.callbacks.remove(count_gen2)
        out[f"scale{scale}_s"] = round(time.perf_counter() - t0, 3)
        out[f"scale{scale}_records"] = len(grid.acdc_db)
        out[f"scale{scale}_events"] = grid.engine.dispatched
        out[f"scale{scale}_gc_gen2"] = gen2["collections"]
        gc.collect()
        out[f"scale{scale}_gc_tracked"] = len(gc.get_objects())
    return out


def bench_store(smoke: bool) -> Dict[str, float]:
    """Window-query latency on a populated multi-site store, then the
    paths runs and the service take on a bounded 2048-sample ring:
    6-sample batches in, then one latest-per-series read, one
    latest-values read (what the exposition reads), a window query, a
    latest read and a window_stats read (the service scrape store's
    alert reads)."""
    n = 20_000 if smoke else 200_000
    sites = [f"Site{i}" for i in range(8)]
    store = MetricStore()
    for i in range(n):
        store.append(MetricSample(
            float(i), "cpu.busy", float(i % 97),
            make_tags(site=sites[i % len(sites)]),
        ))
    reps = 50 if smoke else 200
    lo, hi = n * 0.45, n * 0.55

    t0 = time.perf_counter()
    for _ in range(reps):
        got = store.query("cpu.busy", since=lo, until=hi)
    window_us = (time.perf_counter() - t0) / reps * 1e6
    assert got

    ring = MetricStore(max_samples=2048)
    batches = [
        [MetricSample(float(i), "cpu.busy", float(i % 97),
                      make_tags(site=site)) for site in sites[:6]]
        for i in range(2_000 if smoke else 20_000)
    ]
    t0 = time.perf_counter()
    for batch in batches:
        ring.extend(batch)
    extend_us = (time.perf_counter() - t0) / len(batches) * 1e6
    assert len(ring) == 2048

    t0 = time.perf_counter()
    for _ in range(reps):
        per_series = ring.latest_per_series("cpu.busy")
    per_series_us = (time.perf_counter() - t0) / reps * 1e6
    assert len(per_series) == 6

    t0 = time.perf_counter()
    for _ in range(reps):
        values = ring.latest_values("cpu.busy")
    values_us = (time.perf_counter() - t0) / reps * 1e6
    assert len(values) == 6

    newest = ring.latest("cpu.busy").time
    since = newest - 100.0
    t0 = time.perf_counter()
    for _ in range(reps):
        got = ring.query("cpu.busy", since=since, until=newest)
    ring_window_us = (time.perf_counter() - t0) / reps * 1e6
    assert len(got) == 6 * 101

    t0 = time.perf_counter()
    for _ in range(reps):
        latest = ring.latest("cpu.busy")
    ring_latest_us = (time.perf_counter() - t0) / reps * 1e6
    assert latest is not None

    t0 = time.perf_counter()
    for _ in range(reps):
        stats = ring.window_stats("cpu.busy", since, newest)
    ring_stats_us = (time.perf_counter() - t0) / reps * 1e6
    assert stats["count"] == 6 * 101

    return {
        "samples": n,
        "query_window_us": round(window_us, 1),
        "ring_samples": len(ring),
        "extend_batch6_us": round(extend_us, 2),
        "latest_per_series_us": round(per_series_us, 1),
        "latest_values_us": round(values_us, 1),
        "ring_query_window_us": round(ring_window_us, 1),
        "ring_latest_us": round(ring_latest_us, 2),
        "ring_window_stats_us": round(ring_stats_us, 1),
    }


def _metric_success(grid: Grid3) -> float:
    return grid.acdc_db.success_rate()


def _metric_cpu_days(grid: Grid3) -> float:
    return grid.acdc_db.total_cpu_days()


def bench_worker_sweep(smoke: bool) -> Dict[str, object]:
    """Worker-count sweep.

    Runs the same spec at workers=1 (the reference), then at each count
    in {2, N} that fits the core budget (N = available cores), recording
    wall time, speedup, and an ``identical_results`` flag per count.
    Each parallel arm includes its pool's start-up.  On a single-core
    box there is nothing to fan out to; only the sequential arm is
    recorded, with a note.
    """
    from repro.lab.experiment import _available_cores

    spec = ExperimentSpec(
        name="worker-sweep",
        base=dict(scale=500 if smoke else 200,
                  duration_days=1 if smoke else 2),
        variants={"calm": {}, "noisy": dict(failures=FailureProfile.early()),
                  "wide": dict(scale=350 if smoke else 150)},
        metrics={"success": _metric_success, "cpu_days": _metric_cpu_days},
        repeats=2 if smoke else 3,
    )
    cores = _available_cores()
    t0 = time.perf_counter()
    ref = run_experiment(spec, workers=1)
    sequential_s = time.perf_counter() - t0

    counts = sorted({n for n in (2, cores) if 1 < n <= cores})
    runs = []
    for n in counts:
        t0 = time.perf_counter()
        par = run_experiment(spec, workers=n)
        parallel_s = time.perf_counter() - t0
        runs.append({
            "workers": n,
            "parallel_s": round(parallel_s, 3),
            "speedup": round(sequential_s / parallel_s, 2) if parallel_s else None,
            "identical_results": par == ref,
        })
    result = {
        "cells": len(spec.variants) * spec.repeats,
        "cores": cores,
        "sequential_s": round(sequential_s, 3),
        "runs": runs,
    }
    if not runs:
        result["note"] = "single-core budget: workers clamp to 1, nothing to sweep"
    return result


def live_samples(grid) -> int:
    """Samples held by every MetricStore of ``grid``: the monitoring
    estate's stores plus each site's Ganglia page."""
    stores = list(grid_stores(grid).values())
    stores.extend(site.service("ganglia").local_store
                  for site in grid.sites.values())
    return sum(len(store) for store in stores)


def bench_scale(smoke: bool) -> Dict[str, object]:
    """The 27-vs-N-site ladder.

    Runs the same traced-free workload on the paper catalog and on
    synthetic fabrics, recording wall time, kernel events/s (the
    engine's dispatch counter over wall clock), process peak RSS
    (``ru_maxrss`` — no psutil in the container), and the live metric
    samples at the end of the run.  A store's sample count never falls
    (a ring drops one sample per sample it takes), so the end-of-run
    count is the peak.  The gate: live samples at
    :data:`SAMPLE_COST_BYTES` each must fit the rung's budget.
    """
    import resource

    days = 1 if smoke else 2
    ladder = (27, 100, 200) if smoke else (27, 200, 500)
    budget_mb = 16.0 if smoke else 64.0
    rows = []
    for sites in ladder:
        fabric = None if sites == 27 else {"sites": sites}
        t0 = time.perf_counter()
        grid = Grid3(Grid3Config(
            seed=11, scale=400, duration_days=days,
            fabric=fabric,
            apps=["usatlas", "ivdgl", "exerciser"],
            failures=FailureProfile.calm(),
        ))
        grid.run_full()
        wall = time.perf_counter() - t0
        live = live_samples(grid)
        rows.append({
            "sites": len(grid.sites),
            "total_cpus": grid.total_cpus(),
            "wall_s": round(wall, 3),
            "events": grid.engine.dispatched,
            "events_per_sec": round(grid.engine.dispatched / wall) if wall else None,
            "records": len(grid.acdc_db),
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
            ),
            "metrics_budget_mb": budget_mb,
            "live_samples": live,
            "metrics_live_bytes": live * SAMPLE_COST_BYTES,
        })
        print(f"  scale ladder {sites} sites: {rows[-1]}", flush=True)
    return {"duration_days": days, "ladder": rows}


def bench_transfers(smoke: bool) -> Dict[str, object]:
    """Managed-transfer throughput benchmark: N concurrent
    TransferManager tickets fanning out from the Tier1 sources across
    the whole 27-site catalog, SRM-free, failure-free — measures the
    queueing/selection/network machinery itself."""
    per_site = 2 if smoke else 15
    grid = Grid3(Grid3Config(
        seed=11, scale=400, duration_days=30.0,
        failures=FailureProfile.disabled(),
        misconfig_probability=0.0,
        ops_team=False, local_load=False,
        data_management=True,
    ))
    grid.deploy()
    sources = ["BNL_ATLAS", "FNAL_CMS"]
    dsts = sorted(grid.sites)
    n = per_site * len(dsts)
    size = 1 * GB
    for i in range(n):
        lfn = f"/bench/burst/{i:05d}"
        src = sources[i % len(sources)]
        if lfn not in grid.sites[src].storage:
            grid.sites[src].storage.store(lfn, size)
        grid.rls.register(src, lfn, size)

    t0 = time.perf_counter()
    tickets = [
        grid.data.transfers.submit(
            f"/bench/burst/{i:05d}", size, dsts[i % len(dsts)], vo="bench",
        )
        for i in range(n)
    ]
    # Step only until the queues drain — the horizon is just a backstop.
    while grid.data.transfers.outstanding() and grid.engine.now < 30 * DAY:
        if not grid.engine.step():
            break
    wall = time.perf_counter() - t0
    done = sum(1 for t in tickets if t.ok)
    return {
        "transfers": n,
        "sites": len(dsts),
        "completed": done,
        "failed": n - done,
        "bytes_moved_gb": round(grid.data.transfers.bytes_moved / GB, 1),
        "sim_hours": round(grid.engine.now / 3600.0, 2),
        "wall_s": round(wall, 3),
        "transfers_per_wall_s": round(n / wall) if wall else None,
    }


def interleaved_best_of(
    run: Callable[[bool], Tuple[float, Grid3]], rounds: int,
) -> Tuple[float, float, int, Grid3]:
    """Best-of-``rounds`` wall time of ``run(False)`` and ``run(True)``.

    ``run(on)`` returns ``(seconds, grid)``.  One untimed pair levels
    imports and caches across both arms; then the arms alternate each
    round, so machine drift hits both equally and a noise spike can
    only slow an arm, never flatter it.  Both arms must dispatch the
    same events and end at the same clock.  Returns ``(off_s, on_s,
    diverged_rounds, last_on_grid)``, where ``diverged_rounds`` counts
    the rounds whose arms did not.
    """
    run(False)
    run(True)
    off_best = on_best = float("inf")
    diverged = 0
    for _ in range(rounds):
        off_s, off = run(False)
        on_s, on = run(True)
        off_best, on_best = min(off_best, off_s), min(on_best, on_s)
        diverged += ((off.engine.dispatched, off.engine.now)
                     != (on.engine.dispatched, on.engine.now))
    return off_best, on_best, diverged, on


def _overhead_pct(off_s: float, on_s: float) -> float:
    return round((on_s / off_s - 1.0) * 100, 2)


def bench_trace(smoke: bool, perfetto_out: str) -> Dict[str, object]:
    """Tracing overhead: identical same-seed runs with tracing off/on.

    The determinism contract says spans are passive (no events, no RNG),
    so the only cost is span-object bookkeeping; the budget is <= 10%
    wall-clock overhead on the standard scenario.  Smoke runs are about
    0.3 s, deep in scheduler noise, hence more rounds there.  The last
    traced run is exported to ``perfetto_out`` so the artifact loads
    straight into ui.perfetto.dev.
    """
    days = 2 if smoke else 7
    reps = 5 if smoke else 3

    def run(tracing: bool):
        t0 = time.perf_counter()
        grid = Grid3(Grid3Config(
            seed=3, scale=400, duration_days=days,
            failures=FailureProfile.calm(), tracing=tracing,
        ))
        grid.run_full()
        return time.perf_counter() - t0, grid

    untraced, traced, diverged, grid = interleaved_best_of(run, reps)
    store = grid.tracer.store
    n_events = write_chrome_trace(store, perfetto_out,
                                  clip_open_at=grid.engine.now)
    print(f"  wrote {n_events} trace events to {perfetto_out}", flush=True)
    return {
        "duration_days": days,
        "reps": reps,
        "untraced_s": round(untraced, 3),
        "traced_s": round(traced, 3),
        "overhead_pct": _overhead_pct(untraced, traced),
        "diverged_rounds": diverged,
        "traces": len(store),
        "spans": store.span_count(),
    }


#: The progress-hook run: one week of the default mix, in both modes.
PROGRESS_CONFIG = dict(scale=200.0, duration_days=7.0, seed=42)
#: Best-of-N needs enough rounds to shake scheduler noise out of both
#: arms; 3 was observably too few (±10% round-to-round on a busy box).
PROGRESS_ROUNDS = 6


def bench_progress(smoke: bool) -> Dict[str, object]:
    """Progress-hook overhead: same-seed runs, unsliced and metered.

    Every ``run_full()`` is metered, so the off arm is the bare
    unsliced sequence written out here (deploy, start applications,
    one ``run()``, final ACDC poll), and the on arm is ``run_full``
    with a callback.  The gate prices slicing ``engine.run(until=)``
    plus the counter reads between slices, and ``diverged_rounds``
    counts the rounds whose sliced run dispatched different events or
    ended on a different clock than the unsliced one.  The budget is
    <= 5% of wall clock.
    """
    emitted: List[object] = []

    def run(hooks: bool):
        grid = Grid3(Grid3Config(**PROGRESS_CONFIG))
        emitted.clear()
        t0 = time.perf_counter()
        if hooks:
            grid.run_full(progress=emitted.append)
        else:
            grid.deploy()
            grid.start_applications()
            grid.run()
            grid.monitors["acdc"].poll_once()
        return time.perf_counter() - t0, grid

    off, on, diverged, _grid = interleaved_best_of(run, PROGRESS_ROUNDS)
    return {
        "config": PROGRESS_CONFIG,
        "rounds": PROGRESS_ROUNDS,
        "hooks_off_best_s": round(off, 4),
        "hooks_on_best_s": round(on, 4),
        "events_emitted": len(emitted),
        "overhead_pct": _overhead_pct(off, on),
        "diverged_rounds": diverged,
    }


SERVICE_CONFIG = {"scale": 3000, "duration_days": 0.05, "apps": ["exerciser"],
                  "tracing": True, "seed": 7}
HOT_REQUESTS = 50


def bench_service(smoke: bool) -> Dict[str, object]:
    """Grid-as-a-service on an ephemeral port with one real worker
    process: a cold submit -> poll -> report round trip (one full
    simulation behind it), then a burst of identical resubmissions that
    must all be answered from the result cache without running
    anything — the service's reason to exist."""
    service = ReproService(port=0, workers=1, queue_depth=8).start()
    try:
        with GridClient(service.url, timeout=60) as client:
            t0 = time.perf_counter()
            submitted = client.submit(SERVICE_CONFIG)
            view = client.wait(submitted.run_id, poll_s=0.02)
            assert view.state == "done", view
            client.report(view.run_id, "ops", limit=50)
            cold = time.perf_counter() - t0

            hot_cached = 0
            t0 = time.perf_counter()
            for _ in range(HOT_REQUESTS):
                answer = client.submit(SERVICE_CONFIG)
                hot_cached += answer.dedup == "cached"
            hot_each = (time.perf_counter() - t0) / HOT_REQUESTS
            gauges = client.metrics()
    finally:
        service.close(drain=True, timeout=60.0)
    return {
        "config": SERVICE_CONFIG,
        "cold_round_trip_s": round(cold, 4),
        "hot_requests": HOT_REQUESTS,
        "hot_cached": hot_cached,
        "hot_request_mean_s": round(hot_each, 6),
        "cache_speedup": round(cold / max(hot_each, 1e-9), 1),
        "simulations_executed": gauges["service.queue.executed"],
        "cache_hits": gauges["service.cache.hits"],
    }


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


def _submission(seed, client) -> bytes:
    return json.dumps({"config": {"seed": seed}, "client": client}).encode()


def _submit(app, seed, client):
    status, body, _headers = app.respond(
        "POST", "/v1/runs", {}, _submission(seed, client))
    assert status == 202, body
    return json.loads(body)["run_id"]


def _contention_trial(fair):
    """One 3-client race through a single worker; returns the window
    completion counts and per-client p95 queue wait."""
    gate = threading.Event()

    def runner(config, progress):
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

    def runner(config, progress):
        gate.wait(30.0)
        return _stub_payload(config.seed)

    app = ServiceApp(
        workers=1, queue_depth=64, cache_bytes=1024 * 1024,
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        runner=runner, quota_per_client=2,
    )
    try:
        _submit(app, 1, "greedy")
        _submit(app, 2, "greedy")
        status, payload, headers = app.respond(
            "POST", "/v1/runs", {}, _submission(3, "greedy"))
        breach_seen = (
            status == 429
            and json.loads(payload)["error"]["code"] == "quota_exceeded"
            and int(dict(headers)["Retry-After"]) >= 1
        )
        other_unblocked = app.respond(
            "POST", "/v1/runs", {}, _submission(4, "light"))[0] == 202
    finally:
        gate.set()
        app.close(drain=True, timeout=30.0)
    return breach_seen, other_unblocked


def bench_admission(smoke: bool) -> Dict[str, object]:
    """Admission fairness under contention: three clients (one greedy,
    two light) race 50 stub runs through a single worker under FIFO and
    under fair-share dispatch.  Records each mode's max/min
    completed-runs ratio inside a fixed completion window and each
    client's p95 queue wait, and checks that a quota breach never
    blocks another client's lane."""
    fifo = _contention_trial(fair=False)
    fair = _contention_trial(fair=True)
    breach_seen, other_unblocked = _quota_isolation_check()
    return {
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
    }


def _fairshare_variant(fair_share: bool) -> Dict[str, object]:
    grid = Grid3(SCENARIOS["contention"](seed=42, fair_share=fair_share))
    grid.run_full()
    done = Counter(r.vo for r in grid.acdc_db.records() if r.succeeded)
    ratio = max(done.values()) / max(1, min(done.values())) if done else 0.0
    out = {
        "completed_by_vo": dict(sorted(done.items())),
        "maxmin_ratio": round(ratio, 3),
        "records": len(grid.acdc_db),
    }
    if fair_share:
        out["policy_rejections"] = sum(r.count for r in grid.policy_report())
        out["cap_violations"] = len(grid.policy_engine.cap_violations())
        out["sched_usage_samples"] = len(
            grid.monitors["sched"].query("sched.fairshare.usage")
        )
    return out


def bench_fairshare(smoke: bool) -> Dict[str, object]:
    """Fair-share scheduling: the multi-VO contention scenario at its
    pinned seed, fair share off then on.  The §5/§7 shape claims:
    fair share lowers the max/min per-VO completion ratio, share caps
    hold, and the policy layer records its usage."""
    t0 = time.perf_counter()
    off = _fairshare_variant(False)
    on = _fairshare_variant(True)
    return {
        "scenario": "contention",
        "seed": 42,
        "wall_seconds_both_runs": round(time.perf_counter() - t0, 3),
        "off": off,
        "on": on,
    }


_OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
        ">": operator.gt, ">=": operator.ge}


def gate(name: str, value, op: str, budget) -> Dict[str, object]:
    """One gate: ``value op budget`` must hold."""
    return {"name": name, "value": value, "budget": f"{op} {budget}",
            "ok": bool(_OPS[op](value, budget))}


def gate_table(sections: Dict[str, Dict]) -> List[Dict[str, object]]:
    """Every gate of a snapshot, read from its ``sections``.

    The two wall-clock budgets (tracing, progress hooks) are best-of-N
    ratios; everything else is exact.
    """
    sweep, trace, progress = (sections[k] for k in ("sweep", "trace", "progress"))
    service, admission = sections["service"], sections["admission"]
    off, on = sections["fairshare"]["off"], sections["fairshare"]["on"]
    rows = []
    # Only on a multi-core box: fanning out must reproduce the
    # sequential results and never lose to sequential at the same spec.
    for run in sweep["runs"]:
        arm = f"sweep.workers{run['workers']}"
        rows.append((f"{arm}.identical_results",
                     run["identical_results"], "==", True))
        rows.append((f"{arm}.parallel_s",
                     run["parallel_s"], "<=", sweep["sequential_s"]))
    for rung in sections["scale"]["ladder"]:
        rows.append((f"scale.sites{rung['sites']}.metrics_live_bytes",
                     rung["metrics_live_bytes"], "<=",
                     int(rung["metrics_budget_mb"] * 1024 * 1024)))
    rows += [
        ("trace.overhead_pct", trace["overhead_pct"], "<=", 10.0),
        ("trace.diverged_rounds", trace["diverged_rounds"], "==", 0),
        ("progress.overhead_pct", progress["overhead_pct"], "<=", 5.0),
        ("progress.diverged_rounds", progress["diverged_rounds"], "==", 0),
        ("service.simulations_executed", service["simulations_executed"], "==", 1),
        ("service.cache_hits", service["cache_hits"], ">=", service["hot_requests"]),
        ("service.hot_cached", service["hot_cached"], "==", service["hot_requests"]),
        ("admission.fair_ratio", admission["fair_ratio"], "<", admission["fifo_ratio"]),
        ("admission.quota_breach_seen", admission["quota_breach_seen"], "==", True),
        ("admission.quota_isolated", admission["quota_isolated"], "==", True),
        ("fairshare.on.maxmin_ratio", on["maxmin_ratio"], "<", off["maxmin_ratio"]),
        ("fairshare.on.cap_violations", on["cap_violations"], "==", 0),
        ("fairshare.on.sched_usage_samples", on["sched_usage_samples"], ">", 0),
    ]
    return [gate(*row) for row in rows]


def head_commit() -> str:
    """Short hash of the checked-out commit, or ``"unknown"``."""
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=REPO, capture_output=True, text=True)
    except FileNotFoundError:  # no git on this machine
        return "unknown"
    return done.stdout.strip() or "unknown"


def record(out: str, entry: Dict[str, object]) -> int:
    """Write ``entry`` into the history at ``out``, then return the exit
    status: 1 if any of its gates failed, else 0.

    An entry with the same commit and mode is replaced in place;
    otherwise ``entry`` is appended.
    """
    history = []
    if os.path.exists(out):
        with open(out) as fh:
            history = json.load(fh)["history"]
    key = (entry["commit"], entry["mode"])
    for i, old in enumerate(history):
        if (old["commit"], old["mode"]) == key:
            history[i] = entry
            break
    else:
        history.append(entry)
    with open(out, "w") as fh:
        json.dump({"history": history}, fh, indent=2)
        fh.write("\n")
    return 0 if all(g["ok"] for g in entry["gates"]) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny simulator workloads (CI smoke job)")
    parser.add_argument("--out", default="BENCH.json",
                        help="history file to update (default: BENCH.json)")
    args = parser.parse_args(argv)
    # The trace sample is written beside the history file, mid-run: make
    # the directory before the first section, not after ten seconds.
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    perfetto_out = os.path.join(out_dir, "trace_sample.json")

    sections: Dict[str, Dict] = {}
    for name, fn in (
        ("kernel", bench_kernel), ("grid_7day", bench_grid),
        ("store", bench_store), ("sweep", bench_worker_sweep),
        ("scale", bench_scale), ("transfers", bench_transfers),
        ("trace", lambda smoke: bench_trace(smoke, perfetto_out)),
        ("progress", bench_progress), ("service", bench_service),
        ("admission", bench_admission), ("fairshare", bench_fairshare),
    ):
        t0 = time.perf_counter()
        sections[name] = fn(args.smoke)
        print(f"{name}: {sections[name]} ({time.perf_counter() - t0:.1f}s)",
              flush=True)

    gates = gate_table(sections)
    for g in gates:
        print(f"{'ok  ' if g['ok'] else 'FAIL'} {g['name']} = {g['value']} "
              f"(budget {g['budget']})")
    status = record(args.out, {
        "commit": head_commit(),
        "mode": "smoke" if args.smoke else "full",
        "python": sys.version.split()[0],
        "sections": sections,
        "gates": gates,
    })
    print(f"wrote {args.out}; {sum(not g['ok'] for g in gates)} of "
          f"{len(gates)} gates failed")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
