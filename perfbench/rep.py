"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this once per repetition, from the repository root
with the program's ``src/`` on ``PYTHONPATH``::

    python3 perfbench/rep.py --workload paper-busy --seed 1 --size full --trace 0

The last line of standard output is one JSON object: the repetition's
timings (per round of a simulation workload, per cycle of the
service workload), a fingerprint of everything it computed, its
deterministic counters and, with ``--trace 1``, the per-layer split the
hooks of ``layers.py`` measured.  ``run.py`` turns the raw timings into
the metrics.  The program is driven only through public calls:
``repro``, ``repro.analysis``, ``repro.monitoring``, ``repro.ops``,
``repro.service`` and the ``/v1`` routes via ``repro.client``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional

from layers import LayerTracer
from refclock import ReferenceClock

#: Grid3Config knobs of the simulation workloads, at full and smoke size.
SIM_WORKLOADS = {
    # The paper's 27-site catalog, all eight demonstrators: many jobs on
    # few sites, so site selection dominates.
    "paper-busy": {
        "full": {"scale": 50.0, "duration_days": 1.0},
        "smoke": {"scale": 400.0, "duration_days": 0.5},
    },
    # A 200-site synthetic fabric with three applications: few jobs on
    # many sites, so the periodic monitoring producers dominate.  The
    # fabric is the same for every seed (its generator has its own seed)
    # so that runs at different seeds measure the same estate.
    "wide-quiet": {
        "full": {"fabric": {"sites": 200, "seed": 2003}, "scale": 400.0,
                 "duration_days": 1.0, "alerts": True,
                 "apps": ["usatlas", "ivdgl", "exerciser"]},
        "smoke": {"fabric": {"sites": 30, "seed": 2003}, "scale": 2000.0,
                  "duration_days": 0.5, "alerts": True,
                  "apps": ["usatlas", "ivdgl", "exerciser"]},
    },
}

#: Configurations per simulation repetition.  Seed ``s`` runs the
#: simulation seeds ``s * n .. s * n + n - 1``, one round each, so a
#: metric averages over ``n`` simulations and one unlucky seed moves it
#: less.
SUB_SEEDS = {"paper-busy": 3, "wide-quiet": 2}
#: Set-ups per round (build + deploy + start_applications); the grid of
#: the last one is the one that runs.
SETUPS = 3
#: The run is advanced in this many equal slices of simulated time, each
#: timed on its own (the kernel dispatches the same events either way).
SLICES = 24
#: Passes of the analysis phase per round, and further scrapes of the
#: Prometheus page after them.
ANALYSIS_PASSES = 3
SCRAPES = 10

#: The tiny run service-mix submits (about 0.1 s of simulation).
SERVICE_RUN = {"scale": 3000.0, "duration_days": 0.05, "apps": ["exerciser"]}
#: Runs each boot of the service does before it counts as set up.
WARM_RUNS = 2
#: service-mix size: (cycles, each one new run and this many cached
#: resubmissions).
SERVICE_SIZES = {"full": (100, 20), "smoke": (4, 3)}
REPORT_PAGE = 100
POLL_S = 0.005

clock = time.perf_counter


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(parts: List[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


# -- the simulation workloads ------------------------------------------------

def install_sim_hooks(tracer: LayerTracer) -> None:
    """Class-level hooks, installed before the grid is built."""
    wrap = tracer.wrap_public
    wrap("select", "repro.scheduling", "SiteSelector.select")
    wrap("candidates", "repro.scheduling", "SiteSelector.candidates",
         count_result=True)
    wrap("mds", "repro.middleware", "GIIS.query_all")
    wrap("store", "repro.monitoring", "MetricStore.extend", count_arg=1)
    wrap("rrd", "repro.monitoring", "MonALISARepository.ingest", count_arg=1)
    wrap("sitecatalog", "repro.monitoring", "SiteStatusCatalog.probe_all")
    wrap("acdc", "repro.monitoring", "ACDCJobMonitor.poll_once")
    wrap("alerts", "repro.ops", "AlertMonitor.poll_once", count_result=True)


def install_producer_hooks(tracer: LayerTracer, grid) -> None:
    """Hooks on each producer's public ``collect`` attribute."""
    for site in grid.sites.values():
        services = getattr(site, "services", {})
        for kind in ("ganglia", "monalisa"):
            agent = services.get(kind)
            tracer.wrap(f"producer.{kind}", getattr(agent, "producer", None),
                        "collect", count_result=True)
    health = grid.monitors.get("service-health")
    tracer.wrap("producer.service-health", getattr(health, "producer", None),
                "collect", count_result=True)


def metric_stores(grid) -> list:
    """Every MetricStore of the monitoring estate, site-local ones too."""
    from repro.monitoring import MetricStore

    found = []
    for monitor in grid.monitors.values():
        store = monitor if isinstance(monitor, MetricStore) else getattr(
            monitor, "store", None)
        if isinstance(store, MetricStore):
            found.append(store)
    for site in grid.sites.values():
        agent = getattr(site, "services", {}).get("ganglia")
        store = getattr(agent, "local_store", None)
        if isinstance(store, MetricStore):
            found.append(store)
    return found


def run_in_slices(grid, ref: ReferenceClock) -> tuple:
    """``grid.run()`` as SLICES calls of ``grid.run(days=...)`` over
    equal shares of the window, then the final ACDC poll: the rescaled
    seconds of each piece, and their raw wall time in all."""
    from repro.sim import DAY

    start, end = grid.engine.now, grid.duration
    times, raw = [], 0.0
    ref.start()
    for k in range(1, SLICES + 1):
        if k == SLICES:
            grid.run()
        else:
            horizon = start + (end - start) * k / SLICES
            if horizon > grid.engine.now:
                grid.run(days=(horizon - grid.engine.now) / DAY)
        times.append(ref.lap())
        raw += ref.raw
    grid.monitors["acdc"].poll_once()
    times.append(ref.lap())
    return times, raw + ref.raw


def sim_round(workload: str, seed: int, size: str,
              tracer: Optional[LayerTracer]) -> Dict[str, object]:
    """Set up, run and analyse one simulation; its timings in
    rescaled seconds (``refclock``), piece by piece."""
    from repro import Grid3, Grid3Config
    from repro.analysis import (
        compare_run,
        compute_table1,
        export_database,
        figure2_integrated_cpu,
        figure3_differential_cpu,
        figure4_cms_by_site,
        figure5_data_consumed,
        figure6_jobs_by_month,
        render_table1,
    )
    from repro.failures import FailureProfile
    from repro.monitoring import grid_exposition
    from repro.service import collect_reports

    config = Grid3Config(seed=seed, failures=FailureProfile.calm(),
                         **SIM_WORKLOADS[workload][size])
    ref = ReferenceClock()
    setups, builds = [], []
    grid = None
    for _ in range(SETUPS):
        grid = None
        gc.collect()
        if tracer is not None:
            tracer.reset()
        ref.start()
        start = clock()
        grid = Grid3(config)
        builds.append(clock() - start)
        grid.deploy()
        grid.start_applications()
        setups.append(ref.lap())
    if tracer is not None:
        install_producer_hooks(tracer, grid)
        hooked_in_run = -tracer.top_s
    # Each timed phase starts from a collected heap, so a collection
    # owed by earlier phases does not land inside it.
    gc.collect()
    slices, run_raw_s = run_in_slices(grid, ref)
    if tracer is not None:
        hooked_in_run += tracer.top_s

    # The analysis phase: the queries a user makes of a finished run,
    # in several passes that must answer identically.  Nothing is cached
    # between passes, so each query's median pass is its cost.  The
    # requests of these workloads are the scrapes of the run's
    # Prometheus page: one per pass and SCRAPES more.
    t1 = grid.engine.now
    scale = config.scale
    viewer: list = []
    queries = [
        ("figures", lambda: figure2_integrated_cpu(viewer[0], 0.0, t1, rescale=scale)[1]),
        ("figures", lambda: figure3_differential_cpu(viewer[0], 0.0, t1, rescale=scale)[1]),
        ("figures", lambda: figure4_cms_by_site(viewer[0], 0.0, t1, rescale=scale)[1]),
        ("figures", lambda: figure5_data_consumed(viewer[0], 0.0, t1, rescale=scale)[1]),
        ("figures", lambda: figure6_jobs_by_month(viewer[0], rescale=scale)[1]),
        ("table1", lambda: render_table1(compute_table1(grid.acdc_db, grid.calendar))),
        ("score", lambda: compare_run(grid)),
        ("exposition", lambda: grid_exposition(grid)),
        ("reports", lambda: collect_reports(grid)),
    ]
    passes = []
    for _ in range(ANALYSIS_PASSES):
        gc.collect()
        times, answers = [], []
        ref.start()
        for _layer, query in queries:
            if not viewer:
                viewer.append(grid.viewer())
            answers.append(query())
            times.append(ref.lap())
        viewer.clear()
        checks, exposition, reports = answers[-3:]
        rendered = answers[:-3] + [
            "\n".join(f"{c.passed}|{c.source}|{c.name}|{c.detail}" for c in checks),
            exposition,
            json.dumps(reports, sort_keys=True),
        ]
        passes.append((times, rendered))
    rendered = passes[0][1]
    unequal = sum(1 for _times, again in passes[1:] if again != rendered)
    query_s = [statistics.median(column)
               for column in zip(*(times for times, _r in passes))]
    exposition_at = len(queries) - 2
    scrapes_ms = [times[exposition_at] * 1000.0 for times, _r in passes]
    gc.collect()
    ref.start()
    for _ in range(SCRAPES):
        again = grid_exposition(grid)
        scrapes_ms.append(ref.lap() * 1000.0)
        unequal += again != exposition
    counters = {
        "sim.events": grid.engine.dispatched,
        "monitoring.acdc.records": len(grid.acdc_db),
        "ops.exposition.bytes": len(exposition.encode("utf-8")),
        "ops.reports.rows": sum(len(rows) for rows in reports.values()),
        "analysis.score.passed": sum(1 for c in checks if c.passed),
    }
    result: Dict[str, object] = {
        "seed": seed,
        "setups_s": setups,
        "slices_s": slices,
        "run_raw_s": run_raw_s,
        "queries_s": query_s,
        "scrapes_ms": scrapes_ms,
        "fingerprint": fingerprint([export_database(grid.acdc_db)] + rendered),
        "counters": counters,
        "attempted": ANALYSIS_PASSES + SCRAPES,
        "failed": unequal,
        "notes": [f"seed {seed}: {unequal} analysis passes or scrapes "
                  "answered differently"] if unequal else [],
    }
    if tracer is None:
        return result

    busy = {layer: 0.0 for layer, _query in queries}
    for (layer, _query), spent in zip(queries, query_s):
        busy[layer] += spent
    condorg = list(getattr(grid, "condorg", {}).values())

    def total(attr: str) -> int:
        return sum(getattr(host, attr, 0) for host in condorg)

    finished = total("completed") + total("failed")
    layers: Dict[str, float] = {
        "sim.events": counters["sim.events"],
        "sim.unattributed_s": run_raw_s - hooked_in_run,
        "fabric.build_s": statistics.median(builds),
    }
    for kind in ("ganglia", "monalisa", "service-health"):
        prefix = f"monitoring.producer.{kind}"
        layers[f"{prefix}.calls"] = tracer.calls(f"producer.{kind}")
        layers[f"{prefix}.busy_s"] = tracer.busy(f"producer.{kind}")
        layers[f"{prefix}.samples"] = tracer.items(f"producer.{kind}")
    layers.update({
        "monitoring.sitecatalog.calls": tracer.calls("sitecatalog"),
        "monitoring.sitecatalog.busy_s": tracer.busy("sitecatalog"),
        "monitoring.acdc.calls": tracer.calls("acdc"),
        "monitoring.acdc.busy_s": tracer.busy("acdc"),
        "monitoring.acdc.records": counters["monitoring.acdc.records"],
        "monitoring.store.extend_calls": tracer.calls("store"),
        "monitoring.store.busy_s": tracer.busy("store"),
        "monitoring.store.samples_appended": tracer.items("store"),
        "monitoring.store.samples_retained": sum(
            len(store) for store in metric_stores(grid)),
        "monitoring.rrd.ingest_calls": tracer.calls("rrd"),
        "monitoring.rrd.busy_s": tracer.busy("rrd"),
        "scheduling.select.calls": tracer.calls("select"),
        "scheduling.select.busy_s": tracer.busy("select"),
        "scheduling.select.candidates": tracer.items("candidates"),
        "scheduling.condorg.submitted": total("submitted"),
        "scheduling.condorg.resubmissions": total("resubmissions"),
        "scheduling.condorg.unmatched": total("unmatched"),
        "scheduling.success_ratio": (
            total("completed") / finished if finished else 0.0),
        "middleware.mds.sweeps": tracer.calls("mds"),
        "middleware.mds.busy_s": tracer.busy("mds"),
        "ops.alerts.polls": tracer.calls("alerts"),
        "ops.alerts.busy_s": tracer.busy("alerts"),
        "ops.alerts.transitions": tracer.items("alerts"),
        "ops.exposition.busy_s": busy["exposition"],
        "ops.exposition.bytes": counters["ops.exposition.bytes"],
        "ops.reports.busy_s": busy["reports"],
        "ops.reports.rows": counters["ops.reports.rows"],
        "analysis.figures.busy_s": busy["figures"],
        "analysis.table1.busy_s": busy["table1"],
        "analysis.score.busy_s": busy["score"],
        "analysis.score.passed": counters["analysis.score.passed"],
    })
    for name in ("scheduling.select.calls", "monitoring.store.samples_appended",
                 "monitoring.store.samples_retained"):
        counters[name] = layers[name]
    result["layers"] = layers
    return result


def sim_rep(workload: str, seed: int, size: str,
            tracer: Optional[LayerTracer]) -> Dict[str, object]:
    """One round of each of the repetition's simulation seeds."""
    if tracer is not None:
        install_sim_hooks(tracer)
    n = SUB_SEEDS[workload]
    rounds = [sim_round(workload, seed * n + i, size, tracer) for i in range(n)]
    result: Dict[str, object] = {
        "rounds": [{key: value for key, value in r.items()
                    if key not in ("fingerprint", "counters", "layers")}
                   for r in rounds],
        "peak_rss_mb": peak_rss_mb(),
        "fingerprint": fingerprint([r["fingerprint"] for r in rounds]),
        "counters": {f"{name}@{r['seed']}": value
                     for r in rounds for name, value in r["counters"].items()},
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "notes": [note for r in rounds for note in r["notes"]],
    }
    if tracer is not None:
        result["layers"] = {name: statistics.mean(r["layers"][name] for r in rounds)
                            for name in rounds[0]["layers"]}
    return result


# -- the service workload ----------------------------------------------------

class Session:
    """One closed-loop client's operations: counted, timed and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.latency_ms: Dict[str, List[float]] = {
            "submit": [], "run": [], "report": [], "metrics": []}
        #: Latencies of the requests that run no simulation.
        self.fast_ms: List[float] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(why)

    def call(self, kind: Optional[str], fast: bool, fn, *args, **kwargs):
        """One request; a non-2xx answer or transport error counts as a
        failed operation and returns None.  ``kind`` None leaves the
        latency out of the request figures."""
        from repro import GridServiceError

        self.attempted += 1
        began = clock()
        try:
            answer = fn(*args, **kwargs)
        except (GridServiceError, OSError, ValueError) as exc:
            self.fail(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None
        elapsed = (clock() - began) * 1000.0
        if kind is not None:
            self.latency_ms[kind].append(elapsed)
            if fast:
                self.fast_ms.append(elapsed)
        return answer

    def wait(self, client, run_id: int, timeout: float = 120.0):
        """Poll ``/v1/runs/{id}`` until the run is terminal."""
        deadline = clock() + timeout
        while True:
            view = self.call("run", False, client.run, run_id)
            if view is None or view.state in ("done", "failed", "interrupted"):
                return view
            if clock() > deadline:
                self.fail(f"run {run_id} still {view.state} after {timeout} s")
                return None
            time.sleep(POLL_S)

    def new_run(self, client, config: Dict[str, object]):
        """Submit a config never seen before and wait for its result."""
        submitted = self.call("submit", False, client.submit, config)
        if submitted is None:
            return None
        if submitted.dedup != "new":
            self.fail(f"new config answered dedup={submitted.dedup}")
        view = self.wait(client, submitted.run_id)
        if view is not None and view.state != "done":
            self.fail(f"run {view.run_id} ended {view.state}: {view.error}")
            return None
        return view

    def walk(self, client, run_id: int, kind: str,
             timed: bool = True) -> Optional[str]:
        """Every page of one report, as sorted-key JSON."""
        rows: list = []
        offset = 0
        while True:
            page = self.call("report" if timed else None, True, client.report,
                             run_id, kind, offset=offset, limit=REPORT_PAGE)
            if page is None:
                return None
            rows.extend(page.rows)
            offset += len(page.rows)
            if offset >= page.total or not page.rows:
                return json.dumps(rows, sort_keys=True)


def flat_gauges(text: str) -> Dict[str, float]:
    """The label-less lines of a Prometheus text page."""
    gauges: Dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("#") or "{" in line:
            continue
        name, _, value = line.partition(" ")
        try:
            gauges[name] = float(value)
        except ValueError:
            continue
    return gauges


def service_rep(seed: int, size: str,
                tracer: Optional[LayerTracer]) -> Dict[str, object]:
    """Boot, a request mix, then a restart that boots again.

    Set-up is timed at both boots: until the first WARM_RUNS runs
    submitted to it are done, one after the other (the worker pool's
    warm-up is paid by these).  Each cycle of the mix is then recorded
    on its own in rescaled seconds (``refclock``): the cycle, its cold
    run, its fast request latencies and its report walk.
    """
    from repro import GridClient, ReproService

    if tracer is not None:
        tracer.wrap_public("service.submit", "repro.service", "ServiceApp.submit")
        tracer.wrap_public("service.journal", "repro.service", "RunJournal.append")
    cycles, duplicates = SERVICE_SIZES[size]
    configs = [dict(SERVICE_RUN, seed=seed * 1000 + i)
               for i in range(cycles + 2 * WARM_RUNS)]
    rng = random.Random(seed)
    session = Session()
    state_dir = tempfile.mkdtemp(prefix="service-state-")
    service = None
    setups = []

    def boot(first: int):
        """Start the service and run configs[first:first + WARM_RUNS]."""
        start = clock()
        service = ReproService(port=0, workers=1, state_dir=state_dir).start()
        client = GridClient(service.url)
        session.call(None, False, client.health)
        booted = clock()
        views = [session.new_run(client, config)
                 for config in configs[first:first + WARM_RUNS]]
        if None in views:
            service.close(drain=True, timeout=60.0)
            raise RuntimeError(f"a warm-up run did not finish: {session.notes}")
        setups.append(clock() - start)
        return service, client, views, booted - start

    try:
        service, client, warm, _booted = boot(0)
        run_ids = [view.run_id for view in warm]
        views = []
        reports: Dict[tuple, Optional[str]] = {}
        per_cycle = []
        metrics_text = ""
        ref = ReferenceClock()
        ref.start()
        for i in range(WARM_RUNS, WARM_RUNS + cycles):
            began = clock()
            view = session.new_run(client, configs[i])
            if view is None:
                raise RuntimeError(f"run {i} did not finish: {session.notes}")
            run_ids.append(view.run_id)
            views.append(view)
            fast_from = len(session.fast_ms)
            report_from = len(session.latency_ms["report"])
            for _ in range(duplicates):
                j = rng.randrange(i + 1)
                answer = session.call("submit", True, client.submit, configs[j])
                if answer is not None and (
                        answer.dedup != "cached" or answer.run_id != run_ids[j]):
                    session.fail(f"resubmission of run {run_ids[j]} answered "
                                 f"run {answer.run_id} ({answer.dedup})")
            for kind in ("ops", "troubleshooting"):
                reports[(view.run_id, kind)] = session.walk(client, view.run_id, kind)
            text = session.call("metrics", True, client.metrics_text)
            if text is not None:
                metrics_text = text
            cycle_s = ref.lap()
            per_cycle.append({
                "cycle_s": cycle_s,
                "raw_s": clock() - began,
                "cold_s": (view.finished_at - view.submitted_at) * ref.factor,
                "fast_ms": [ms * ref.factor for ms in session.fast_ms[fast_from:]],
                "report_s": sum(session.latency_ms["report"][report_from:])
                / 1000.0 * ref.factor,
            })

        events = 0
        if tracer is not None:
            for run_id in run_ids:
                text = session.call(None, False, client.run_metrics, run_id)
                events += int(flat_gauges(text or "").get(
                    "repro_engine_events_dispatched", 0))

        # Restart on the same state directory; finished reports must
        # come back byte for byte, and new configs must run.
        service.close(drain=True, timeout=60.0)
        service = None
        service, client, _warm, restart_s = boot(WARM_RUNS + cycles)
        for kind in ("ops", "troubleshooting"):
            before = reports[(views[0].run_id, kind)]
            after = session.walk(client, views[0].run_id, kind, timed=False)
            if after is not None and after != before:
                session.fail(f"{kind} report of run {views[0].run_id} changed "
                             "across the restart")
    finally:
        if service is not None:
            service.close(drain=True, timeout=60.0)
        shutil.rmtree(state_dir, ignore_errors=True)

    gauges = flat_gauges(metrics_text)
    counters = {
        "service.queue.executed": gauges.get("service_queue_executed", -1.0),
        "service.cache.hits": gauges.get("service_cache_hits", -1.0),
        "service.cache.misses": gauges.get("service_cache_misses", -1.0),
    }
    result: Dict[str, object] = {
        "setups_s": setups,
        "cycles": per_cycle,
        "peak_rss_mb": peak_rss_mb(),
        "fingerprint": fingerprint([str(reports[key]) for key in sorted(reports)]),
        "counters": counters,
        "attempted": session.attempted,
        "failed": session.failed,
        "notes": session.notes,
    }
    if tracer is None:
        return result

    hits, misses = counters["service.cache.hits"], counters["service.cache.misses"]
    layers: Dict[str, float] = {
        "sim.events": events,
        "service.submit.busy_s": tracer.busy("service.submit"),
        "service.journal.appends": tracer.calls("service.journal"),
        "service.journal.busy_s": tracer.busy("service.journal"),
        "service.cache.hits": hits,
        "service.cache.misses": misses,
        "service.cache.hit_ratio": hits / (hits + misses) if hits + misses > 0 else 0.0,
        "service.queue.executed": counters["service.queue.executed"],
        "service.queue.failed": gauges.get("service_queue_failed", -1.0),
        "service.queue.rejected": gauges.get("service_queue_rejected", -1.0),
        "service.queue.wait_s": statistics.median(
            v.started_at - v.submitted_at for v in views),
        "service.worker.run_s": statistics.median(
            v.finished_at - v.started_at for v in views),
        "service.restart_s": restart_s,
    }
    for kind, values in session.latency_ms.items():
        layers[f"service.request.{kind}.p50_ms"] = (
            statistics.median(values) if values else 0.0)
    counters["service.journal.appends"] = layers["service.journal.appends"]
    counters["sim.events"] = events
    result["layers"] = layers
    return result


def pin_to_one_cpu() -> None:
    """Keep this process, and the worker processes it starts, on one
    CPU: the probe of ``refclock`` then runs where the work runs.  The
    vCPUs of a shared VM need not run at the same speed at once."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SIM_WORKLOADS) + ["service-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    tracer = LayerTracer() if args.trace else None
    try:
        if args.workload == "service-mix":
            result = service_rep(args.seed, args.size, tracer)
        else:
            result = sim_rep(args.workload, args.seed, args.size, tracer)
        result["ok"] = True
    except Exception as exc:  # noqa: BLE001 - reported as a failed repetition
        traceback.print_exc()
        result = {"ok": False, "attempted": 1, "failed": 1,
                  "notes": [f"{type(exc).__name__}: {exc}"]}
    finally:
        if tracer is not None:
            tracer.uninstall()
        for child in multiprocessing.active_children():
            child.join(timeout=10.0)
            if child.is_alive():
                child.kill()
                child.join()
    if tracer is not None:
        result["notes"] = list(result.get("notes", [])) + tracer.notes
    print(json.dumps(result, sort_keys=True))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
