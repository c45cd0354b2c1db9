"""Command-line interface: run Grid3 simulations from a shell.

Subcommands
-----------

``run``        deploy + run a full-mix simulation, print summary/milestones
``figures``    run and print any of the paper's figures (2-6) and Table 1
``catalog``    print the reconstructed 27-site catalog
``fabric``     generate + summarise a synthetic N-site catalog
``export``     run and dump the ACDC job records as CSV
``health``     run and print the per-site, per-service availability table
``data``       run with the managed data subsystem, print storage tables
``trace``      run with tracing on; render a job's span tree + phase breakdown
``fairshare``  run with fair-share scheduling, print per-VO share accounting
``serve``      run the grid-as-a-service HTTP API (submit/poll/report)
``alerts``     run with the iGOC alert engine; print firings + tickets
               (``--lint`` checks the shipped rule sets, ``--url``
               queries a live service's /alerts)
``top``        live terminal dashboard for a run on a service (SSE
               stream; ``--poll`` uses the ?since= delta poll)

Examples::

    python -m repro run --scale 200 --days 14
    python -m repro figures --scale 100 --days 45 --figure 2 --figure 6
    python -m repro catalog
    python -m repro export --scale 300 --days 10 --output records.csv
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import (
    compute_table1,
    export_database,
    figure2_integrated_cpu,
    figure3_differential_cpu,
    figure4_cms_by_site,
    figure5_data_consumed,
    figure6_jobs_by_month,
    render_table,
    render_table1,
)
from .core.grid3 import APP_CLASSES, Grid3, Grid3Config
from .failures import FailureProfile
from .fabric import GRID3_SITES
from .monitoring.statusmap import status_map_for_catalog
from .scenarios import SCENARIOS
from .sim import DAY, bytes_to_tb


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=200.0,
                        help="CPU/workload divisor (default 200)")
    parser.add_argument("--days", type=float, default=14.0,
                        help="simulated days (default 14)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--srm", action="store_true",
                        help="enable SRM storage reservation (§8 lesson)")
    parser.add_argument("--random-matchmaking", action="store_true",
                        help="ablation: ignore the §6.4 selection criteria")
    parser.add_argument("--no-failures", action="store_true",
                        help="disable injected failures")
    parser.add_argument(
        "--apps", nargs="*", choices=sorted(APP_CLASSES), default=None,
        help="application subset (default: all)",
    )
    parser.add_argument(
        "--scenario", choices=sorted(SCENARIOS), default=None,
        help="start from a canned scenario config (other flags override "
             "seed/scale/days/apps on top of it)",
    )


def _config(args) -> Grid3Config:
    if args.scenario is not None:
        config = SCENARIOS[args.scenario](seed=args.seed, scale=args.scale)
    else:
        config = Grid3Config(seed=args.seed, scale=args.scale)
    config.duration_days = args.days
    if args.apps is not None:
        config.apps = args.apps
    if args.srm:
        config.use_srm = True
    if args.random_matchmaking:
        config.matchmaking = "random"
    if args.no_failures:
        config.failures = FailureProfile.disabled()
    return config


def cmd_run(args, out=print) -> int:
    grid = Grid3(_config(args))
    out(f"deploying Grid3 (27 sites, scale {args.scale:g})...")
    grid.deploy()
    grid.start_applications()
    out(f"simulating {args.days:g} days...")
    grid.run()
    grid.monitors["acdc"].poll_once()
    db = grid.acdc_db
    out(f"\njob records: {len(db)}  success rate: {db.success_rate():.1%}")
    out(f"failure breakdown: {db.failure_breakdown()}")
    out(f"data moved: {bytes_to_tb(grid.ledger.total_bytes()):.2f} TB (scaled)")
    rows = [
        (vo, len(db.records(vo=vo)), f"{db.success_rate(vo=vo):.0%}",
         round(db.total_cpu_days(vo=vo), 1))
        for vo in db.vos()
    ]
    out("\n" + render_table(["vo", "jobs", "success", "cpu-days"], rows))
    out("\n" + grid.milestones().render())
    if args.map:
        out("\nsite status map (§5.2):")
        out(status_map_for_catalog(grid.monitors["status"].status_page()))
    return 0


def cmd_figures(args, out=print) -> int:
    grid = Grid3(_config(args))
    grid.run_full()
    viewer = grid.viewer()
    t0, t1 = 0.0, grid.engine.now
    scale = args.scale
    wanted = args.figure or [2, 3, 4, 5, 6]
    for fig in wanted:
        if fig == 2:
            _d, text = figure2_integrated_cpu(viewer, t0, t1, rescale=scale)
        elif fig == 3:
            _d, text = figure3_differential_cpu(viewer, t0, t1, rescale=scale)
        elif fig == 4:
            _d, text = figure4_cms_by_site(viewer, t0, t1, rescale=scale)
        elif fig == 5:
            _d, text = figure5_data_consumed(viewer, t0, t1, rescale=scale)
        else:
            _d, text = figure6_jobs_by_month(viewer, rescale=scale)
        out("\n" + text)
    if args.table1:
        out("\n" + render_table1(compute_table1(grid.acdc_db, grid.calendar)))
    return 0


def cmd_catalog(args, out=print) -> int:
    rows = [
        (s.name, s.institution, s.owner_vo, s.cpus, s.batch_system,
         "shared" if s.shared else "dedicated", s.disk_tb,
         s.max_walltime_hours, "yes" if s.outbound_connectivity else "no")
        for s in GRID3_SITES
    ]
    out(render_table(
        ["site", "institution", "vo", "cpus", "batch", "type",
         "disk TB", "walltime h", "outbound"],
        rows,
    ))
    total = sum(s.cpus for s in GRID3_SITES)
    out(f"\n{len(GRID3_SITES)} sites, {total} CPUs peak")
    return 0


def cmd_fabric(args, out=print) -> int:
    """Generate and summarise a synthetic site catalog (no simulation)."""
    from .fabric import summarize, synthesize
    specs = synthesize(
        sites=args.sites, total_cpus=args.cpus, seed=args.seed,
        regions=args.regions,
    )
    info = summarize(specs)
    out(render_table(
        ["statistic", "value"],
        [(k, v) for k, v in info.items() if not isinstance(v, (dict, list))],
    ))
    out("\nsites per owner VO: " + ", ".join(
        f"{vo}={n}" for vo, n in info["sites_by_vo"].items()))
    out("sites per region: " + ", ".join(
        f"{r}={n}" for r, n in info["sites_by_region"].items()))
    out(f"\nlargest {args.top} sites:")
    ranked = sorted(specs, key=lambda s: -s.cpus)[:args.top]
    out(render_table(
        ["site", "vo", "cpus", "batch", "type", "region", "mbit"],
        [(s.name, s.owner_vo, s.cpus, s.batch_system,
          "shared" if s.shared else "dedicated", s.region or "-",
          f"{s.bandwidth_mbit:g}")
         for s in ranked],
    ))
    return 0


def cmd_export(args, out=print) -> int:
    grid = Grid3(_config(args))
    grid.run_full()
    text = export_database(grid.acdc_db)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        out(f"wrote {len(grid.acdc_db)} records to {args.output}")
    else:
        out(text)
    return 0


def cmd_health(args, out=print) -> int:
    from .services import render_availability, total_downtime
    grid = Grid3(_config(args))
    grid.run_full()
    rows = grid.availability_report()
    if args.site:
        rows = [r for r in rows if r.site == args.site]
    out(render_availability(rows))
    out(f"\ntotal downtime: {total_downtime(rows) / 3600.0:.1f} h "
        f"across {sum(r.outages for r in rows)} outages")
    return 0


def cmd_data(args, out=print) -> int:
    """Run with the managed data subsystem and print its accounting."""
    config = _config(args)
    config.data_management = True
    if args.disk_scale is not None:
        config.disk_scale = args.disk_scale
    grid = Grid3(config)
    grid.run_full()
    rows = [
        (r.site, r.files, f"{bytes_to_tb(r.capacity):.2f}",
         f"{r.occupancy:.0%}", r.evictions,
         f"{bytes_to_tb(r.evicted_bytes):.3f}", r.replicas_received)
        for r in grid.data.report()
    ]
    out(render_table(
        ["site", "files", "cap TB", "occupancy", "evictions",
         "evicted TB", "replicas in"],
        rows,
    ))
    hot = grid.data.hot_datasets(args.top)
    if hot:
        out(f"\ntop {len(hot)} hot datasets:")
        out(render_table(
            ["dataset", "vo", "files", "accesses"],
            [(d.name, d.vo, len(d.files), d.accesses) for d in hot],
        ))
    else:
        out("\nno dataset accesses recorded")
    counters = grid.data.counters()
    out("\n" + render_table(
        ["counter", "value"],
        [(k, f"{v:g}") for k, v in sorted(counters.items())],
    ))
    return 0


def cmd_trace(args, out=print) -> int:
    """Run with end-to-end tracing and answer "where did the time go?"."""
    from .trace import (
        render_breakdown,
        render_span_tree,
        slowest_traces,
        write_chrome_trace,
        write_jsonl,
    )
    config = _config(args)
    config.tracing = True
    grid = Grid3(config)
    grid.run_full()
    store = grid.tracer.store
    ops = grid.troubleshooting()

    if args.job_id is not None:
        root = store.trace_for_job(args.job_id)
        if root is None:
            out(f"no trace for execution-side job id {args.job_id} "
                f"({len(store)} traces retained)")
            return 1
        for line in render_span_tree(root):
            out(line)
    else:
        rows = [
            (r.trace_id, r.name, r.vo, r.status,
             f"{r.makespan:.0f}s", r.critical_phase,
             ",".join(str(j) for j in r.job_ids) or "-")
            for r in ops.slowest_jobs(args.top)
        ]
        out(f"slowest {len(rows)} of {len(store)} traced jobs:")
        out(render_table(
            ["trace", "job", "vo", "status", "makespan", "critical phase",
             "exec ids"],
            rows,
        ))

    out("")
    for line in render_breakdown(ops.phase_breakdown(args.vo)):
        out(line)

    if args.perfetto:
        n = write_chrome_trace(store, args.perfetto,
                               clip_open_at=grid.engine.now)
        out(f"\nwrote {n} trace events to {args.perfetto} "
            f"(load in chrome://tracing or ui.perfetto.dev)")
    if args.jsonl:
        n = write_jsonl(store, args.jsonl)
        out(f"wrote {n} spans to {args.jsonl}")
    return 0


def cmd_fairshare(args, out=print) -> int:
    """Run with the fair-share layer and print its accounting; with
    ``--compare``, run the same seed without it and contrast per-VO
    completions."""
    config = _config(args)
    config.fair_share = True
    grid = Grid3(config)
    grid.run_full()

    rows = [
        (r.vo, f"{r.target_share:.0%}", f"{r.observed_share:.0%}",
         f"{r.decayed_usage / 3600.0:.1f}", f"{r.priority_factor:.2f}",
         r.charges)
        for r in grid.fairshare_report()
    ]
    out(render_table(
        ["vo", "target", "observed", "decayed cpu-h", "priority", "charges"],
        rows,
    ))
    rejects = grid.policy_report()
    if rejects:
        out("\npolicy rejections (never submitted):")
        out(render_table(
            ["site", "vo", "reason", "count"],
            [(r.site, r.vo, r.reason, r.count) for r in rejects],
        ))
    else:
        out("\nno policy rejections")
    caps = grid.policy_engine.share_rows()
    hot = [r for r in caps if r.peak >= r.cap]
    if hot:
        out("\nshare slots that ran at their cap:")
        out(render_table(
            ["site", "vo", "cap", "peak"],
            [(r.site, r.vo, r.cap, r.peak) for r in hot],
        ))

    if args.compare:
        baseline_cfg = _config(args)
        baseline_cfg.fair_share = False
        baseline = Grid3(baseline_cfg)
        baseline.run_full()

        def per_vo(g):
            return {
                vo: g.condorg[vo].completed
                for vo in sorted(g.condorg)
                if g.condorg[vo].submitted
            }

        def ratio(done):
            if not done:
                return 0.0
            return max(done.values()) / max(1, min(done.values()))

        with_fs, without = per_vo(grid), per_vo(baseline)
        out("\nsame-seed comparison (completed jobs per VO):")
        out(render_table(
            ["vo", "fair-share", "baseline"],
            [(vo, with_fs.get(vo, 0), without.get(vo, 0))
             for vo in sorted(set(with_fs) | set(without))],
        ))
        out(f"max/min completion ratio: {ratio(with_fs):.2f} with "
            f"fair-share vs {ratio(without):.2f} without")
    return 0


def cmd_serve(args, out=print) -> int:
    """Run the HTTP service until interrupted (Ctrl-C drains the queue)."""
    from .service import serve
    return serve(
        port=args.port,
        workers=args.workers,
        host=args.host,
        queue_depth=args.queue_depth,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
        state_dir=args.state_dir,
        quota_per_client=args.quota,
        out=out,
    )


def cmd_alerts(args, out=print) -> int:
    """In-sim alert/ticket loop, rule-set lint, or live /alerts query."""
    from .ops.alerts import default_rules, lint_rules, service_rules

    if args.url:
        from .client import GridClient
        with GridClient(args.url, timeout=10) as client:
            rows = client.alerts()
        firing = sum(1 for r in rows if r["firing"])
        out(render_table(
            ["rule", "metric", "severity", "firing", "value", "threshold"],
            [(r["name"], r["metric"], r["severity"],
              "FIRING" if r["firing"] else "ok",
              "-" if r["value"] is None else f"{r['value']:g}",
              f"{r['threshold']:g}")
             for r in rows],
        ))
        out(f"\n{firing} of {len(rows)} rule(s) firing")
        return 1 if firing else 0

    if args.lint:
        # Real metric names: the service-health view of a deployed (not
        # run) grid for the in-sim estate, a real (idle) ServiceApp for
        # the service scrape names.
        grid = Grid3(Grid3Config(
            seed=args.seed, scale=3000.0, duration_days=0.25,
            apps=["exerciser"],
        ))
        grid.deploy()
        sim_names = grid.monitors["service-health"].store.published_names()
        problems = lint_rules(default_rules(), sim_names)
        from .service.app import ServiceApp
        app = ServiceApp(workers=1, queue_depth=8)
        try:
            service_names = list(app.service_metrics())
        finally:
            app.close(drain=False)
        problems += lint_rules(service_rules(8, 1), service_names)
        for problem in problems:
            out(f"LINT: {problem}")
        total = len(default_rules()) + len(service_rules(8, 1))
        if problems:
            out(f"{len(problems)} problem(s) in {total} shipped rule(s)")
            return 1
        out(f"{total} shipped alert rule(s) lint clean")
        return 0

    config = _config(args)
    config.alerts = True
    grid = Grid3(config)
    grid.run_full()
    engine = grid.alert_monitor.alert_engine
    out(render_table(
        ["rule", "metric", "severity", "firing", "transitions"],
        [(row.name, row.metric, row.severity,
          "FIRING" if row.firing else "ok", row.transitions)
         for row in engine.status_rows()],
    ))
    if engine.history:
        out("\nalert transitions:")
        out(render_table(
            ["sim day", "rule", "event", "value"],
            [(f"{t.time / DAY:.2f}", t.rule, t.event,
              "-" if t.value is None else f"{t.value:.3f}")
             for t in engine.history],
        ))
    else:
        out("\nno alert transitions (the grid stayed inside every rule)")
    tickets = grid.igoc.tickets.all_tickets(site="grid")
    out(f"\n{len(tickets)} alert ticket(s) opened; "
        f"{sum(1 for t in tickets if t.resolved_at >= 0)} resolved")
    return 0


def cmd_top(args, out=print) -> int:
    """Render a run's live progress stream as a terminal dashboard."""
    import time as _time
    from urllib.request import urlopen

    from .client import GridClient
    from .monitoring.progress import render_progress_line
    from .service.progress import iter_sse_events

    if args.poll:
        since = -1
        with GridClient(args.url) as client:
            while True:
                delta = client.events(args.run_id, since=since)
                for event in delta.events:
                    out(render_progress_line(event))
                since = delta.next_since
                if delta.closed:
                    out(f"run {args.run_id} finished ({delta.state})")
                    return 0
                _time.sleep(args.interval)
    # The SSE stream is one long response, so it gains nothing from a
    # kept-alive connection.
    base = args.url.rstrip("/")
    with urlopen(f"{base}/v1/runs/{args.run_id}/events", timeout=60) as resp:
        for event in iter_sse_events(resp):
            out(render_progress_line(event))
    out(f"run {args.run_id} finished")
    return 0


def cmd_report(args, out=print) -> int:
    from .ops.reports import weekly_report
    grid = Grid3(_config(args))
    grid.run_full()
    weeks = max(1, int(args.days // 7))
    for week in range(weeks):
        out(weekly_report(grid, week_index=week))
        out("")
    return 0


def cmd_score(args, out=print) -> int:
    from .analysis.compare import agreement_report, compare_run
    grid = Grid3(_config(args))
    grid.run_full()
    checks = compare_run(grid)
    out(agreement_report(checks))
    # Exit nonzero when the run drifts badly from the paper's shapes —
    # usable as a CI regression gate.
    passed = sum(c.passed for c in checks)
    return 0 if passed >= len(checks) - 2 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Grid2003 reproduction: simulate the Grid3 production grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation, print the summary")
    _add_run_options(p_run)
    p_run.add_argument("--map", action="store_true",
                       help="also print the §5.2 site status map")
    p_run.set_defaults(func=cmd_run)

    p_fig = sub.add_parser("figures", help="regenerate the paper's figures")
    _add_run_options(p_fig)
    p_fig.add_argument("--figure", type=int, action="append",
                       choices=[2, 3, 4, 5, 6],
                       help="which figure(s); repeatable (default: all)")
    p_fig.add_argument("--table1", action="store_true",
                       help="also print Table 1")
    p_fig.set_defaults(func=cmd_figures)

    p_cat = sub.add_parser("catalog", help="print the 27-site catalog")
    p_cat.set_defaults(func=cmd_catalog)

    p_fab = sub.add_parser(
        "fabric", help="generate + summarise a synthetic site catalog"
    )
    p_fab.add_argument("--sites", type=int, default=500,
                       help="catalog size (default 500)")
    p_fab.add_argument("--cpus", type=int, default=None,
                       help="total CPUs (default sites*104)")
    p_fab.add_argument("--seed", type=int, default=42)
    p_fab.add_argument("--regions", type=int, default=8,
                       help="synthetic WAN regions (default 8)")
    p_fab.add_argument("--top", type=int, default=10,
                       help="largest sites to list (default 10)")
    p_fab.set_defaults(func=cmd_fabric)

    p_exp = sub.add_parser("export", help="dump ACDC job records as CSV")
    _add_run_options(p_exp)
    p_exp.add_argument("--output", "-o", help="destination file (default stdout)")
    p_exp.set_defaults(func=cmd_export)

    p_health = sub.add_parser(
        "health", help="per-site, per-service availability from the ledgers"
    )
    _add_run_options(p_health)
    p_health.add_argument("--site", help="restrict the table to one site")
    p_health.set_defaults(func=cmd_health)

    p_rep = sub.add_parser("report", help="weekly iGOC operations reports")
    _add_run_options(p_rep)
    p_rep.set_defaults(func=cmd_report)

    p_data = sub.add_parser(
        "data", help="run with managed data; print per-site storage table"
    )
    _add_run_options(p_data)
    p_data.add_argument("--top", type=int, default=5,
                        help="hot datasets to list (default 5)")
    p_data.add_argument("--disk-scale", type=float, default=None,
                        help="divide SE capacities (pressure regimes)")
    p_data.set_defaults(func=cmd_data)

    p_trace = sub.add_parser(
        "trace", help="run with tracing; span trees + phase breakdown"
    )
    _add_run_options(p_trace)
    p_trace.add_argument(
        "job_id", nargs="?", type=int, default=None,
        help="execution-side job id to render (default: slowest-jobs table)",
    )
    p_trace.add_argument("--top", type=int, default=10,
                         help="rows in the slowest-jobs table (default 10)")
    p_trace.add_argument("--vo", default=None,
                         help="restrict the phase breakdown to one VO")
    p_trace.add_argument("--perfetto", metavar="PATH",
                         help="write a Chrome trace-event JSON file")
    p_trace.add_argument("--jsonl", metavar="PATH",
                         help="write a JSONL span dump")
    p_trace.set_defaults(func=cmd_trace)

    p_fair = sub.add_parser(
        "fairshare",
        help="run with fair-share scheduling; print per-VO shares, "
             "priorities, and policy rejections",
    )
    _add_run_options(p_fair)
    p_fair.add_argument("--compare", action="store_true",
                        help="also run the same seed without fair-share "
                             "and contrast per-VO completions")
    p_fair.set_defaults(func=cmd_fairshare)

    p_serve = sub.add_parser(
        "serve",
        help="run the grid-as-a-service HTTP API (submit, poll, reports)",
    )
    p_serve.add_argument("--port", type=int, default=8080,
                         help="listen port (default 8080; 0 = ephemeral)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="simulation worker processes (default 2)")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         help="max runs queued or running (default 64)")
    p_serve.add_argument("--cache-mb", type=float, default=64.0,
                         help="result-cache byte budget in MB (default 64)")
    p_serve.add_argument("--state-dir", default=None,
                         help="directory for the durable run registry "
                              "(sqlite journal; restarts resume every "
                              "run; default: in-memory only)")
    p_serve.add_argument("--quota", type=int, default=16,
                         help="per-client active-run quota; breaches get "
                              "429 + Retry-After (0 = unlimited; "
                              "default 16)")
    p_serve.set_defaults(func=cmd_serve)

    p_alerts = sub.add_parser(
        "alerts",
        help="run with the iGOC alert engine and print firings/tickets; "
             "--lint checks the shipped rule sets; --url queries a live "
             "service",
    )
    _add_run_options(p_alerts)
    p_alerts.add_argument("--lint", action="store_true",
                          help="validate the shipped rule sets against the "
                               "real metric namespaces and exit")
    p_alerts.add_argument("--url", default=None,
                          help="query a running service's /alerts instead "
                               "of simulating")
    p_alerts.set_defaults(func=cmd_alerts)

    p_top = sub.add_parser(
        "top",
        help="live progress dashboard for a run on a running service",
    )
    p_top.add_argument("run_id", type=int, help="run id to watch")
    p_top.add_argument("--url", default="http://127.0.0.1:8080",
                       help="service base URL (default http://127.0.0.1:8080)")
    p_top.add_argument("--poll", action="store_true",
                       help="use the ?since= delta poll instead of SSE")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="poll interval in seconds (default 1)")
    p_top.set_defaults(func=cmd_top)

    p_score = sub.add_parser(
        "score", help="score a run against the paper's shape claims"
    )
    _add_run_options(p_score)
    p_score.set_defaults(func=cmd_score)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into `head` etc. closed early — normal CLI usage.
        import os
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
