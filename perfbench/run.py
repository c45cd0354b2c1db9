"""The Grid3 benchmark: one workload, measured end to end or per layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper-busy --seed 1 --seconds 25 --trace 0

Workloads (``BENCHMARK.json`` records why each exists):

* ``paper-busy`` -- the paper's 27-site catalog at scale 50 for 1 day
  with all eight demonstrators and calm failures: many jobs on few
  sites, so matchmaking dominates.
* ``wide-quiet`` -- a 200-site synthetic fabric at scale 400 for 1 day,
  three applications, alerts on: few jobs on many sites, so the periodic
  monitoring producers dominate.
* ``service-mix`` -- the HTTP service with one worker process and its
  journal, driven by one closed-loop client: new tiny runs, cached
  resubmissions, report pages and metrics scrapes, then a restart.

A simulation repetition runs one round per simulation seed (seed ``s``
gives seeds ``s*n .. s*n+n-1``): set-up, the run in equal slices of
simulated time, and the analysis phase (figures 2-6, Table 1, the shape
score, the Prometheus exposition and the service reports) in several
passes.  The "requests" of these workloads are the scrapes of the run's
Prometheus page.

Times of CPU-bound work are in rescaled seconds: wall time divided by
the time of a fixed reference probe run next to it, times the probe's
time on a quiet host (``refclock.py`` says why).  Only the service's
set-up, which is mostly waiting, is raw wall time.

Each repetition runs in a fresh interpreter (``rep.py``), pinned to one
CPU, and checks its own output.  All repetitions of a run share the seed, so their output
fingerprints and deterministic counters must agree exactly; a
repetition that disagrees counts as failed.  Repetitions continue until
``--seconds`` have passed.  With ``--trace 0`` the result holds the
end-to-end metrics (``sim_end_to_end`` and ``service_end_to_end`` say
how each is drawn from the repetitions).  With ``--trace 1`` untraced
and traced repetitions alternate, and the result holds the per-layer
split of the traced ones plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke``
runs tiny sizes of every workload (``test_perfbench.py`` uses it).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-busy", "wide-quiet", "service-mix")

#: name -> unit of every end-to-end metric.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "report_s": "s",
    "cold_run_s": "s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: name -> unit of every per-layer metric.
PER_LAYER = {
    "sim.events": "count",
    "sim.unattributed_s": "s",
    "fabric.build_s": "s",
    **{
        f"monitoring.producer.{kind}.{field}": unit
        for kind in ("ganglia", "monalisa", "service-health")
        for field, unit in (("calls", "count"), ("busy_s", "s"),
                            ("samples", "count"))
    },
    "monitoring.sitecatalog.calls": "count",
    "monitoring.sitecatalog.busy_s": "s",
    "monitoring.acdc.calls": "count",
    "monitoring.acdc.busy_s": "s",
    "monitoring.acdc.records": "count",
    "monitoring.store.extend_calls": "count",
    "monitoring.store.busy_s": "s",
    "monitoring.store.samples_appended": "count",
    "monitoring.store.samples_retained": "count",
    "monitoring.rrd.ingest_calls": "count",
    "monitoring.rrd.busy_s": "s",
    "scheduling.select.calls": "count",
    "scheduling.select.busy_s": "s",
    "scheduling.select.candidates": "count",
    "scheduling.condorg.submitted": "count",
    "scheduling.condorg.resubmissions": "count",
    "scheduling.condorg.unmatched": "count",
    "scheduling.success_ratio": "ratio",
    "middleware.mds.sweeps": "count",
    "middleware.mds.busy_s": "s",
    "ops.alerts.polls": "count",
    "ops.alerts.busy_s": "s",
    "ops.alerts.transitions": "count",
    "ops.exposition.busy_s": "s",
    "ops.exposition.bytes": "B",
    "ops.reports.busy_s": "s",
    "ops.reports.rows": "count",
    "analysis.figures.busy_s": "s",
    "analysis.table1.busy_s": "s",
    "analysis.score.busy_s": "s",
    "analysis.score.passed": "count",
    **{f"service.request.{kind}.p50_ms": "ms"
       for kind in ("submit", "run", "report", "metrics")},
    "service.submit.busy_s": "s",
    "service.journal.appends": "count",
    "service.journal.busy_s": "s",
    "service.cache.hits": "count",
    "service.cache.misses": "count",
    "service.cache.hit_ratio": "ratio",
    "service.queue.executed": "count",
    "service.queue.failed": "count",
    "service.queue.rejected": "count",
    "service.queue.wait_s": "s",
    "service.worker.run_s": "s",
    "service.restart_s": "s",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}

#: Fewest repetitions per run and per kind (untraced, traced).  A
#: service-mix repetition boots the service twice and holds thousands of
#: requests, and outlasts a run on its own.
MIN_REPS = {"paper-busy": 3, "wide-quiet": 3, "service-mix": 1}
#: No repetition starts later than this into a run, and none outlives
#: RUN_LIMIT_S, so that the run ends inside its 180 s.
LAST_START_S = 110.0
RUN_LIMIT_S = 170.0


def run_rep(workload: str, seed: int, smoke: bool, traced: bool,
            scratch: Path, timeout: float) -> Dict[str, object]:
    """One repetition in a fresh interpreter; its JSON result."""
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               TMPDIR=str(scratch))
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--size", "smoke" if smoke else "full",
               "--trace", "1" if traced else "0"]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nrepetition killed after {timeout:.0f} s"
    # Anything the repetition left running in its session goes too.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"ok": False, "attempted": 1, "failed": 1,
                  "notes": [f"repetition printed no result (exit {proc.returncode})"]}
    if not result.get("ok"):
        sys.stderr.write(err[-4000:])
    return result


def collect(workload: str, seed: int, seconds: float, smoke: bool,
            trace: bool, scratch: Path) -> Tuple[list, list]:
    """Repetitions until ``seconds`` have passed: (untraced, traced)."""
    began = time.monotonic()
    plain: list = []
    traced: list = []
    least = MIN_REPS[workload]

    def remaining() -> float:
        return max(10.0, RUN_LIMIT_S - (time.monotonic() - began))

    while True:
        elapsed = time.monotonic() - began
        enough = len(plain) >= least and (not trace or len(traced) >= least)
        if enough and (elapsed >= seconds or elapsed >= LAST_START_S):
            return plain, traced
        plain.append(run_rep(workload, seed, smoke, False, scratch, remaining()))
        if trace:
            traced.append(run_rep(workload, seed, smoke, True, scratch, remaining()))


def cross_check(reps: list, notes: List[str]) -> int:
    """Repetitions whose fingerprint or deterministic counters differ
    from the majority: each counts as one failed operation."""
    good = [r for r in reps if r.get("ok")]
    bad = set()
    prints = Counter(r["fingerprint"] for r in good)
    if len(prints) > 1:
        expected = prints.most_common(1)[0][0]
        bad.update(i for i, r in enumerate(good) if r["fingerprint"] != expected)
        notes.append(f"output fingerprints differ across repetitions: {dict(prints)}")
    names = sorted({name for r in good for name in r["counters"]})
    for name in names:
        values = Counter(r["counters"][name] for r in good if name in r["counters"])
        if len(values) > 1:
            expected = values.most_common(1)[0][0]
            bad.update(i for i, r in enumerate(good)
                       if r["counters"].get(name, expected) != expected)
            notes.append(f"counter {name} differs across repetitions: {dict(values)}")
    return len(bad)


def plain_run_s(rep: dict) -> float:
    """The run phase of one repetition in raw wall time."""
    if "rounds" in rep:
        return statistics.mean(r["run_raw_s"] for r in rep["rounds"])
    return sum(c["raw_s"] for c in rep["cycles"])


def sum_of_medians(rows: List[List[float]]) -> float:
    """Rows time the same pieces of work in the same order; the sum over
    the pieces of each piece's median time."""
    return sum(statistics.median(column) for column in zip(*rows))


def p95(values: List[float]) -> float:
    return statistics.quantiles(values, n=20)[18]


def sim_end_to_end(reps: list) -> Dict[str, float]:
    """Simulation metrics from the rounds of every repetition, all in
    rescaled seconds (``refclock``).

    Rounds of one simulation seed repeat the same work, so each slice of
    the run and each analysis query is charged its median over those
    rounds; the sums, and the scrape percentiles, are averaged over the
    seeds.  Set-up is the median over every set-up of the run, and a
    cold run is a set-up plus a run.
    """
    by_seed: Dict[int, list] = {}
    for rep in reps:
        for rnd in rep["rounds"]:
            by_seed.setdefault(rnd["seed"], []).append(rnd)
    groups = [by_seed[seed] for seed in sorted(by_seed)]
    scrapes = [[ms for rnd in rounds for ms in rnd["scrapes_ms"]] for rounds in groups]
    values = {
        "setup_s": statistics.median(
            s for rounds in groups for rnd in rounds for s in rnd["setups_s"]),
        "run_s": statistics.mean(
            sum_of_medians([rnd["slices_s"] for rnd in rounds]) for rounds in groups),
        "report_s": statistics.mean(
            sum_of_medians([rnd["queries_s"] for rnd in rounds]) for rounds in groups),
        "request_p50_ms": statistics.mean(statistics.median(ms) for ms in scrapes),
        "request_p95_ms": statistics.mean(p95(ms) for ms in scrapes),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    values["cold_run_s"] = values["setup_s"] + values["run_s"]
    return values


def service_end_to_end(reps: list) -> Dict[str, float]:
    """Service metrics.  Set-up is the median over every boot, in raw
    wall time: it is mostly the program waiting, not computing.  The
    mix's figures are in rescaled seconds: run_s is the whole mix,
    cold_run_s and report_s the medians over its cycles, and the request
    percentiles are over all its fast requests."""
    cycles = [c for rep in reps for c in rep["cycles"]]
    fast = [ms for c in cycles for ms in c["fast_ms"]]
    return {
        "setup_s": statistics.median(s for rep in reps for s in rep["setups_s"]),
        "run_s": statistics.median(
            sum(c["cycle_s"] for c in rep["cycles"]) for rep in reps),
        "report_s": statistics.median(c["report_s"] for c in cycles),
        "cold_run_s": statistics.median(c["cold_s"] for c in cycles),
        "request_p50_ms": statistics.median(fast),
        "request_p95_ms": p95(fast),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def end_to_end(workload: str, reps: list) -> Dict[str, float]:
    values = (service_end_to_end(reps) if workload == "service-mix"
              else sim_end_to_end(reps))
    return {name: values[name] for name in END_TO_END}


def per_layer(plain: list, traced: list, error_rate: float) -> Dict[str, float]:
    values = {
        name: statistics.median(r.get("layers", {}).get(name, 0) for r in traced)
        for name in PER_LAYER
    }
    values["trace.overhead_s"] = (
        statistics.median(plain_run_s(r) for r in traced)
        - statistics.median(plain_run_s(r) for r in plain))
    values["error_rate"] = error_rate
    return values


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write("perfbench: run from the repository root; "
                         "src/repro is not here\n")
        return 2

    scratch = Path.cwd() / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        plain, traced = collect(args.workload, args.seed, args.seconds,
                                args.smoke, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    notes: List[str] = []
    reps = plain + traced
    attempted = sum(int(r.get("attempted", 1)) for r in reps)
    failed = sum(int(r.get("failed", 1)) for r in reps) + cross_check(reps, notes)
    for r in reps:
        notes.extend(r.get("notes", []))
    plain_ok = [r for r in plain if r.get("ok")]
    traced_ok = [r for r in traced if r.get("ok")]
    error_rate = failed / attempted if attempted else 1.0

    print(f"perfbench {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced repetitions")
    if not plain_ok or (args.trace and not traced_ok):
        metrics: Dict[str, float] = {}
        units: Dict[str, str] = {}
    elif args.trace:
        metrics, units = per_layer(plain_ok, traced_ok, error_rate), PER_LAYER
    else:
        metrics, units = end_to_end(args.workload, plain_ok), END_TO_END
    requests = sum(len(rnd["scrapes_ms"]) for r in plain_ok for rnd in r.get("rounds", []))
    requests += sum(len(c["fast_ms"]) for r in plain_ok for c in r.get("cycles", []))
    shown = dict(metrics, error_rate=error_rate)
    for name, value in shown.items():
        extra = ""
        if name.startswith("request_"):
            extra = f"  ({requests} requests)"
        elif name == "error_rate":
            extra = f"  ({failed} of {attempted} operations failed)"
        print(f"  {name:<42} {value:>14.6g} {units.get(name, 'ratio')}{extra}")
    for note in dict.fromkeys(notes):
        print(f"  note: {note}")

    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
