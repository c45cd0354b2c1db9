"""run_experiment(workers=N) must match the sequential runner exactly."""

import multiprocessing
import os
import time

import pytest

from repro.failures import FailureProfile
from repro.lab import experiment
from repro.lab.experiment import ExperimentSpec, run_experiment, sweep


# Module-level so the spec pickles into worker processes.
def metric_success(grid):
    return grid.acdc_db.success_rate()


def metric_cpu_days(grid):
    return grid.acdc_db.total_cpu_days()


def metric_pid(grid):
    return float(os.getpid())


def metric_success_or_die(grid):
    """Kill the worker process that runs it; succeed in the test process."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return metric_success(grid)


def _small_spec():
    return ExperimentSpec(
        name="parity",
        base=dict(scale=900, duration_days=1),
        variants={
            "calm": dict(failures=FailureProfile.calm()),
            "noisy": dict(failures=FailureProfile.early()),
            "wide": dict(scale=700),
        },
        metrics={"success": metric_success, "cpu_days": metric_cpu_days},
        repeats=2,
    )


def test_workers2_identical_to_sequential():
    spec = _small_spec()
    seq = run_experiment(spec, workers=1)
    par = run_experiment(spec, workers=2)
    assert seq == par
    # Ordering is declaration order, not completion order.
    assert [r.variant for r in par] == ["calm", "noisy", "wide"]
    assert all(r.repeats == 2 for r in par)


def test_workers2_runs_cells_in_worker_processes(monkeypatch):
    """At workers=2 the cells really leave the test process, and the
    progress lines still count up in order."""
    monkeypatch.setattr(experiment, "_available_cores", lambda: 2)
    spec = _small_spec()
    spec.metrics = {"pid": metric_pid}
    notes = []
    results = run_experiment(spec, progress=notes.append, workers=2)
    pids = {pid for r in results for pid in r.samples["pid"]}
    assert pids - {float(os.getpid())}
    assert notes == [f"parity: {i}/6 cells done" for i in range(1, 7)]


def test_dead_worker_finishes_sequentially(monkeypatch):
    """A worker that dies breaks the pool; the sweep finishes the cells
    it has not collected in-process, with the workers=1 values."""
    monkeypatch.setattr(experiment, "_available_cores", lambda: 2)
    spec = _small_spec()
    spec.metrics = {"success": metric_success_or_die}
    ref = run_experiment(spec, workers=1)
    notes = []
    got = run_experiment(spec, progress=notes.append, workers=2)
    assert got == ref
    assert "parity: worker pool died; finishing sequentially" in notes
    assert notes[-1] == "parity: 6/6 cells done"


def test_unpicklable_metrics_fall_back_to_sequential():
    spec = _small_spec()
    spec.metrics = {"success": lambda grid: grid.acdc_db.success_rate()}
    ref = run_experiment(spec, workers=1)
    got = run_experiment(spec, workers=4)  # silently sequential
    assert got == ref


def test_workers_none_uses_cpu_count():
    spec = _small_spec()
    spec.variants = {"calm": {}}
    spec.repeats = 2
    assert run_experiment(spec, workers=None) == run_experiment(spec, workers=1)


def test_sweep_workers_passthrough():
    results = sweep(
        "scale-sweep",
        base=dict(duration_days=1),
        parameter="scale",
        values=[900, 800],
        metrics={"success": metric_success},
        workers=2,
    )
    assert [r.variant for r in results] == ["scale=900", "scale=800"]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup is only observable with >=4 cores",
)
def test_parallel_speedup_on_multicore():
    """On real multi-core hardware a 3-variant x 3-repeat spec must beat
    sequential by >1.5x."""
    spec = _small_spec()
    spec.base = dict(scale=300, duration_days=2)
    spec.repeats = 3
    t0 = time.perf_counter()
    seq = run_experiment(spec, workers=1)
    t_seq = time.perf_counter() - t0
    t0 = time.perf_counter()
    par = run_experiment(spec, workers=4)
    t_par = time.perf_counter() - t0
    assert seq == par
    assert t_seq / t_par > 1.5, f"speedup {t_seq / t_par:.2f}"
