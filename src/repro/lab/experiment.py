"""Experiment harness: declarative sweeps over grid configurations.

Grid3's charter included being a laboratory for grid-computing research
(§1); the §4.7 demonstrators were exactly such experiments run against
the production system.  This module makes the simulated grid usable the
same way:

    spec = ExperimentSpec(
        name="failure-sensitivity",
        base=dict(scale=400, duration_days=10, apps=["ivdgl"]),
        variants={
            "calm":  dict(failures=FailureProfile.calm()),
            "noisy": dict(failures=FailureProfile.early()),
        },
        metrics={
            "success": lambda grid: grid.acdc_db.success_rate(),
            "cpu_days": lambda grid: grid.acdc_db.total_cpu_days(),
        },
        repeats=3,
    )
    results = run_experiment(spec)
    print(render_results(results))

Each (variant, seed) cell builds a fresh :class:`Grid3`, runs the full
window, evaluates every metric, and reports mean ± spread across
repeats.

Parallelism model (``workers``):

* ``workers=None`` asks for one worker per *available* core —
  ``os.sched_getaffinity(0)`` where the platform has it (it respects
  container cpusets and taskset masks), ``os.cpu_count()`` otherwise.
* ``workers`` larger than the available cores is clamped down with a
  note through ``progress`` — oversubscribing cores never helps a
  CPU-bound simulation.
* Cells are submitted to a **persistent** process pool (reused across
  ``run_experiment`` calls in the same process) in **chunks** sized to
  amortize task overhead while still load-balancing.
* Before fanning out on a cold pool, the first cell runs in-process as
  a *calibration cell*: its wall time feeds a cost model that keeps
  tiny sweeps sequential (worker spawn + import costs more than it
  saves).  On a warm pool the fan-out starts immediately.
* Cells are always independent full runs, so parallel results are
  bit-identical to a sequential run and are assembled in declaration
  order regardless of completion order.
* A spec that cannot pickle (lambda metrics, closures) falls back to
  sequential with an :class:`UnpicklableSpecWarning` naming the
  offending attribute — never silently.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.report import render_table
from ..core.grid3 import Grid3, Grid3Config

#: Chunks submitted per worker: small enough to amortize per-task
#: overhead, large enough that an unlucky slow chunk can be balanced
#: by the others.
_CHUNKS_PER_WORKER = 4

#: Cost-model estimate (seconds) for bringing up a cold process pool:
#: spawn + interpreter start + ``import repro`` per worker.
_COLD_POOL_COST_S = 0.5


class UnpicklableSpecWarning(UserWarning):
    """A spec attribute does not pickle, so the sweep ran sequentially."""


@dataclass
class ExperimentSpec:
    """One declarative experiment."""

    name: str
    #: Keyword arguments shared by every variant (Grid3Config fields).
    base: Dict[str, object]
    #: variant name -> config overrides.
    variants: Dict[str, Dict[str, object]]
    #: metric name -> fn(grid) -> float, evaluated post-run.
    metrics: Dict[str, Callable[[Grid3], float]]
    #: Independent seeds per variant.
    repeats: int = 1
    #: Base seed; repeat ``i`` uses ``seed0 + i``.
    seed0: int = 1000

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not self.variants:
            raise ValueError("need at least one variant")
        if not self.metrics:
            raise ValueError("need at least one metric")


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated outcomes for one variant."""

    variant: str
    repeats: int
    #: metric -> per-repeat values.
    samples: Dict[str, tuple]

    def mean(self, metric: str) -> float:
        return float(np.mean(self.samples[metric]))

    def std(self, metric: str) -> float:
        return float(np.std(self.samples[metric]))

    def minmax(self, metric: str) -> tuple:
        values = self.samples[metric]
        return (min(values), max(values))


# -- worker budgeting ---------------------------------------------------------

def _available_cores() -> int:
    """Cores this process may actually run on.

    ``os.sched_getaffinity(0)`` respects cgroup cpusets and taskset
    masks (the container case where ``os.cpu_count()`` over-reports);
    platforms without it fall back to ``os.cpu_count()``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def _effective_workers(
    workers: Optional[int],
    n_cells: int,
    progress: Optional[Callable[[str], None]],
) -> int:
    """Resolve the ``workers`` request against the core budget."""
    cores = _available_cores()
    if workers is None:
        workers = cores
    elif workers > cores:
        note = (
            f"workers={workers} exceeds {cores} available core(s); "
            f"using {cores} (oversubscription never helps CPU-bound cells)"
        )
        if progress is not None:
            progress(note)
        workers = cores
    return max(1, min(workers, n_cells))


# -- the persistent pool ------------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_size = 0


def _get_pool(workers: int) -> Tuple[ProcessPoolExecutor, bool]:
    """A process pool with at least ``workers`` workers.

    Returns ``(pool, was_warm)``.  The pool persists across
    ``run_experiment`` calls (spawn + ``import repro`` is the dominant
    fan-out cost, paid once per process instead of once per sweep); a
    too-small pool is replaced by a bigger one.
    """
    global _pool, _pool_size
    if _pool is not None and _pool_size >= workers:
        return _pool, True
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
    _pool = ProcessPoolExecutor(max_workers=workers)
    _pool_size = workers
    return _pool, False


def _discard_pool() -> None:
    global _pool, _pool_size
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
        _pool_size = 0


atexit.register(_discard_pool)


# -- pickling pre-flight ------------------------------------------------------

def _find_unpicklable(spec: ExperimentSpec) -> str:
    """Name the spec attribute that fails to pickle (best effort)."""
    probes: List[Tuple[str, object]] = []
    for metric, fn in spec.metrics.items():
        probes.append((f"metrics[{metric!r}]", fn))
    for variant, overrides in spec.variants.items():
        for key, value in overrides.items():
            probes.append((f"variants[{variant!r}][{key!r}]", value))
    for key, value in spec.base.items():
        probes.append((f"base[{key!r}]", value))
    for path, obj in probes:
        try:
            pickle.dumps(obj)
        except Exception as exc:  # noqa: BLE001 - reporting, not handling
            return f"{path} = {obj!r} ({type(exc).__name__}: {exc})"
    return "the spec as a whole (no single attribute identified)"


def _spec_is_picklable(
    spec: ExperimentSpec, progress: Optional[Callable[[str], None]]
) -> bool:
    try:
        pickle.dumps(spec)
        return True
    except Exception:  # noqa: BLE001 - lambdas, closures, local classes
        culprit = _find_unpicklable(spec)
        message = (
            f"experiment {spec.name!r}: spec does not pickle — {culprit}; "
            f"running sequentially (move the offender to module level to "
            f"enable workers)"
        )
        warnings.warn(message, UnpicklableSpecWarning, stacklevel=4)
        if progress is not None:
            progress(message)
        return False


# -- cell execution -----------------------------------------------------------

def _run_cell(spec: ExperimentSpec, variant: str, repeat: int) -> Grid3:
    kwargs = dict(spec.base)
    kwargs.update(spec.variants[variant])
    kwargs["seed"] = spec.seed0 + repeat
    grid = Grid3(Grid3Config(**kwargs))
    grid.run_full()
    return grid


def _run_cell_metrics(
    spec: ExperimentSpec, variant: str, repeat: int
) -> Dict[str, float]:
    """Run one cell, evaluate every metric in-process.

    Only floats cross the process boundary — a full Grid3 (engine,
    generators, open simulation state) does not pickle and should not.
    """
    grid = _run_cell(spec, variant, repeat)
    return {metric: float(fn(grid)) for metric, fn in spec.metrics.items()}


def _run_cell_batch(
    spec: ExperimentSpec, chunk: List[Tuple[str, int]]
) -> List[Tuple[str, int, Dict[str, float]]]:
    """Worker body: run a chunk of cells, return tagged metric dicts."""
    return [
        (variant, repeat, _run_cell_metrics(spec, variant, repeat))
        for variant, repeat in chunk
    ]


def _chunk_cells(
    cells: List[Tuple[str, int]], workers: int
) -> List[List[Tuple[str, int]]]:
    """Split cells into round-robin-sized contiguous chunks.

    One future per cell maximizes scheduling overhead; one future per
    worker loses all load balancing.  ``_CHUNKS_PER_WORKER`` chunks per
    worker is the usual compromise.
    """
    n = len(cells)
    size = max(1, -(-n // (workers * _CHUNKS_PER_WORKER)))
    return [cells[i:i + size] for i in range(0, n, size)]


def _cells_parallel(
    spec: ExperimentSpec,
    cells: List[Tuple[str, int]],
    workers: int,
    progress: Optional[Callable[[str], None]],
    done_offset: int = 0,
    total: Optional[int] = None,
    executor: Optional[ProcessPoolExecutor] = None,
) -> Dict[Tuple[str, int], Dict[str, float]]:
    """Fan cell chunks out over a process pool; collect by cell key.

    Progress messages carry completed/total *counts* only, so their
    content is identical no matter which worker finishes first.
    ``executor`` is injectable for tests; by default the persistent
    pool is used.
    """
    values: Dict[Tuple[str, int], Dict[str, float]] = {}
    total = total if total is not None else len(cells)
    if executor is None:
        executor, _warm = _get_pool(workers)
    futures = {
        executor.submit(_run_cell_batch, spec, chunk): chunk
        for chunk in _chunk_cells(cells, workers)
    }
    done_cells = done_offset
    pending = set(futures)
    while pending:
        finished, pending = wait(pending, return_when=FIRST_COMPLETED)
        for future in finished:
            for variant, repeat, metrics in future.result():
                values[(variant, repeat)] = metrics
                done_cells += 1
                if progress is not None:
                    progress(f"{spec.name}: {done_cells}/{total} cells done")
    return values


def run_experiment(
    spec: ExperimentSpec,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = 1,
) -> List[ExperimentResult]:
    """Run every (variant × repeat) cell and aggregate the metrics.

    ``workers`` > 1 fans cell chunks out over a persistent
    :class:`~concurrent.futures.ProcessPoolExecutor` (each worker builds
    its own :class:`Grid3`, so cells stay bit-identical to a sequential
    run); ``workers=None`` means one per available core (see
    :func:`_available_cores`).  Requests beyond the core budget are
    clamped with a ``progress`` note.  Results are assembled in
    declaration order regardless of completion order.

    Specs that do not pickle (e.g. lambda metrics) run sequentially
    with an :class:`UnpicklableSpecWarning` naming the offender.  On a
    cold pool the first cell runs in-process as a calibration cell; if
    the measured remaining work cannot beat the pool spawn cost, the
    sweep stays sequential (tiny sweeps must never get slower).  A pool
    that dies mid-sweep (:class:`BrokenProcessPool`) degrades to
    sequential for the unfinished cells instead of failing the sweep.
    """
    cells = [
        (variant, repeat)
        for variant in spec.variants
        for repeat in range(spec.repeats)
    ]
    total = len(cells)
    workers = _effective_workers(workers, total, progress)
    parallel = workers > 1 and total > 1 and _spec_is_picklable(spec, progress)

    values: Dict[Tuple[str, int], Dict[str, float]] = {}
    done = 0

    def _sequential(remaining: List[Tuple[str, int]]) -> None:
        nonlocal done
        for variant, repeat in remaining:
            values[(variant, repeat)] = _run_cell_metrics(spec, variant, repeat)
            done += 1
            if progress is not None:
                progress(f"{spec.name}: {done}/{total} cells done")

    if parallel:
        _pool_obj, warm = _get_pool(workers)
        remaining = cells
        if not warm:
            # Calibration cell: measure one cell in-process (the result
            # is kept, not thrown away) and only fan out if the saved
            # wall time beats the pool bring-up cost.  This is what
            # keeps a 9-small-cell sweep from the historical 0.79x
            # slowdown.
            t0 = time.perf_counter()
            _sequential(cells[:1])
            cell_s = time.perf_counter() - t0
            remaining = cells[1:]
            saved_s = cell_s * len(remaining) * (1.0 - 1.0 / workers)
            if saved_s <= _COLD_POOL_COST_S:
                if progress is not None:
                    progress(
                        f"{spec.name}: sweep too small to amortize worker "
                        f"spawn (~{cell_s:.2f}s/cell × {len(remaining)} "
                        f"cells); staying sequential"
                    )
                parallel = False
        if parallel:
            try:
                values.update(_cells_parallel(
                    spec, remaining, workers, progress,
                    done_offset=done, total=total,
                ))
                done = total
            except BrokenProcessPool:
                _discard_pool()
                if progress is not None:
                    progress(
                        f"{spec.name}: worker pool died; finishing "
                        f"sequentially"
                    )
                _sequential([c for c in remaining if c not in values])
        else:
            _sequential(remaining)
    else:
        _sequential(cells)

    results: List[ExperimentResult] = []
    for variant in spec.variants:
        collected: Dict[str, List[float]] = {m: [] for m in spec.metrics}
        for repeat in range(spec.repeats):
            cell = values[(variant, repeat)]
            for metric in spec.metrics:
                collected[metric].append(cell[metric])
        results.append(ExperimentResult(
            variant=variant,
            repeats=spec.repeats,
            samples={m: tuple(v) for m, v in collected.items()},
        ))
    return results


def sweep(
    name: str,
    base: Dict[str, object],
    parameter: str,
    values: Sequence[object],
    metrics: Dict[str, Callable[[Grid3], float]],
    repeats: int = 1,
    seed0: int = 1000,
    workers: Optional[int] = 1,
) -> List[ExperimentResult]:
    """Convenience: a one-parameter sweep (variant per value)."""
    variants = {f"{parameter}={value!r}": {parameter: value} for value in values}
    spec = ExperimentSpec(
        name=name, base=base, variants=variants,
        metrics=metrics, repeats=repeats, seed0=seed0,
    )
    return run_experiment(spec, workers=workers)


def render_results(results: List[ExperimentResult]) -> str:
    """Mean ± std table across variants."""
    if not results:
        return "(no results)"
    metric_names = sorted(results[0].samples)
    headers = ["variant", "n"] + metric_names
    rows = []
    for result in results:
        cells = [result.variant, result.repeats]
        for metric in metric_names:
            mean = result.mean(metric)
            std = result.std(metric)
            cells.append(f"{mean:.3g}±{std:.2g}" if result.repeats > 1 else f"{mean:.3g}")
        rows.append(cells)
    return render_table(headers, rows)
