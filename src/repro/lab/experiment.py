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
* Each ``run_experiment`` call fans its cells out over a fresh process
  pool, one cell per task, and shuts the pool down before it returns.
* Cells are always independent full runs, so parallel results are
  bit-identical to a sequential run and are assembled in declaration
  order regardless of completion order.
* A spec that cannot pickle (lambda metrics, closures) falls back to
  sequential with an :class:`UnpicklableSpecWarning` naming the
  offending attribute — never silently.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.report import render_table
from ..core.grid3 import Grid3, Grid3Config

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


def run_experiment(
    spec: ExperimentSpec,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = 1,
) -> List[ExperimentResult]:
    """Run every (variant × repeat) cell and aggregate the metrics.

    ``workers`` > 1 fans the cells out over one
    :class:`~concurrent.futures.ProcessPoolExecutor` for this call (each
    worker builds its own :class:`Grid3`, so cells stay bit-identical to
    a sequential run); ``workers=None`` means one per available core
    (see :func:`_available_cores`).  Requests beyond the core budget are
    clamped with a ``progress`` note.  Results are assembled in
    declaration order.

    Specs that do not pickle (e.g. lambda metrics) run sequentially
    with an :class:`UnpicklableSpecWarning` naming the offender.  A pool
    that dies mid-sweep (:class:`BrokenProcessPool`) degrades to
    sequential for the cells not yet collected instead of failing the
    sweep.
    """
    cells = [
        (variant, repeat)
        for variant in spec.variants
        for repeat in range(spec.repeats)
    ]
    total = len(cells)
    workers = _effective_workers(workers, total, progress)
    values: Dict[Tuple[str, int], Dict[str, float]] = {}

    def _collect(cell: Tuple[str, int], metrics: Dict[str, float]) -> None:
        values[cell] = metrics
        if progress is not None:
            progress(f"{spec.name}: {len(values)}/{total} cells done")

    if workers > 1 and _spec_is_picklable(spec, progress):
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = pool.map(
                    _run_cell_metrics,
                    [spec] * total,
                    [variant for variant, _ in cells],
                    [repeat for _, repeat in cells],
                )
                for cell, metrics in zip(cells, outcomes):
                    _collect(cell, metrics)
        except BrokenProcessPool:
            if progress is not None:
                progress(f"{spec.name}: worker pool died; finishing sequentially")
    for cell in cells:
        if cell not in values:
            _collect(cell, _run_cell_metrics(spec, *cell))

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
