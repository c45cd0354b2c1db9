"""Shared machinery for the application demonstrators (§4, Table 1).

Each Grid3 application class is modelled as a *campaign*: a number of
work units (DAGs or single jobs) submitted over the observation window
with a monthly intensity profile calibrated to Table 1's
peak-production columns.  Submission times are pre-drawn from the named
RNG (month by weight, uniform within the month) so a campaign's total
job count is exact and its monthly histogram matches the profile in
expectation — which is what makes Figure 6 and Table 1's peak-month
rows reproducible.

The ``scale`` parameter divides work-unit counts (and is applied by the
grid builder to CPU counts symmetrically), so a laptop-scale run keeps
every *ratio* the paper reports.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.job import Job
from ..scheduling.condorg import CondorG, GridJobHandle
from ..scheduling.dagman import DAGMan, DagmanRun
from ..sim.calendar import SimCalendar
from ..sim.engine import Engine
from ..sim.rng import RngRegistry
from ..sim.units import DAY

#: The Table 1 observation window: 2003-10-23 .. 2004-04-23 (183 days).
OBSERVATION_DAYS = 183.0


@dataclass
class AppContext:
    """Everything an application needs from the built grid."""

    engine: Engine
    rng: RngRegistry
    calendar: SimCalendar
    condorg: Dict[str, CondorG]          # per-VO submit hosts
    dagman: Dict[str, DAGMan]
    rls: object
    sites: Dict[str, object]
    ledger: object = None                # TransferLedger or None
    scale: float = 1.0
    #: Campaign horizon in sim-seconds (defaults to the Table 1 window).
    duration: float = OBSERVATION_DAYS * DAY
    #: ReplicaSelector when the managed data subsystem is on, else None
    #: (planners then use their deterministic fallback).
    replica_selector: object = None


class AppStats:
    """Aggregated outcomes for one application class."""

    def __init__(self) -> None:
        self.jobs: List[Job] = []

    def add_jobs(self, jobs: Sequence[Job]) -> None:
        self.jobs.extend(jobs)

    @property
    def job_count(self) -> int:
        return len(self.jobs)

    @property
    def succeeded(self) -> int:
        return sum(1 for j in self.jobs if j.succeeded)

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j.failed)

    @property
    def success_rate(self) -> float:
        return self.succeeded / len(self.jobs) if self.jobs else 0.0

    @property
    def failure_rate(self) -> float:
        return 1.0 - self.success_rate if self.jobs else 0.0

    def failure_breakdown(self) -> Dict[str, int]:
        """Failed jobs by category ("site" / "application" / ...)."""
        out: Dict[str, int] = {}
        for job in self.jobs:
            if job.failed:
                category = job.failure_category or "infrastructure"
                out[category] = out.get(category, 0) + 1
        return out

    @property
    def site_failure_fraction(self) -> float:
        """Of all failures, the fraction attributed to sites (§6.1: ~90 %)."""
        breakdown = self.failure_breakdown()
        total = sum(breakdown.values())
        return breakdown.get("site", 0) / total if total else 0.0


class ApplicationDemonstrator:
    """Base class: campaign scheduling plus outcome accounting.

    Subclasses define ``vo``, ``name``, the monthly profile, the
    full-scale unit count, and :meth:`run_unit` (a generator executing
    one work unit and returning its Job records).
    """

    #: Override in subclasses.
    name = "base"
    vo = "ivdgl"
    #: month label -> relative submission intensity (normalised at use).
    monthly_profile: Dict[str, float] = {}
    #: Full-scale number of work units over the observation window.
    total_units = 0
    #: Registered users (Table 1's "Number of Users" row).
    users: Tuple[str, ...] = ()

    def __init__(self, ctx: AppContext) -> None:
        self.ctx = ctx
        self.stats = AppStats()
        self.process = None

    # -- campaign schedule ----------------------------------------------------
    def _month_bounds(self) -> List[Tuple[str, float, float]]:
        """(label, start, end) for each month overlapping the window."""
        cal = self.ctx.calendar
        out = []
        for label in cal.month_labels(self.ctx.duration):
            month, year = int(label[:2]), int(label[3:])
            start_dt = _dt.datetime(year, month, 1)
            end_dt = _dt.datetime(
                year + (month == 12), month % 12 + 1, 1
            )
            t0 = max(0.0, cal.sim_time_of(start_dt))
            t1 = min(self.ctx.duration, cal.sim_time_of(end_dt))
            if t1 > t0:
                out.append((label, t0, t1))
        return out

    def scaled_units(self) -> int:
        """Work units for this run (full-scale count / scale, >= 1)."""
        if self.total_units <= 0:
            return 0
        return max(1, int(round(self.total_units / self.ctx.scale)))

    def submission_times(self) -> List[float]:
        """Pre-drawn, sorted submission instants for every work unit."""
        months = self._month_bounds()
        if not months:
            return []
        labels = [m[0] for m in months]
        weights = [self.monthly_profile.get(label, 0.01) for label in labels]
        rng = self.ctx.rng
        times = []
        for i in range(self.scaled_units()):
            label = rng.choice(f"app.{self.name}.month", labels, weights=weights)
            _label, t0, t1 = next(m for m in months if m[0] == label)
            times.append(rng.uniform(f"app.{self.name}.when", t0, t1))
        return sorted(times)

    # -- execution ------------------------------------------------------------
    def run_unit(self, index: int):
        """Generator: execute one work unit, return a list of Jobs."""
        raise NotImplementedError

    def _unit_wrapper(self, index: int):
        jobs = yield from self.run_unit(index)
        if jobs:
            self.stats.add_jobs(jobs)

    def _campaign(self):
        engine = self.ctx.engine
        for index, when in enumerate(self.submission_times()):
            delay = when - engine.now
            if delay > 0:
                yield engine.timeout(delay)
            engine.process(
                self._unit_wrapper(index), name=f"{self.name}-unit{index}"
            )

    def start(self) -> None:
        """Launch the campaign (returns immediately)."""
        self.process = self.ctx.engine.process(
            self._campaign(), name=f"app-{self.name}"
        )

    # -- helpers for subclasses -----------------------------------------------
    def submit_and_wait(self, spec, site_name: Optional[str] = None):
        """Generator: one Condor-G submission, returns [final Job]."""
        handle: GridJobHandle = self.ctx.condorg[self.vo].submit(spec, site_name)
        final = yield handle.done
        return [final]

    def run_dag(self, dag) -> "generator":
        """Generator: run a DAG through this VO's DAGMan, returns Jobs."""
        result: DagmanRun = yield from self.ctx.dagman[self.vo].run(dag)
        return result.jobs
