"""The ACDC Job Monitor (§5.2) — the source of Table 1.

"The ACDC Job Monitor from the Advanced Computational Data Center at the
University of Buffalo collects information from local job managers using
a typical pull-based model.  Statistics and job metrics are collected
and stored in a web-visible database, available for aggregated queries
and browsing."

:class:`ACDCJobMonitor` polls every site LRM for newly completed jobs and
stores :class:`JobRecord` rows in :class:`ACDCDatabase`.  The paper's
Table 1 ("based on completed production jobs ... source ACDC University
at Buffalo", 291 052 job records) is an aggregate query over exactly
this database — implemented in :mod:`repro.analysis.table1`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..core.job import Job
from ..sim.engine import Engine
from ..sim.units import HOUR, MINUTE


@dataclass(frozen=True)
class JobRecord:
    """One harvested row of the ACDC job database."""

    job_id: int
    name: str
    vo: str
    user: str
    site: str
    submitted_at: float
    started_at: float
    finished_at: float
    runtime: float          # wall-clock seconds on the node
    queue_time: float
    succeeded: bool
    failure_category: str   # "" | "site" | "application" | "infrastructure"
    failure_type: str       # exception class name, "" on success
    bytes_in: float
    bytes_out: float

    @classmethod
    def from_job(cls, job: Job) -> "JobRecord":
        return cls(
            job_id=job.job_id,
            name=job.spec.name,
            vo=job.vo,
            user=job.spec.user,
            site=job.site_name,
            submitted_at=job.submitted_at,
            started_at=job.started_at,
            finished_at=job.finished_at,
            runtime=job.run_time,
            queue_time=job.queue_time,
            succeeded=job.succeeded,
            failure_category=job.failure_category or "",
            failure_type=type(job.error).__name__ if job.error else "",
            bytes_in=job.bytes_staged_in,
            bytes_out=job.bytes_staged_out,
        )


class ACDCDatabase:
    """The web-visible job-record store with aggregate queries."""

    def __init__(self) -> None:
        self._records: List[JobRecord] = []

    def add(self, record: JobRecord) -> None:
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def records(
        self,
        vo: Optional[str] = None,
        site: Optional[str] = None,
        user: Optional[str] = None,
        since: float = -float("inf"),
        until: float = float("inf"),
        succeeded: Optional[bool] = None,
    ) -> List[JobRecord]:
        """Filtered record list (completion time within [since, until])."""
        out = []
        for r in self._records:
            if vo is not None and r.vo != vo:
                continue
            if site is not None and r.site != site:
                continue
            if user is not None and r.user != user:
                continue
            if not since <= r.finished_at <= until:
                continue
            if succeeded is not None and r.succeeded != succeeded:
                continue
            out.append(r)
        return out

    def vos(self) -> List[str]:
        """Distinct VOs with at least one record."""
        return sorted({r.vo for r in self._records})

    def sites(self) -> List[str]:
        return sorted({r.site for r in self._records})

    def success_rate(self, **filters) -> float:
        """Fraction of matching jobs that completed perfectly (the §7
        'efficiency of job completion' metric)."""
        matching = self.records(**filters)
        if not matching:
            return 0.0
        return sum(r.succeeded for r in matching) / len(matching)

    def failure_breakdown(self, **filters) -> Dict[str, int]:
        """Failed-job counts by category — reproduces the §6.1 claim that
        ~90 % of failures were site problems."""
        out: Dict[str, int] = {}
        for r in self.records(**filters):
            if not r.succeeded:
                out[r.failure_category] = out.get(r.failure_category, 0) + 1
        return out

    def total_cpu_days(self, **filters) -> float:
        """Sum of runtime over matching records, in CPU-days."""
        return sum(r.runtime for r in self.records(**filters)) / (24 * HOUR)


class ACDCJobMonitor:
    """Pull-model harvester over every site's LRM."""

    def __init__(
        self,
        engine: Engine,
        sites: Iterable,
        database: Optional[ACDCDatabase] = None,
        poll_interval: float = 15 * MINUTE,
    ) -> None:
        self.engine = engine
        self.sites = list(sites)
        self.database = database or ACDCDatabase()
        self.poll_interval = poll_interval
        self._cursors: Dict[str, int] = {s.name: 0 for s in self.sites}
        self.process = engine.process(self._run(), name="acdc-monitor")

    def poll_once(self) -> int:
        """One harvesting pass; returns records pulled."""
        pulled = 0
        for site in self.sites:
            lrm = site.services.get("lrm")
            if lrm is None:
                continue
            cursor = self._cursors.get(site.name, 0)
            fresh = lrm.drain_completed(cursor)
            self._cursors[site.name] = cursor + len(fresh)
            for job in fresh:
                self.database.add(JobRecord.from_job(job))
                pulled += 1
        return pulled

    def _run(self):
        while True:
            yield self.engine.timeout(self.poll_interval)
            self.poll_once()
