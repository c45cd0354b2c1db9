"""Troubleshooting and accounting APIs — the §8 lessons, implemented.

The paper asks for exactly these, which deployed Grid3 lacked:

* "API for accessing troubleshooting and accounting information are
  needed, particularly for the GRAM job submission and GridFTP file
  transfer systems.  These APIs should provide direct information
  without the necessity of parsing log files."
* "the ability to link a job ID on the execution side with a job ID at
  the submit (VO) side."
* "tools for analyzing and querying log files."

:class:`TroubleshootingAPI` answers the trace-backed job queries (the
submit-side ↔ execution-side join is ``trace_for_job``), error
aggregation, and gatekeeper/GridFTP/storage accounting directly from the
live services — no log parsing.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from ..services import AvailabilityRow, availability_rows, grid_services
from .results import (
    GramAccounting,
    GridFTPAccounting,
    SlowJobRow,
    StorageAccounting,
)


class TroubleshootingAPI:
    """Direct (no-log-parsing) troubleshooting queries over a built grid."""

    def __init__(
        self, sites: Dict[str, object], acdc_db, data=None, trace=None,
        fairshare=None, policy=None,
    ) -> None:
        self.sites = sites
        self.acdc_db = acdc_db
        #: Optional DataManager: storage/data queries answer from it.
        self.data = data
        #: Optional SpanStore: trace-backed queries (slowest_jobs,
        #: phase_breakdown, trace_for_job) answer from it.
        self.trace = trace
        #: Optional FairShareLedger / PolicyEngine: the fair-share and
        #: share-cap queries answer from them.
        self.fairshare = fairshare
        self.policy = policy

    # -- trace-backed queries (the tracing pipeline's ops surface) ------------
    def trace_for_job(self, job_id: int):
        """Root span of the trace owning an execution-side job id
        (None without tracing, or for an unknown/evicted id)."""
        if self.trace is None:
            return None
        return self.trace.trace_for_job(job_id)

    def slowest_jobs(self, n: int = 10) -> List[SlowJobRow]:
        """The ``n`` longest-makespan job traces, slowest first.

        Each row joins the submit-side trace identity to its
        execution-side job ids — the §8 cross-side link, ranked the way
        an operator chasing "why is this VO slow?" wants it.  Empty
        without tracing.
        """
        if self.trace is None:
            return []
        from ..trace.analysis import job_breakdown, slowest_traces
        rows = []
        for makespan, root in slowest_traces(self.trace, n):
            breakdown = job_breakdown(root)
            rows.append(SlowJobRow(
                trace_id=root.trace_id,
                name=root.name,
                vo=str(root.attrs.get("vo", "")),
                status=root.status,
                makespan=makespan,
                job_ids=tuple(self.trace.jobs_for(root.trace_id)),
                critical_phase=max(
                    ("queue", "stage-in", "compute", "stage-out", "retry",
                     "other"),
                    key=lambda p: breakdown[p],
                ),
            ))
        return rows

    def phase_breakdown(self, vo: Optional[str] = None) -> Dict[str, object]:
        """Grid-wide makespan attribution by phase (optionally one VO):
        the aggregate critical-path view over every retained job trace.
        Empty without tracing."""
        if self.trace is None:
            return {}
        from ..trace.analysis import aggregate_breakdown
        return aggregate_breakdown(self.trace.roots(), vo=vo)

    # -- GRAM accounting (the §8 ask, no log parsing) -------------------------
    def gram_accounting(self, site_name: str) -> Optional[GramAccounting]:
        """Submission/rejection/load counters for one gatekeeper.
        None for a site without one."""
        gatekeeper = self.sites[site_name].services.get("gatekeeper")
        if gatekeeper is None:
            return None
        return GramAccounting(
            site=site_name,
            accepted=gatekeeper.submissions_accepted,
            rejected=gatekeeper.submissions_rejected,
            overload_rejections=gatekeeper.overload_rejections,
            current_load=gatekeeper.load(),
            peak_load=gatekeeper.peak_load,
            managed_jobs=gatekeeper.managed_count,
        )

    # -- GridFTP accounting -----------------------------------------------------
    def gridftp_accounting(self, site_name: str) -> Optional[GridFTPAccounting]:
        """Transfer counters for one GridFTP endpoint.  None for a site
        without one."""
        server = self.sites[site_name].services.get("gridftp")
        if server is None:
            return None
        total = server.transfers_ok + server.transfers_failed
        return GridFTPAccounting(
            site=site_name,
            transfers_ok=server.transfers_ok,
            transfers_failed=server.transfers_failed,
            failure_rate=server.transfers_failed / total if total else 0.0,
            bytes_sent=server.bytes_sent,
            bytes_received=server.bytes_received,
        )

    # -- storage / data-management accounting ---------------------------------
    def storage_accounting(self, site_name: str) -> Optional[StorageAccounting]:
        """Occupancy and churn counters for one site's SE — the query
        the §6.2 "disk filled up" tickets needed answered directly.
        None for a site without storage."""
        storage = getattr(self.sites[site_name], "storage", None)
        if storage is None:
            return None
        return StorageAccounting(
            site=site_name,
            capacity=storage.capacity,
            used=storage.used,
            utilisation=storage.utilisation,
            files=len(storage.files()),
            bytes_written=storage.bytes_written,
            bytes_deleted=storage.bytes_deleted,
            write_failures=storage.write_failures,
        )

    # -- fair-share / policy queries ------------------------------------------
    def fairshare_report(self) -> List:
        """Per-VO fair-share rows
        (:class:`~repro.scheduling.fairshare.FairShareStatus`); empty
        when fair-share scheduling is off."""
        if self.fairshare is None:
            return []
        return self.fairshare.report(self._engine_now())

    def share_caps(self) -> List:
        """Peak-vs-cap rows per (site, VO) share slot
        (:class:`~repro.scheduling.policy.ShareCapRow`); empty when
        fair-share scheduling is off."""
        if self.policy is None:
            return []
        return self.policy.share_rows()

    def _engine_now(self) -> float:
        """The simulation clock, recovered from any attached site."""
        for site in self.sites.values():
            engine = getattr(site, "engine", None)
            if engine is not None:
                return engine.now
        return 0.0

    # -- service health (downtime-ledger queries) ---------------------------
    def service_health(self, site_name: str) -> Dict[str, Dict]:
        """Lifecycle snapshot for every GridService at one site:
        role -> the service's ``health()`` dict (state, open-outage
        cause, outage count, cumulative downtime)."""
        site = self.sites[site_name]
        return {
            role: service.health()
            for role, service in grid_services(site).items()
        }

    def availability_report(
        self,
        since: float = 0.0,
        until: Optional[float] = None,
    ) -> List[AvailabilityRow]:
        """Per-(site, role) availability/MTTR/MTBF rows over a window —
        the grid-wide ledger view the iGOC status page needs."""
        return availability_rows(self.sites.values(), since=since, until=until)

    # -- error analytics ----------------------------------------------------------
    def error_summary(
        self,
        vo: Optional[str] = None,
        site: Optional[str] = None,
    ) -> Dict[str, int]:
        """Failure counts by exception type over matching records."""
        counter: Counter = Counter()
        for record in self.acdc_db.records(vo=vo, site=site, succeeded=False):
            counter[record.failure_type] += 1
        return dict(counter)

    def worst_sites(self, min_jobs: int = 5) -> List[Tuple[str, float]]:
        """Sites ranked by failure rate (the ops team's hit list)."""
        per_site: Dict[str, List[bool]] = {}
        for record in self.acdc_db.records():
            per_site.setdefault(record.site, []).append(record.succeeded)
        ranked = [
            (site, 1.0 - sum(oks) / len(oks))
            for site, oks in per_site.items()
            if len(oks) >= min_jobs
        ]
        ranked.sort(key=lambda pair: -pair[1])
        return ranked
