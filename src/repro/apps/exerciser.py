"""The Condor exerciser: the grid's heartbeat probe (§4.7).

"An exerciser backfill application provided by the Condor group tested
the status of the batch systems and operation characteristics of each
Grid3 site.  This application ran repeatedly with a low priority at 15
minute intervals."

Unlike the science campaigns, the exerciser is interval-driven: every
cycle it submits one ``nice_user`` (backfill-only) probe to every
site.  Table 1 shows the consequence: 198 272 jobs — two thirds
of all Grid3 job records — at 0.13 h mean runtime from 3 users.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.job import Job, JobSpec
from ..sim.units import HOUR, MINUTE
from .base import ApplicationDemonstrator, AppContext

#: §4.7: the probing cadence.
PROBE_INTERVAL = 15 * MINUTE
#: Table 1: mean runtime 0.13 h ~ 8 minutes.
PROBE_RUNTIME = 8 * MINUTE


class ExerciserApplication(ApplicationDemonstrator):
    """Low-priority backfill probes of every site's batch system."""

    name = "exerciser"
    vo = "ivdgl"  # the CS demonstrators ran under the iVDGL VO
    users = ("condor-ex1", "condor-ex2", "condor-ex3")
    #: Interval-driven, not campaign-driven: total_units unused.
    total_units = 0

    def __init__(self, ctx: AppContext, probe_sites: List[str] = None) -> None:
        super().__init__(ctx)
        #: Sites to probe; Table 1 shows the exerciser used 14 sites.
        self.probe_sites = probe_sites
        #: (site -> consecutive probe failures) — the exerciser's whole
        #: point was detecting broken batch systems.
        self.consecutive_failures: Dict[str, int] = {}
        self._cycle = 0

    def _targets(self) -> List[str]:
        if self.probe_sites is not None:
            return [name for name in self.probe_sites if name in self.ctx.sites]
        return list(self.ctx.sites)

    def _probe_spec(self, site_name: str) -> JobSpec:
        return JobSpec(
            name=f"exerciser-{site_name}-{self._cycle}",
            vo=self.vo,
            user=self.users[self._cycle % len(self.users)],
            runtime=self.ctx.rng.lognormal_from_mean(
                "exerciser.runtime", PROBE_RUNTIME, 0.2
            ),
            walltime_request=1 * HOUR,
            staging="none",
            nice_user=True,
        )

    def _probe(self, site_name: str):
        jobs = yield from self.submit_and_wait(
            self._probe_spec(site_name), site_name
        )
        job = jobs[0]
        if job.succeeded:
            self.consecutive_failures[site_name] = 0
        else:
            self.consecutive_failures[site_name] = (
                self.consecutive_failures.get(site_name, 0) + 1
            )
        self.stats.add_jobs(jobs)

    def _campaign(self):
        engine = self.ctx.engine
        interval = PROBE_INTERVAL * self.ctx.scale
        while engine.now < self.ctx.duration:
            self._cycle += 1
            for site_name in self._targets():
                self.stats.units_submitted += 1
                engine.process(
                    self._probe(site_name),
                    name=f"exerciser-{site_name}-{self._cycle}",
                )
            yield engine.timeout(interval)

    def run_unit(self, index: int):  # pragma: no cover - interval-driven
        raise NotImplementedError("the exerciser overrides _campaign")

    def broken_sites(self, threshold: int = 3) -> List[str]:
        """Sites failing their last ``threshold`` probes — the signal
        the iGOC watched."""
        return sorted(
            site for site, fails in self.consecutive_failures.items()
            if fails >= threshold
        )
