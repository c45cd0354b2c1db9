"""U.S. ATLAS: GCE production + DIAL analysis (§4.1, §6.1).

The workflow is the paper's three-stage chain: Pythia event generation,
GEANT-based detector simulation producing ~2 GB datasets, and
reconstruction — built through Chimera/Pegasus virtual data tools, with
every dataset "archived at the Tier1 facility at Brookhaven National
Laboratory" and registered in RLS.  Completed samples land in the DIAL
dataset catalog; a fraction of units are DIAL analysis passes over
produced samples instead of new production.

Table 1 calibration: 7 455 jobs, 25 users, mean runtime 8.81 h, peak
month 11-2003 (with only 28.2 % from the single busiest resource —
ATLAS spread widely, hence the default matchmaker jitter).
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.units import GB, HOUR, MB
from ..workflow.chimera import Derivation, Transformation, VirtualDataCatalog
from ..workflow.dial import Dataset, DatasetCatalog, analysis_dag
from ..workflow.pegasus import PegasusPlanner
from .base import ApplicationDemonstrator, AppContext

#: Stage runtimes chosen so the 3-job chain averages Table 1's 8.81 h.
PYTHIA_RUNTIME = 1.0 * HOUR
ATLSIM_RUNTIME = 16.0 * HOUR
RECO_RUNTIME = 9.4 * HOUR

#: §4.1: simulation "creates datasets with an average size of about 2 GB".
SIM_OUTPUT_BYTES = 2 * GB
GEN_OUTPUT_BYTES = 150 * MB
RECO_OUTPUT_BYTES = 500 * MB

#: §6.1 failure accounting: ~30 % total failures, ~90 % site-caused —
#: so ~3 % of failures are the application's own.
APP_FAILURE_PROBABILITY = 0.03


class ATLASApplication(ApplicationDemonstrator):
    """The GCE-Server production system plus DIAL analysis."""

    name = "usatlas-gce"
    vo = "usatlas"
    #: 7455 jobs / 3 jobs per chain ~ 2485 units; peak 11-2003.
    total_units = 2485
    monthly_profile = {
        "10-2003": 0.10, "11-2003": 0.35, "12-2003": 0.15, "01-2004": 0.12,
        "02-2004": 0.10, "03-2004": 0.10, "04-2004": 0.08,
    }
    users = tuple(f"atlas-user{i:02d}" for i in range(25))

    #: Every ~20th unit is a DIAL analysis over produced samples (§6.1:
    #: samples "continue to be analyzed by DIAL developers").
    DIAL_EVERY = 20

    def __init__(self, ctx: AppContext, archive_site: str = "BNL_ATLAS") -> None:
        super().__init__(ctx)
        self.archive_site = archive_site
        self.vdc = VirtualDataCatalog()
        self.vdc.add_transformation(
            Transformation("pythia", runtime=PYTHIA_RUNTIME, staging="minimal")
        )
        self.vdc.add_transformation(
            Transformation("atlsim", runtime=ATLSIM_RUNTIME, staging="heavy")
        )
        self.vdc.add_transformation(
            Transformation("atlreco", runtime=RECO_RUNTIME, staging="heavy")
        )
        self.planner = PegasusPlanner(ctx.rls, ctx.rng, selector=ctx.replica_selector)
        self.dataset_catalog = DatasetCatalog()
        #: §6.1: GCE-Server deployed on 22 Grid3 sites via Pacman.
        self.deployed_sites: List[str] = []

    def deploy(self, site_names: List[str]) -> None:
        """User-level GCE-Server installation (marks sites deployed)."""
        for name in site_names:
            site = self.ctx.sites.get(name)
            if site is not None:
                # Installed by hand, outside the Pacman cache: no version.
                site.installed_packages["gce-server"] = "?"
                self.deployed_sites.append(name)

    def _production_dax(self, index: int):
        rid = f"atl{index:05d}"
        self.vdc.add_derivation(
            Derivation(f"gen-{rid}", "pythia",
                       outputs=((f"/atlas/{rid}/gen", GEN_OUTPUT_BYTES),))
        )
        self.vdc.add_derivation(
            Derivation(f"sim-{rid}", "atlsim",
                       inputs=(f"/atlas/{rid}/gen",),
                       outputs=((f"/atlas/{rid}/sim", SIM_OUTPUT_BYTES),))
        )
        self.vdc.add_derivation(
            Derivation(f"reco-{rid}", "atlreco",
                       inputs=(f"/atlas/{rid}/sim",),
                       outputs=((f"/atlas/{rid}/dst", RECO_OUTPUT_BYTES),))
        )
        return self.vdc.derive([f"/atlas/{rid}/dst"])

    def run_unit(self, index: int):
        user = self.users[index % len(self.users)]
        if index % self.DIAL_EVERY == self.DIAL_EVERY - 1 and len(self.dataset_catalog) >= 2:
            # DIAL analysis over recently produced samples.
            dag = analysis_dag(
                self.dataset_catalog, self.ctx.rng, user=user,
                name=f"dial-{index:05d}", max_datasets=4,
            )
            jobs = yield from self.run_dag(dag)
            return jobs
        dax = self._production_dax(index)
        dag = self.planner.plan(
            dax, vo=self.vo, user=user, archive_site=self.archive_site,
            name=f"atlas-{index:05d}",
            app_failure_probability=APP_FAILURE_PROBABILITY,
        )
        jobs = yield from self.run_dag(dag)
        # Successful reconstructions enter the DIAL dataset catalog.
        rid = f"atl{index:05d}"
        if any(j.succeeded and j.spec.name == f"reco-{rid}" for j in jobs):
            self.dataset_catalog.register(
                Dataset(
                    name=rid,
                    lfn=f"/atlas/{rid}/dst",
                    size=RECO_OUTPUT_BYTES,
                    site=self.archive_site,
                    events=5000,
                )
            )
        return jobs
