"""SDSS: galaxy-cluster finding and pixel-level analysis (§4.3).

"A search for galaxy clusters in SDSS data resulted in workflows with
several thousand processing steps organized by Chimera virtual data
tools."  Each campaign unit is one maxBcg-style workflow over a batch
of sky fields: a field-preparation step fans out into per-field cluster
searches, merged by a catalog step.  A minority of units are the other
§4.3 applications (pixel-level cutout analysis, near-earth-asteroid
scans) — structurally flat fan-outs.

Table 1 calibration: 5 410 jobs, 9 users, mean runtime 1.46 h, peak
month 02-2004 (SDSS ramped *later* than the LHC experiments).
"""

from __future__ import annotations

from ..core.job import Job, JobSpec
from ..errors import StorageFullError
from ..sim.units import GB, HOUR, MB
from ..workflow.chimera import Derivation, Transformation, VirtualDataCatalog
from ..workflow.dag import DAG
from ..workflow.pegasus import PegasusPlanner
from .base import ApplicationDemonstrator, AppContext

APP_FAILURE_PROBABILITY = 0.02

#: Mean per-step runtimes; mixture mean ~1.46 h (Table 1).
PREP_RUNTIME = 0.8 * HOUR
SEARCH_RUNTIME = 1.5 * HOUR
MERGE_RUNTIME = 1.0 * HOUR
#: One SDSS imaging strip, the input of a NEO scan.
IMAGE_STRIP_SIZE = 1.5 * GB


class SDSSApplication(ApplicationDemonstrator):
    """Chimera cluster-finding workflows."""

    name = "sdss-coadd"
    vo = "sdss"
    #: 5410 jobs at ~14 steps per workflow ~ 386 workflows.
    total_units = 386
    monthly_profile = {
        "10-2003": 0.04, "11-2003": 0.10, "12-2003": 0.08, "01-2004": 0.14,
        "02-2004": 0.40, "03-2004": 0.14, "04-2004": 0.10,
    }
    users = tuple(f"sdss-user{i}" for i in range(9))

    #: §4.3 also lists "a search for near earth asteroids, which calls
    #: for examining complete SDSS images in search of highly elongated
    #: objects" — this fraction of units run that pixel-level scan.
    NEO_FRACTION = 0.2

    def __init__(self, ctx: AppContext, archive_site: str = "FNAL_CMS",
                 mean_fields: int = 12) -> None:
        super().__init__(ctx)
        #: SDSS is Fermilab-hosted; output archives there.
        self.archive_site = archive_site
        self.mean_fields = mean_fields
        self._strips_published = 0
        self.vdc = VirtualDataCatalog()
        self.vdc.add_transformation(
            Transformation("fieldPrep", runtime=PREP_RUNTIME, staging="minimal")
        )
        self.vdc.add_transformation(
            Transformation("brgSearch", runtime=SEARCH_RUNTIME, staging="minimal")
        )
        self.vdc.add_transformation(
            Transformation("clusterCatalog", runtime=MERGE_RUNTIME, staging="minimal")
        )
        self.planner = PegasusPlanner(ctx.rls, ctx.rng, selector=ctx.replica_selector)

    def _workflow_dax(self, index: int):
        """fieldPrep -> N x brgSearch -> clusterCatalog."""
        rid = f"sdss{index:05d}"
        n_fields = max(
            4, int(self.ctx.rng.lognormal_from_mean("sdss.fields", self.mean_fields, 0.4))
        )
        self.vdc.add_derivation(
            Derivation(f"prep-{rid}", "fieldPrep",
                       outputs=((f"/sdss/{rid}/fields", 200 * MB),))
        )
        search_outputs = []
        for f in range(n_fields):
            out = (f"/sdss/{rid}/clusters-{f:03d}", 30 * MB)
            search_outputs.append(out)
            self.vdc.add_derivation(
                Derivation(f"search-{rid}-{f:03d}", "brgSearch",
                           inputs=(f"/sdss/{rid}/fields",),
                           outputs=(out,))
            )
        self.vdc.add_derivation(
            Derivation(f"merge-{rid}", "clusterCatalog",
                       inputs=tuple(lfn for lfn, _ in search_outputs),
                       outputs=((f"/sdss/{rid}/catalog", 100 * MB),))
        )
        return self.vdc.derive([f"/sdss/{rid}/catalog"])

    def _neo_dag(self, index: int):
        """A flat pixel-scan fan-out over a few imaging strips, each
        published at the archive on first use; and the scans whose strip
        the archive SE could not take, failed there (StorageFullError)."""
        rng = self.ctx.rng
        archive = self.ctx.sites[self.archive_site]
        dag = DAG(f"neo-{index:05d}")
        refused = []
        n_strips = max(2, int(rng.uniform("sdss.neo.strips", 2, 6)))
        for k in range(n_strips):
            strip = int(rng.uniform("sdss.neo.pick", 0, 100))
            lfn = f"/sdss/images/strip-{strip:03d}"
            runtime = rng.lognormal_from_mean("sdss.neo.runtime", 1.2 * HOUR, 0.3)
            spec = JobSpec(
                name=f"neo-{index:05d}-{k}",
                vo=self.vo,
                user=self.users[index % len(self.users)],
                runtime=runtime,
                walltime_request=max(4 * HOUR, runtime * 3),
                inputs=((lfn, IMAGE_STRIP_SIZE),),
                outputs=((f"/sdss/neo/{index:05d}-{k}.cand", 5 * MB),),
                staging="heavy",
                archive_site=self.archive_site,
                app_failure_probability=APP_FAILURE_PROBABILITY,
            )
            if lfn not in archive.storage:
                try:
                    archive.storage.store(lfn, IMAGE_STRIP_SIZE)
                except StorageFullError as exc:
                    job = Job(spec=spec, site_name=self.archive_site)
                    refused.append(archive.service("lrm").refuse(job, exc))
                    continue
                self.ctx.rls.register(self.archive_site, lfn, IMAGE_STRIP_SIZE)
                self._strips_published += 1
            dag.add_job(f"scan-{k}", spec)
        return dag, refused

    def run_unit(self, index: int):
        if self.ctx.rng.bernoulli("sdss.kind", self.NEO_FRACTION):
            dag, refused = self._neo_dag(index)
            jobs = yield from self.run_dag(dag)
            return refused + jobs
        dax = self._workflow_dax(index)
        dag = self.planner.plan(
            dax, vo=self.vo, user=self.users[index % len(self.users)],
            archive_site=self.archive_site, name=f"sdss-{index:05d}",
            app_failure_probability=APP_FAILURE_PROBABILITY,
        )
        jobs = yield from self.run_dag(dag)
        return jobs
