"""Tests for the Grid3 job wrapper (pre-stage/execute/post-stage/register)."""

import pytest

from repro.core.job import Job, JobSpec
from repro.core.runner import Grid3Runner
from repro.errors import (
    ApplicationError,
    ReservationError,
    SiteMisconfigurationError,
    StorageFullError,
)
from repro.middleware.rls import LocalReplicaCatalog, ReplicaLocationIndex
from repro.middleware.srm import attach_srm
from repro.scheduling.batch import BatchScheduler
from repro.sim import GB, HOUR, RngRegistry, TB

from ..conftest import make_site


@pytest.fixture
def grid(eng, net, rng):
    """Two wired sites (exec + archive), an RLS, and a runner factory."""
    exec_site = make_site(eng, net, "ExecSite", disk=1 * TB)
    archive = make_site(eng, net, "Tier1", disk=10 * TB)
    sites = {"ExecSite": exec_site, "Tier1": archive}
    rls = ReplicaLocationIndex(eng)
    for name in sites:
        rls.attach_lrc(LocalReplicaCatalog(name))
    return sites, rls


def run_job(eng, sites, rls, rng, spec, use_srm=False):
    runner = Grid3Runner(sites, rls, rng, use_srm=use_srm)
    sched = BatchScheduler(eng, sites["ExecSite"], runner=runner)
    job = Job(spec=spec)
    sched.submit(job)
    eng.run()
    return job, runner


def spec(**kw):
    defaults = dict(
        name="atlas-sim", vo="usatlas", user="prod", runtime=2 * HOUR,
        walltime_request=10 * HOUR,
    )
    defaults.update(kw)
    return JobSpec(**defaults)


def test_full_lifecycle_with_staging(eng, rng, grid):
    sites, rls = grid
    # An input dataset lives at the Tier1.
    sites["Tier1"].storage.store("/atlas/gen", 0.5 * GB)
    rls.register("Tier1", "/atlas/gen", 0.5 * GB)
    s = spec(
        inputs=(("/atlas/gen", 0.5 * GB),),
        outputs=(("/atlas/sim", 2 * GB),),
        archive_site="Tier1",
    )
    job, runner = run_job(eng, sites, rls, rng, s)
    assert job.succeeded
    assert job.bytes_staged_in == 0.5 * GB
    assert job.bytes_staged_out == 2 * GB
    # Output archived at the Tier1 and registered in RLS.
    assert "/atlas/sim" in sites["Tier1"].storage
    assert "Tier1" in rls.sites_with("/atlas/sim")
    # Scratch hygiene: the exec site keeps no residue of a clean job.
    assert "/atlas/gen" not in sites["ExecSite"].storage
    assert "/atlas/sim" not in sites["ExecSite"].storage


def test_local_output_registration_without_archive(eng, rng, grid):
    sites, rls = grid
    s = spec(outputs=(("/atlas/local-out", 1 * GB),), archive_site=None)
    job, _runner = run_job(eng, sites, rls, rng, s)
    assert job.succeeded
    assert "/atlas/local-out" in sites["ExecSite"].storage
    assert rls.sites_with("/atlas/local-out") == ["ExecSite"]


def test_input_already_local_skips_staging(eng, rng, grid):
    sites, rls = grid
    sites["ExecSite"].storage.store("/cached", 1 * GB)
    rls.register("ExecSite", "/cached", 1 * GB)
    s = spec(inputs=(("/cached", 1 * GB),))
    job, _runner = run_job(eng, sites, rls, rng, s)
    assert job.succeeded
    assert job.bytes_staged_in == 0.0


def test_missing_replica_fails_prestage(eng, rng, grid):
    sites, rls = grid
    s = spec(inputs=(("/ghost", 1 * GB),))
    job, runner = run_job(eng, sites, rls, rng, s)
    assert job.failed
    assert runner.failures_by_phase["pre-stage"] == 1
    # Failed before consuming compute.
    assert job.run_time < s.runtime


def test_disk_full_at_output_write(eng, rng, grid):
    sites, rls = grid
    sites["ExecSite"].storage.store("/filler", 0.999 * TB)
    s = spec(outputs=(("/atlas/big", 5 * GB),))
    job, runner = run_job(eng, sites, rls, rng, s)
    assert job.failed
    assert isinstance(job.error, StorageFullError)
    assert job.failure_category == "site"
    assert runner.failures_by_phase["execute"] == 1


def test_archive_full_at_poststage_leaves_residue(eng, net, rng):
    exec_site = make_site(eng, net, "ExecSite", disk=1 * TB)
    archive = make_site(eng, net, "Tier1", disk=1 * GB)  # tiny archive
    sites = {"ExecSite": exec_site, "Tier1": archive}
    rls = ReplicaLocationIndex(eng)
    for name in sites:
        rls.attach_lrc(LocalReplicaCatalog(name))
    s = spec(outputs=(("/atlas/out", 2 * GB),), archive_site="Tier1")
    job, runner = run_job(eng, sites, rls, rng, s)
    assert job.failed
    assert runner.failures_by_phase["post-stage"] == 1
    # The failed job left its output on the exec site (real residue).
    assert "/atlas/out" in exec_site.storage


def test_app_failure_probability(eng, rng, grid):
    sites, rls = grid
    s = spec(app_failure_probability=1.0)
    job, runner = run_job(eng, sites, rls, rng, s)
    assert job.failed
    assert isinstance(job.error, ApplicationError)
    assert job.failure_category == "application"
    # Application failures burn the full compute time (§6.1's expensive
    # failures).
    assert job.run_time >= s.runtime


def test_outbound_requirement_enforced(eng, net, rng):
    site = make_site(eng, net, "ExecSite", outbound_connectivity=False)
    sites = {"ExecSite": site}
    rls = ReplicaLocationIndex(eng)
    rls.attach_lrc(LocalReplicaCatalog("ExecSite"))
    s = spec(requires_outbound=True)
    job, runner = run_job(eng, sites, rls, rng, s)
    assert job.failed
    assert isinstance(job.error, SiteMisconfigurationError)


def test_misconfigured_site_fails_jobs(eng, rng, grid):
    sites, rls = grid
    sites["ExecSite"].misconfigured = True
    job, _runner = run_job(eng, sites, rls, rng, spec())
    assert job.failed
    assert isinstance(job.error, SiteMisconfigurationError)


def test_srm_reserves_and_releases(eng, rng, grid):
    sites, rls = grid
    attach_srm(eng, sites["ExecSite"])
    attach_srm(eng, sites["Tier1"])
    s = spec(outputs=(("/atlas/out", 2 * GB),), archive_site="Tier1")
    job, _runner = run_job(eng, sites, rls, rng, s, use_srm=True)
    assert job.succeeded
    assert sites["ExecSite"].storage.reserved == pytest.approx(0.0)
    assert sites["Tier1"].storage.reserved == pytest.approx(0.0)
    assert "/atlas/out" in sites["Tier1"].storage


def test_srm_turns_disk_full_into_early_rejection(eng, rng, grid):
    sites, rls = grid
    attach_srm(eng, sites["ExecSite"])
    sites["ExecSite"].storage.store("/filler", 0.999 * TB)
    s = spec(outputs=(("/atlas/big", 5 * GB),))
    job, runner = run_job(eng, sites, rls, rng, s, use_srm=True)
    assert job.failed
    assert isinstance(job.error, ReservationError)
    # Crucially: rejected before computing, not after (the §6.2 win).
    assert job.run_time < 1.0
    assert runner.failures_by_phase["pre-stage"] == 1


def test_walltime_covers_staging_time(eng, net, rng):
    """Walltime is wall-clock: slow staging counts against it."""
    exec_site = make_site(eng, net, "ExecSite", bw=1e6)  # 1 MB/s: slow
    tier1 = make_site(eng, net, "Tier1", bw=1e6)
    sites = {"ExecSite": exec_site, "Tier1": tier1}
    rls = ReplicaLocationIndex(eng)
    for name in sites:
        rls.attach_lrc(LocalReplicaCatalog(name))
    tier1.storage.store("/in", 10 * GB)
    rls.register("Tier1", "/in", 10 * GB)
    # 10 GB at 1 MB/s = 10 000 s of staging; walltime only 1 h.
    s = spec(inputs=(("/in", 10 * GB),), runtime=10.0, walltime_request=1 * HOUR)
    job, _runner = run_job(eng, sites, rls, rng, s)
    assert job.failed
    from repro.errors import WalltimeExceededError
    assert isinstance(job.error, WalltimeExceededError)
