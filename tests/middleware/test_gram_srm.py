"""Tests for the GRAM gatekeeper load model and the SRM service."""

import pytest

from repro.core.job import Job, JobSpec, JobState
from repro.errors import (
    AuthenticationError,
    GatekeeperOverloadError,
    ReservationError,
    ServiceUnavailableError,
    StorageFullError,
    SubmissionError,
)
from repro.middleware.gram import (
    LOAD_PER_MANAGED_JOB,
    Gatekeeper,
    attach_gatekeeper,
)
from repro.middleware.srm import SRMService, attach_srm
from repro.sim import Engine, GB, HOUR, MINUTE, TB

from ..conftest import make_site


class FakeLRM:
    """Accepts every job; tests drive completion manually."""

    def __init__(self):
        self.jobs = []
        self.cancelled = []

    def submit(self, job):
        self.jobs.append(job)

    def cancel(self, job):
        self.cancelled.append(job)


def spec(name="job", staging="none", **kw):
    return JobSpec(name=name, vo="usatlas", user="alice", runtime=HOUR, staging=staging, **kw)


@pytest.fixture
def gatekeeper(eng, net, authed):
    auth, proxy = authed
    site = make_site(eng, net, "SiteA")
    gk = attach_gatekeeper(eng, site, auth)
    gk.lrm = FakeLRM()
    return gk, proxy


def test_submit_happy_path(eng, gatekeeper):
    gk, proxy = gatekeeper
    job = gk.submit(proxy, spec())
    assert job.state is JobState.PENDING
    assert job.site_name == "SiteA"
    assert gk.managed_count == 1
    assert gk.lrm.jobs == [job]
    assert gk.submissions_accepted == 1
    assert any(e[1] == "submit" for e in gk.log)


def test_submit_requires_lrm(eng, net, authed):
    auth, proxy = authed
    site = make_site(eng, net, "SiteB")
    gk = attach_gatekeeper(eng, site, auth)
    with pytest.raises(SubmissionError):
        gk.submit(proxy, spec())


def test_submit_authentication_failure_propagates(eng, gatekeeper, ca):
    gk, _proxy = gatekeeper
    bad_cert = ca.issue("/CN=stranger")
    bad_proxy = ca.make_proxy(bad_cert)
    from repro.errors import AuthorizationError
    with pytest.raises(AuthorizationError):
        gk.submit(bad_proxy, spec())
    assert gk.managed_count == 0


def test_gatekeeper_down(eng, gatekeeper):
    gk, proxy = gatekeeper
    gk.available = False
    with pytest.raises(ServiceUnavailableError):
        gk.submit(proxy, spec())


def test_load_model_matches_paper_calibration(eng, net, authed):
    """§6.4: ~1000 managed no-staging jobs -> sustained load ~225."""
    auth, proxy = authed
    site = make_site(eng, net, "SiteCal")
    gk = attach_gatekeeper(eng, site, auth, overload_threshold=1e9)
    gk.lrm = FakeLRM()
    for _ in range(1000):
        gk.submit(proxy, spec(staging="none"))
    eng.run(until=2 * MINUTE)  # let submission spikes decay
    assert gk.load() == pytest.approx(225.0, rel=0.01)


def test_staging_factor_multiplies_load(eng, gatekeeper):
    gk, proxy = gatekeeper
    for _ in range(100):
        gk.submit(proxy, spec(staging="minimal"))
    eng.run(until=2 * MINUTE)
    # Factor of two vs the base rate (§6.4).
    assert gk.load() == pytest.approx(2 * 100 * LOAD_PER_MANAGED_JOB, rel=0.01)


def test_heavy_staging_higher_still(eng, gatekeeper):
    gk, proxy = gatekeeper
    for _ in range(100):
        gk.submit(proxy, spec(staging="heavy"))
    eng.run(until=2 * MINUTE)
    load_heavy = gk.load()
    assert 3 * 100 * LOAD_PER_MANAGED_JOB <= load_heavy <= 4 * 100 * LOAD_PER_MANAGED_JOB


def test_submission_frequency_spike(eng, gatekeeper):
    """'This load can sharply increase when the job submission frequency
    is high' — burst submissions add transient load that decays."""
    gk, proxy = gatekeeper
    for _ in range(100):
        gk.submit(proxy, spec(staging="none"))
    spiked = gk.load()
    sustained = 100 * LOAD_PER_MANAGED_JOB
    assert spiked > sustained * 2  # sharp transient increase
    eng.run(until=2 * MINUTE)
    assert gk.load() == pytest.approx(sustained, rel=0.01)


def test_overload_sheds_submissions(eng, net, authed):
    auth, proxy = authed
    site = make_site(eng, net, "SiteA")
    gk = attach_gatekeeper(eng, site, auth, overload_threshold=50.0)
    gk.lrm = FakeLRM()
    with pytest.raises(GatekeeperOverloadError):
        for _ in range(10_000):
            gk.submit(proxy, spec(staging="heavy"))
    assert gk.overload_rejections == 1
    assert gk.peak_load > 50.0


def test_job_finished_releases_load(eng, gatekeeper):
    gk, proxy = gatekeeper
    job = gk.submit(proxy, spec())
    eng.run(until=2 * MINUTE)
    before = gk.load()
    gk.job_finished(job)
    assert gk.load() < before
    assert gk.managed_count == 0


def test_cancel_forwards_to_lrm(eng, gatekeeper):
    gk, proxy = gatekeeper
    job = gk.submit(proxy, spec())
    gk.cancel(job)
    assert gk.lrm.cancelled == [job]
    assert gk.managed_count == 0


def test_gram_log_bounded(eng, gatekeeper):
    gk, proxy = gatekeeper
    for i in range(60_000):
        gk.log.append((0.0, "x", i, ""))
    gk.submit(proxy, spec())
    assert len(gk.log) < 60_000


# --- SRM -------------------------------------------------------------------

def test_srm_reserve_then_write(eng, net):
    site = make_site(eng, net, "SiteA", disk=10 * GB)
    srm = attach_srm(eng, site)
    res = srm.prepare_to_put(4 * GB)
    assert srm.reservations_granted == 1
    site.storage.store("/out", 3 * GB, reservation=res)
    srm.put_done(res)
    assert site.storage.used == 3 * GB
    assert site.storage.reserved == pytest.approx(0.0)


def test_srm_denies_when_full(eng, net):
    site = make_site(eng, net, "SiteA", disk=10 * GB)
    srm = attach_srm(eng, site)
    srm.prepare_to_put(8 * GB)
    with pytest.raises(ReservationError):
        srm.prepare_to_put(5 * GB)
    assert srm.reservations_denied == 1


def test_srm_reservation_prevents_disk_full_crash(eng, net):
    """The §6.2 scenario: with SRM, the conflict surfaces at reservation
    time, not as a mid-job StorageFullError."""
    site = make_site(eng, net, "SiteA", disk=10 * GB)
    srm = attach_srm(eng, site)
    res = srm.prepare_to_put(6 * GB)
    # An unreserved interloper cannot squeeze the reserved space.
    with pytest.raises(StorageFullError):
        site.storage.store("/interloper", 5 * GB)
    # The reserved writer is safe.
    site.storage.store("/mine", 6 * GB, reservation=res)
    srm.put_done(res)


def test_srm_abort_returns_space(eng, net):
    site = make_site(eng, net, "SiteA", disk=10 * GB)
    srm = attach_srm(eng, site)
    res = srm.prepare_to_put(6 * GB)
    srm.abort(res)
    assert site.storage.free == pytest.approx(10 * GB)
    assert srm.reserved_bytes == 0.0


def test_srm_expired_leases_reaped(eng, net):
    site = make_site(eng, net, "SiteA", disk=10 * GB)
    srm = attach_srm(eng, site, default_lifetime=1 * HOUR)
    srm.prepare_to_put(6 * GB)
    eng.run(until=2 * HOUR)
    # A new reservation triggers the reap and succeeds.
    res2 = srm.prepare_to_put(8 * GB)
    assert res2.amount == 8 * GB


def test_every_finished_job_logs_exactly_one_end_line():
    """The LRM completion hook is the gatekeeper's only end-of-job
    signal: one ``done``/``failed`` line per finished job, no more."""
    from collections import Counter

    from repro.core.grid3 import Grid3, Grid3Config

    grid = Grid3(Grid3Config(seed=3, scale=400, duration_days=1))
    grid.run_full()
    finished = 0
    for site in grid.sites.values():
        ends = Counter(
            job_id
            for _t, event, job_id, _detail
            in site.service("gatekeeper").log
            if event in ("done", "failed")
        )
        completed = [job.job_id for job in site.service("lrm").completed]
        assert ends == Counter(completed), site.name
        finished += len(completed)
    assert finished > 0
