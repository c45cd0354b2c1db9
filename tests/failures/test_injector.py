"""Tests for failure models and the injector."""

import pytest

from repro.core.job import Job, JobSpec
from repro.errors import NodeFailureError, ServiceFailureError
from repro.failures import FailureInjector, FailureProfile
from repro.sim import DAY, HOUR, MINUTE, RngRegistry

from ..conftest import make_site, wire_site


def spec(runtime=10 * HOUR):
    return JobSpec(name="victim", vo="usatlas", user="alice",
                   runtime=runtime, walltime_request=runtime * 1.5)


def test_profile_presets():
    assert FailureProfile.disabled().service_failure_interval is None
    assert FailureProfile.disabled().nightly_rollover == {}
    calm = FailureProfile.calm()
    default = FailureProfile()
    assert calm.service_failure_interval > default.service_failure_interval
    assert "UB_ACDC" in default.nightly_rollover


def test_disabled_profile_injects_nothing(eng, net, rng):
    site = make_site(eng, net, "SiteA")
    injector = FailureInjector(eng, [site], rng, FailureProfile.disabled())
    eng.run(until=30 * DAY)
    assert injector.injected == {
        "service": 0, "network": 0, "node": 0, "rollover": 0,
    }


def test_service_crash_kills_running_jobs(eng, net, rng):
    site = make_site(eng, net, "SiteA", cpus=4)
    wire_site(eng, site, [])
    lrm = site.service("lrm")
    jobs = [Job(spec=spec()) for _ in range(3)]
    for job in jobs:
        lrm.submit(job)
    profile = FailureProfile(
        service_failure_interval=1 * HOUR,   # crashes arrive fast
        batch_crash_weight=5.0,              # mostly batch crashes
        service_repair_time=2 * HOUR,
        network_interruption_interval=None,
        node_mtbf=None,
        nightly_rollover={},
    )
    injector = FailureInjector(eng, [site], rng, profile)
    eng.run(until=10 * HOUR)
    assert injector.injected["service"] >= 1
    assert injector.jobs_killed >= 1
    killed = [j for j in jobs if j.failed]
    assert killed
    assert all(isinstance(j.error, ServiceFailureError) for j in killed)


def test_service_repair_restores(eng, net, rng):
    site = make_site(eng, net, "SiteA")
    wire_site(eng, site, [])
    profile = FailureProfile(
        service_failure_interval=1 * HOUR,
        service_repair_time=30 * MINUTE,
        network_interruption_interval=None,
        node_mtbf=None,
        nightly_rollover={},
    )
    FailureInjector(eng, [site], rng, profile)
    eng.run(until=3 * DAY)
    # After plenty of crash/repair cycles, services end up available again
    # (repair always follows crash within 30 min).
    eng.run(until=3 * DAY + 2 * HOUR)
    available = [
        site.services[r].available for r in ("gatekeeper", "gridftp")
    ]
    assert any(available)  # at least one restored; both crash rarely together


def test_network_interruption_and_restore(eng, net, rng):
    site = make_site(eng, net, "SiteA")
    profile = FailureProfile(
        service_failure_interval=None,
        network_interruption_interval=6 * HOUR,
        network_outage_duration=30 * MINUTE,
        node_mtbf=None,
        nightly_rollover={},
    )
    injector = FailureInjector(eng, [site], rng, profile)
    eng.run(until=3 * DAY)
    assert injector.injected["network"] >= 2
    # Links are back up at the end (no outage longer than 30 min).
    assert site.uplink.up and site.downlink.up


def test_node_failures_evict_and_repair(eng, net, rng):
    site = make_site(eng, net, "SiteA", cpus=8)
    wire_site(eng, site, [])
    profile = FailureProfile(
        service_failure_interval=None,
        network_interruption_interval=None,
        node_mtbf=48 * HOUR,   # 8 nodes -> one failure every ~6 h
        node_repair_time=1 * HOUR,
        nightly_rollover={},
    )
    injector = FailureInjector(eng, [site], rng, profile)
    eng.run(until=5 * DAY)
    assert injector.injected["node"] >= 5
    # Repairs keep the cluster from draining to zero.
    assert site.cluster.online_cpus >= site.cluster.total_cpus - 2


def test_nightly_rollover_fires_daily_at_hour(eng, net, rng):
    site = make_site(eng, net, "UB_ACDC", cpus=8, max_walltime=200 * HOUR)
    wire_site(eng, site, [])
    lrm = site.service("lrm")
    profile = FailureProfile(
        service_failure_interval=None,
        network_interruption_interval=None,
        node_mtbf=None,
        nightly_rollover={"UB_ACDC": 0.5},
        rollover_hour=3,
    )
    injector = FailureInjector(eng, [site], rng, profile)
    # A long job spanning several nights.
    job = Job(spec=spec(runtime=100 * HOUR))
    lrm.submit(job)
    eng.run(until=3 * DAY)
    assert injector.injected["rollover"] == 3
    # The job was on one of the rolled nodes with 50 % node coverage per
    # night; over 3 nights it is overwhelmingly likely to have died.
    if job.failed:
        assert isinstance(job.error, NodeFailureError)


def test_rollover_only_for_configured_sites(eng, net, rng):
    a = make_site(eng, net, "UB_ACDC", cpus=2)
    b = make_site(eng, net, "Other", cpus=2)
    profile = FailureProfile(
        service_failure_interval=None,
        network_interruption_interval=None,
        node_mtbf=None,
        nightly_rollover={"UB_ACDC": 0.5},
    )
    injector = FailureInjector(eng, [a, b], rng, profile)
    eng.run(until=2 * DAY)
    assert injector.injected["rollover"] == 2  # only UB_ACDC rolls
