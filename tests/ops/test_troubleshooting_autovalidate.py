"""Tests for the §8 troubleshooting APIs and the auto-validator."""

import pytest

from repro.core.job import JobSpec
from repro.middleware.mds import GRIS
from repro.ops.autovalidate import AutoValidator
from repro.ops.troubleshooting import TroubleshootingAPI
from repro.monitoring.acdc import ACDCDatabase, JobRecord
from repro.sim import HOUR, MINUTE

from ..conftest import make_grid_fragment, make_site, wire_site


def spec(name="j", runtime=HOUR):
    return JobSpec(name=name, vo="usatlas", user="alice", runtime=runtime,
                   walltime_request=4 * HOUR)


# --- TroubleshootingAPI --------------------------------------------------------

@pytest.fixture
def api_with_run(eng, net, ca):
    sites, _giis, proxy = make_grid_fragment(eng, net, ca)
    from repro.scheduling.condorg import CondorG
    cg = CondorG(eng, "submit", sites, proxy_provider=lambda u: proxy)
    handles = [cg.submit(spec(name=f"j{i}"), "Frag0") for i in range(4)]
    eng.run()
    db = ACDCDatabase()
    for site in sites.values():
        for job in site.service("lrm").completed:
            db.add(JobRecord.from_job(job))
    return TroubleshootingAPI(sites, db), handles, sites


def test_gram_accounting_no_log_parsing(api_with_run):
    api, _handles, sites = api_with_run
    acct = api.gram_accounting("Frag0")
    assert acct.accepted == 4
    assert acct.managed_jobs == 0  # all finished
    assert acct.peak_load > 0
    assert api.gram_accounting("Frag1").accepted == 0


def test_gridftp_accounting(api_with_run):
    api, _handles, _sites = api_with_run
    acct = api.gridftp_accounting("Frag0")
    assert acct.failure_rate == 0.0
    assert acct.bytes_sent >= 0


def test_error_summary_and_worst_sites():
    db = ACDCDatabase()
    for i in range(10):
        ok = i >= 4
        db.add(JobRecord(
            job_id=i, name=f"j{i}", vo="usatlas", user="u",
            site="BadSite" if i < 6 else "GoodSite",
            submitted_at=0, started_at=1, finished_at=2,
            runtime=1, queue_time=1, succeeded=ok,
            failure_category="" if ok else "site",
            failure_type="" if ok else ("StorageFullError" if i < 2 else "NodeFailureError"),
            bytes_in=0, bytes_out=0,
        ))
    api = TroubleshootingAPI({}, db)
    summary = api.error_summary()
    assert summary == {"StorageFullError": 2, "NodeFailureError": 2}
    worst = api.worst_sites(min_jobs=3)
    assert worst[0][0] == "BadSite"
    assert worst[0][1] > worst[-1][1]


# --- AutoValidator ----------------------------------------------------------------

def prepare_site(eng, net, name="SiteA"):
    site = make_site(eng, net, name)
    wire_site(eng, site, [])
    site.attach_service("gris", GRIS(eng, site))
    from repro.middleware.vdt import REQUIRED_PACKAGES
    site.installed_packages.update(REQUIRED_PACKAGES)
    return site


def test_autovalidator_fixes_misconfiguration(eng, net):
    site = prepare_site(eng, net)
    site.attach_service("misconfigured", True)
    validator = AutoValidator(eng, [site], interval=30 * MINUTE)
    eng.run(until=1 * HOUR)
    assert "misconfigured" not in site.services
    assert validator.fixes_applied >= 1
    # Later passes are clean; the site shows as stable.
    eng.run(until=3 * HOUR)
    assert site.name in validator.stable_sites()
    assert 0 <= validator.time_to_stable(site.name) <= 2 * HOUR


def test_autovalidator_restarts_dead_services(eng, net):
    site = prepare_site(eng, net)
    site.service("gridftp").available = False
    AutoValidator(eng, [site], interval=30 * MINUTE)
    eng.run(until=1 * HOUR)
    assert site.service("gridftp").available


def test_autovalidator_escalates_missing_packages(eng, net):
    site = prepare_site(eng, net)
    site.installed_packages.discard("vdt-base")
    escalated = []
    validator = AutoValidator(
        eng, [site], interval=30 * MINUTE,
        escalate=lambda name, problems: escalated.append((name, problems)),
    )
    eng.run(until=1 * HOUR)
    assert escalated
    assert any("vdt-base" in p for _n, ps in escalated for p in ps)
    assert validator.escalations >= 1
    assert site.name not in validator.stable_sites()
    assert validator.time_to_stable(site.name) == -1.0


def test_autovalidator_immediate_feedback_is_fast(eng, net):
    """The §8 ask is 'immediate feedback': fixes land within minutes of
    a pass, far faster than the human ops loop's hours."""
    site = prepare_site(eng, net)
    site.attach_service("misconfigured", True)
    validator = AutoValidator(eng, [site], interval=30 * MINUTE,
                              fix_time=5 * MINUTE)
    eng.run(until=10 * MINUTE)
    assert "misconfigured" not in site.services
