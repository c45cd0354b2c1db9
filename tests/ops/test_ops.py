"""Tests for the iGOC, tickets, operations team, policies, milestones."""

import pytest

from repro.monitoring.acdc import ACDCDatabase, JobRecord
from repro.ops import (
    IGOC,
    MilestonesTracker,
    OperationsTeam,
    PAPER_TARGETS,
    SitePolicy,
    TroubleTicketSystem,
    audit_policy,
    policy_for_site,
)
from repro.sim import DAY, GB, HOUR

from ..conftest import make_site, wire_site


# --- tickets -------------------------------------------------------------

def test_ticket_lifecycle(eng):
    tts = TroubleTicketSystem(eng)
    ticket = tts.open_ticket("BNL_ATLAS", "gatekeeper down", severity="critical")
    assert ticket.open
    tts.assign(ticket.ticket_id, "bnl-admin")
    tts.log_effort(ticket.ticket_id, 2.0)
    eng.run(until=4 * HOUR)
    tts.resolve(ticket.ticket_id)
    assert not ticket.open
    assert ticket.time_to_resolve == pytest.approx(4 * HOUR)
    assert tts.mean_time_to_resolve() == pytest.approx(4 * HOUR)
    with pytest.raises(ValueError):
        tts.assign(ticket.ticket_id, "someone")


def test_ticket_effort_validation(eng):
    tts = TroubleTicketSystem(eng)
    t = tts.open_ticket("S", "x")
    with pytest.raises(ValueError):
        tts.log_effort(t.ticket_id, -1.0)


def test_open_tickets_filter_and_dedup(eng):
    tts = TroubleTicketSystem(eng)
    t1 = tts.open_ticket("A", "first")
    tts.open_ticket("B", "other")
    eng.run(until=1.0)
    tts.open_ticket("A", "second")
    assert len(tts.open_tickets()) == 3
    assert len(tts.open_tickets("A")) == 2
    assert tts.open_ticket_for_site("A") is t1  # oldest first


def test_support_fte(eng):
    tts = TroubleTicketSystem(eng)
    t = tts.open_ticket("A", "x")
    tts.log_effort(t.ticket_id, 80.0)  # 80 h over one week = 2 FTE
    assert tts.support_fte(0.0, 7 * DAY) == pytest.approx(2.0)
    assert tts.support_fte(5.0, 5.0) == 0.0


def test_responsibility_routing(eng):
    """§5.4/§8: support factorisation at the service level."""
    from repro.ops.tickets import responsible_party
    assert responsible_party("StorageFullError") == "site-admin"
    assert responsible_party("ServiceFailureError") == "site-admin"
    assert responsible_party("ApplicationError") == "vo-support"
    assert responsible_party("ReplicaNotFoundError") == "igoc"
    assert responsible_party("SomethingNovel") == "igoc"  # triage default
    tts = TroubleTicketSystem(eng)
    routed = tts.open_ticket("BNL_ATLAS", "disk filled",
                             failure_type="StorageFullError")
    assert routed.state == "assigned"
    assert routed.assignee == "site-admin"
    unrouted = tts.open_ticket("BNL_ATLAS", "unknown weirdness")
    assert unrouted.state == "open" and unrouted.assignee == ""


# --- operations team ------------------------------------------------------

def test_ops_team_repairs_dead_service(eng, net, rng):
    site = make_site(eng, net, "SiteA")
    wire_site(eng, site, [])
    igoc = IGOC(eng)
    OperationsTeam(eng, igoc, [site], rng, check_interval=1 * HOUR,
                   mean_response_time=2 * HOUR)
    site.service("gridftp").available = False
    eng.run(until=2 * DAY)
    assert site.service("gridftp").available
    assert len(igoc.tickets) >= 1
    resolved = [t for t in igoc.tickets._tickets.values() if not t.open]
    assert resolved and "gridftp down" in resolved[0].description


def test_ops_team_fixes_misconfiguration_and_purges_disk(eng, net, rng):
    site = make_site(eng, net, "SiteA", disk=10 * GB)
    wire_site(eng, site, [])
    site.attach_service("misconfigured", True)
    site.storage.store("/residue", 9.8 * GB)
    igoc = IGOC(eng)
    OperationsTeam(eng, igoc, [site], rng, check_interval=1 * HOUR,
                   mean_response_time=1 * HOUR)
    eng.run(until=2 * DAY)
    assert "misconfigured" not in site.services
    assert site.storage.used < 9.8 * GB


def test_ops_team_no_duplicate_tickets_while_repairing(eng, net, rng):
    site = make_site(eng, net, "SiteA")
    wire_site(eng, site, [])
    igoc = IGOC(eng)
    OperationsTeam(eng, igoc, [site], rng, check_interval=1 * HOUR,
                   mean_response_time=100 * HOUR)  # repairs take ages
    site.service("gatekeeper").available = False
    eng.run(until=10 * HOUR)
    # Many check intervals elapsed but only one ticket is open.
    assert len(igoc.tickets.open_tickets("SiteA")) == 1


def test_igoc_service_registry(eng):
    igoc = IGOC(eng)
    igoc.host("pacman-cache", object())
    igoc.host("top-giis", object())
    assert igoc.services() == ["pacman-cache", "top-giis"]
    assert igoc.service("top-giis") is not None
    with pytest.raises(KeyError):
        igoc.service("nope")


# --- policy ---------------------------------------------------------------

def test_site_policy_admits(eng, net):
    site = make_site(eng, net, "SiteA", max_walltime=24 * HOUR)
    policy = policy_for_site(site, ["usatlas", "uscms"])
    assert policy.admits("usatlas", 10 * HOUR)
    assert not policy.admits("usatlas", 48 * HOUR)
    assert not policy.admits("ligo", 1 * HOUR)


def _record(site="S", vo="usatlas", runtime=HOUR, job_id=1):
    return JobRecord(
        job_id=job_id, name="j", vo=vo, user="u", site=site,
        submitted_at=0, started_at=0, finished_at=runtime,
        runtime=runtime, queue_time=0, succeeded=True,
        failure_category="", failure_type="", bytes_in=0, bytes_out=0,
    )


def test_audit_policy_detects_violations():
    db = ACDCDatabase()
    db.add(_record(vo="usatlas", runtime=10 * HOUR, job_id=1))
    db.add(_record(vo="ligo", runtime=1 * HOUR, job_id=2))      # VO not allowed
    db.add(_record(vo="usatlas", runtime=50 * HOUR, job_id=3))  # overrun
    policies = {"S": SitePolicy("S", 24 * HOUR, ("usatlas", "uscms"))}
    violations = audit_policy(db, policies)
    kinds = sorted(v.kind for v in violations)
    assert kinds == ["vo-not-allowed", "walltime-overrun"]
    # Sites without a published policy are skipped.
    db.add(_record(site="Unknown", vo="ligo", job_id=4))
    assert len(audit_policy(db, policies)) == 2


# --- milestones --------------------------------------------------------------

def test_milestones_table():
    tracker = MilestonesTracker()
    tracker.record("cpus", 2148)
    tracker.record("users", 102)
    tracker.record("support_fte", 1.5)
    tracker.record("resource_utilisation", 0.55)
    cpus = tracker.milestone("cpus")
    assert cpus.met and cpus.target == 400 and cpus.paper_actual == 2163
    assert tracker.milestone("support_fte").met       # smaller is better
    assert not tracker.milestone("resource_utilisation").met  # 55 % < 90 %
    assert tracker.met_count() == 3
    table = tracker.render()
    assert "Number of CPUs" in table and "2148" in table


def test_milestones_unknown_key():
    with pytest.raises(KeyError):
        MilestonesTracker().record("nonsense", 1.0)


def test_paper_targets_complete():
    tracker = MilestonesTracker()
    assert set(tracker.DESCRIPTIONS) == set(PAPER_TARGETS)
    assert len(tracker.milestones()) == 9
