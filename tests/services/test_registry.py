"""Registry queries: the one site probe and the availability report."""

import pytest

from repro.middleware.mds import GRIS
from repro.middleware.vdt import REQUIRED_PACKAGES
from repro.monitoring.sitecatalog import probe_site
from repro.ops.autovalidate import AutoValidator
from repro.ops.igoc import IGOC, OperationsTeam
from repro.services import (
    CORE_ROLES,
    availability_rows,
    down_roles,
    grid_services,
    render_availability,
    total_downtime,
)
from repro.sim import HOUR, RngRegistry
from tests.conftest import make_site, wire_site


def test_available_is_the_ledger_open_outage(eng, net):
    """The flag, the health snapshot and the ledger give one answer
    through fail, fail again, restore and restore again, for every role
    of a wired site."""
    site = wire_site(eng, make_site(eng, net, "SiteA"))
    services = grid_services(site)
    assert services
    transitions = [
        (lambda s: None, True),
        (lambda s: s.fail("crashed"), False),
        (lambda s: s.fail("again"), False),
        (lambda s: s.restore(), True),
        (lambda s: s.restore(), True),
        (lambda s: setattr(s, "available", False), False),
        (lambda s: setattr(s, "available", True), True),
    ]
    for step, (transition, expected_up) in enumerate(transitions):
        eng.run(until=10.0 * (step + 1))
        for role, service in services.items():
            transition(service)
            assert service.available is expected_up, role
            assert service.health()["available"] is expected_up, role
            assert (service.ledger.current is None) is expected_up, role


def _fill(fraction):
    def fill(site):
        site.storage.store("/fill", site.storage.capacity * fraction)
    return fill


def _fail(role):
    return lambda site: site.services[role].fail("case")


def _drop_package(site):
    del site.installed_packages["vdt-base"]


def _misconfigure(site):
    site.misconfigured = True


def _drop_gris(site):
    site.services.pop("gris")


MISCONFIGURED = "site misconfigured (bad paths/environment)"

#: case -> (site changes, probe_site problems, OperationsTeam._problems,
#: the first AutoValidator report as (time, problems_found, auto_fixed,
#: escalated)).  Each checker keeps its own wording: status pages,
#: ticket summaries and validator reports show these texts.
CASES = {
    "healthy": ([], (), (), (0.0, (), (), ())),
    "gatekeeper down": (
        [_fail("gatekeeper")],
        ("gatekeeper unreachable",),
        ("gatekeeper down",),
        (300.0, ("gatekeeper not responding",),
         ("gatekeeper not responding",), ())),
    "gridftp down": (
        [_fail("gridftp")],
        ("gridftp unreachable",),
        ("gridftp down",),
        (300.0, ("gridftp not responding",),
         ("gridftp not responding",), ())),
    "gris down": (
        [_fail("gris")],
        ("gris unreachable",),
        ("gris down",),
        (300.0, ("gris not responding",), ("gris not responding",), ())),
    "gris missing": (
        [_drop_gris],
        ("gris unreachable",),
        (),
        (0.0, ("missing service gris",), (), ("missing service gris",))),
    "misconfigured": (
        [_misconfigure],
        ("configuration check failed",),
        ("misconfigured",),
        (300.0, (MISCONFIGURED,), (MISCONFIGURED,), ())),
    "storage full": (
        [_fill(1.0)],
        ("storage element full",),
        ("disk nearly full",),
        (0.0, (), (), ())),
    "storage 96% full": (
        [_fill(0.96)], (), ("disk nearly full",), (0.0, (), (), ())),
    "package missing": (
        [_drop_package],
        (),
        (),
        (0.0, ("missing package vdt-base",), (),
         ("missing package vdt-base",))),
    "everything": (
        [_drop_package, _misconfigure, _drop_gris, _fail("gridftp"),
         _fail("gatekeeper"), _fill(1.0)],
        ("gatekeeper unreachable", "gridftp unreachable", "gris unreachable",
         "configuration check failed", "storage element full"),
        ("gatekeeper down", "gridftp down", "misconfigured",
         "disk nearly full"),
        (900.0,
         ("missing package vdt-base", MISCONFIGURED, "missing service gris",
          "gatekeeper not responding", "gridftp not responding"),
         (MISCONFIGURED, "gatekeeper not responding",
          "gridftp not responding"),
         ("missing package vdt-base", "missing service gris"))),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_checker_reads_the_same_site_facts(eng, net, case):
    changes, probed, ops, validated = CASES[case]
    site = wire_site(eng, make_site(eng, net, "SiteA"))
    site.attach_service("gris", GRIS(eng, site))
    site.installed_packages.update(dict.fromkeys(REQUIRED_PACKAGES, "1.0"))
    for change in changes:
        change(site)

    assert probe_site(eng.now, site).problems == probed
    team = OperationsTeam(eng, IGOC(eng), [site], RngRegistry(1))
    assert tuple(team._problems(site)) == ops
    validator = AutoValidator(eng, [site], interval=10 * HOUR)
    eng.run(until=HOUR)
    report = validator.reports[0]
    assert (report.time, report.problems_found, report.auto_fixed,
            report.escalated) == validated
    # What the validator fixed stays fixed.
    assert not site.misconfigured
    assert down_roles(site) == ()


def test_down_roles_lists_attached_core_roles_in_order(eng, net):
    site = wire_site(eng, make_site(eng, net, "SiteA"))
    assert "gris" not in site.services
    assert down_roles(site) == ()
    for role in reversed(CORE_ROLES[:2]):
        site.services[role].fail("case")
    assert down_roles(site) == ("gatekeeper", "gridftp")


def test_grid_services_keyed_by_role(eng, net):
    site = wire_site(eng, make_site(eng, net, "SiteA"))
    services = grid_services(site)
    assert "gatekeeper" in services
    assert "gridftp" in services
    # Non-GridService attachments (authenticator, lrm) are excluded.
    assert "authenticator" not in services


def test_availability_rows_reflect_ledgers(eng, net):
    site = wire_site(eng, make_site(eng, net, "SiteA"))
    gridftp = site.services["gridftp"]
    eng.run(until=100.0)
    gridftp.fail("link down")
    eng.run(until=150.0)
    gridftp.restore()
    eng.run(until=200.0)
    rows = availability_rows([site], since=0.0, until=200.0)
    by_role = {r.role: r for r in rows}
    assert by_role["gridftp"].availability == pytest.approx(0.75)
    assert by_role["gridftp"].downtime == pytest.approx(50.0)
    assert by_role["gridftp"].outages == 1
    assert by_role["gridftp"].mttr == pytest.approx(50.0)
    assert by_role["gatekeeper"].availability == pytest.approx(1.0)
    assert by_role["gatekeeper"].outages == 0
    assert by_role["gatekeeper"].mtbf == float("inf")


def test_availability_rows_until_defaults_to_now(eng, net):
    site = wire_site(eng, make_site(eng, net, "SiteA"))
    site.services["gridftp"].fail("open-ended")
    eng.run(until=80.0)
    rows = availability_rows([site])
    by_role = {r.role: r for r in rows}
    assert by_role["gridftp"].downtime == pytest.approx(80.0)


def test_extra_services_appear_with_display_name(eng, net):
    from repro.middleware.rls import ReplicaLocationIndex

    site = wire_site(eng, make_site(eng, net, "SiteA"))
    rls = ReplicaLocationIndex(eng)
    rows = availability_rows([site], until=10.0, extra_services={"igoc-rls": rls})
    assert any(r.site == "igoc-rls" and r.role == "rls" for r in rows)


def test_render_and_total(eng, net):
    site = wire_site(eng, make_site(eng, net, "SiteA"))
    site.services["gatekeeper"].fail()
    eng.run(until=3600.0)
    site.services["gatekeeper"].restore()
    rows = availability_rows([site], until=7200.0)
    text = render_availability(rows)
    assert "gatekeeper" in text
    assert "SiteA" in text
    assert total_downtime(rows) == pytest.approx(3600.0)
