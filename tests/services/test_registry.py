"""Registry queries: uniform liveness and the availability report."""

import pytest

from repro.services import (
    availability_rows,
    grid_services,
    render_availability,
    service_is_up,
    total_downtime,
)
from tests.conftest import make_site, wire_site


def test_service_is_up_for_grid_services(eng, net):
    site = wire_site(eng, make_site(eng, net, "SiteA"))
    gatekeeper = site.services["gatekeeper"]
    assert service_is_up(gatekeeper)
    gatekeeper.fail("boom")
    assert not service_is_up(gatekeeper)


def test_service_is_up_matches_health_snapshot(eng, net):
    """Differential: the flag read agrees with the full ``health()``
    snapshot for every role, through UP, DEGRADED, DOWN and back."""
    site = wire_site(eng, make_site(eng, net, "SiteA"))
    services = grid_services(site)
    assert services

    def agree(expected_up):
        for role, service in services.items():
            assert service_is_up(service) is service.health()["available"], role
            assert service_is_up(service) is expected_up, role

    transitions = [
        (lambda s: None, True),
        (lambda s: s.degrade("slow disk"), True),
        (lambda s: s.fail("crashed"), False),
        (lambda s: s.degrade("ignored while down"), False),
        (lambda s: s.restore(), True),
        (lambda s: setattr(s, "available", False), False),
        (lambda s: setattr(s, "available", True), True),
    ]
    for step, (transition, expected_up) in enumerate(transitions):
        eng.run(until=10.0 * (step + 1))
        for service in services.values():
            transition(service)
        agree(expected_up)


def test_service_is_up_duck_types_legacy_objects():
    class Legacy:
        available = False

    class NoFlag:
        pass

    assert not service_is_up(Legacy())
    assert service_is_up(NoFlag())  # defaults to up, same for every role


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
