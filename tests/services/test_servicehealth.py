"""The ServiceHealthAgent publishes lifecycle and counters as metrics."""

import pytest

from repro.monitoring import ServiceHealthAgent
from repro.sim.units import HOUR
from tests.conftest import make_site, wire_site


def make_monitored_site(eng, net, name="SiteA"):
    site = wire_site(eng, make_site(eng, net, name))
    agent = ServiceHealthAgent(eng, [site], interval=1 * HOUR)
    return site, agent


def latest_at(store, name, site):
    """The newest sample of ``name`` tagged ``site=<site>``, or None."""
    rows = [s for s in store.query(name) if ("site", site) in s.tags]
    return rows[-1] if rows else None


def test_publishes_up_and_counter_series(eng, net):
    site, agent = make_monitored_site(eng, net)
    eng.run(until=2 * HOUR)
    store = agent.store
    up = latest_at(store, "service.gatekeeper.up", "SiteA")
    assert up is not None and up.value == 1.0
    assert ("role", "gatekeeper") in up.tags
    accepted = latest_at(store, "service.gatekeeper.submissions_accepted", "SiteA")
    assert accepted is not None and accepted.value == 0.0
    ftp_up = latest_at(store, "service.gridftp.up", "SiteA")
    assert ftp_up is not None and ftp_up.value == 1.0


def test_up_series_tracks_outages(eng, net):
    site, agent = make_monitored_site(eng, net)
    eng.run(until=1.5 * HOUR)
    site.services["gatekeeper"].fail("crash")
    eng.run(until=2.5 * HOUR)
    site.services["gatekeeper"].restore()
    eng.run(until=3.5 * HOUR)
    values = [
        s.value
        for s in agent.store.query("service.gatekeeper.up")
        if ("site", "SiteA") in s.tags
    ]
    assert values == [1.0, 0.0, 1.0]


def test_availability_series_reflects_ledger(eng, net):
    site, agent = make_monitored_site(eng, net)
    site.services["gridftp"].fail("down from t=0")
    eng.run(until=1 * HOUR)
    sample = latest_at(agent.store, "service.gridftp.availability", "SiteA")
    assert sample is not None
    assert sample.value == pytest.approx(0.0)


def test_extra_services_published_under_display_site(eng, net):
    from repro.middleware.rls import ReplicaLocationIndex

    site = wire_site(eng, make_site(eng, net, "SiteA"))
    rls = ReplicaLocationIndex(eng)
    agent = ServiceHealthAgent(
        eng, [site], interval=1 * HOUR, extra_services={"igoc-rls": rls}
    )
    eng.run(until=1 * HOUR)
    sample = latest_at(agent.store, "service.rls.up", "igoc-rls")
    assert sample is not None and sample.value == 1.0
