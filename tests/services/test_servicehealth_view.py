"""The derive-on-read service-health view answers what the hourly sweep stored.

``SweepingServiceHealthAgent`` below is a frozen copy of the agent the
view replaced: a :class:`PeriodicProducer` that copied every service's
liveness, ledger availability and counters into a :class:`MetricStore`
every ``interval``.  A hypothesis property runs it beside the view on
random fail/restore schedules and, at every sweep instant,
asserts bit-identical ``query``, ``window_stats`` and ``latest``
answers for the ``up``/``availability`` series, the same
``names()`` and per-series label sets (the exposition's lines), and
identical alert transitions.
"""

from typing import Dict, List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fabric import Network
from repro.middleware.gsi import CertificateAuthority
from repro.middleware.rls import ReplicaLocationIndex
from repro.middleware.voms import VOMSServer
from repro.monitoring import ServiceHealthAgent
from repro.monitoring.core import (
    MetricSample,
    MetricStore,
    PeriodicProducer,
    make_tags,
)
from repro.ops.alerts import AlertEngine, AlertRule, default_rules
from repro.services import GridService, grid_services
from repro.sim import Engine
from repro.sim.units import HOUR
from tests.conftest import make_site, wire_site


class SweepingServiceHealthAgent:
    """The hourly sampler the view replaced (the reference)."""

    def __init__(self, engine, sites, interval=1 * HOUR,
                 extra_services: Optional[Dict[str, GridService]] = None):
        self.engine = engine
        self.sites = list(sites)
        self.extra_services = dict(extra_services or {})
        self.store = MetricStore()
        self.producer = PeriodicProducer(
            engine, "service-health", interval, self.collect_once, [self.store]
        )

    def _samples_for(self, now, site_name, service) -> List[MetricSample]:
        tags = make_tags(site=site_name, role=service.role)
        prefix = f"service.{service.role}"
        samples = [
            MetricSample(now, f"{prefix}.up",
                         1.0 if service.available else 0.0, tags),
            MetricSample(now, f"{prefix}.availability",
                         service.availability(), tags),
        ]
        samples.extend(
            MetricSample(now, f"{prefix}.{name}", value, tags)
            for name, value in sorted(service.counters().items())
        )
        return samples

    def collect_once(self) -> List[MetricSample]:
        now = self.engine.now
        samples: List[MetricSample] = []
        for site in self.sites:
            for _role, service in sorted(grid_services(site).items()):
                samples.extend(self._samples_for(now, site.name, service))
        for name, service in sorted(self.extra_services.items()):
            samples.extend(self._samples_for(now, name, service))
        return samples


#: Rules over both ledger series: the shipped set plus an availability
#: floor, a latest-value rule and a short window.
RULES = default_rules() + [
    AlertRule(name="rls-availability", metric="service.rls.availability",
              aggregate="min", op="<", threshold=0.97, window=3 * HOUR),
    AlertRule(name="gridftp-latest", metric="service.gridftp.up",
              aggregate="latest", op="<", threshold=1.0, window=2 * HOUR),
    AlertRule(name="voms-burn", metric="service.voms.up", kind="burn_rate",
              slo_target=0.9, threshold=1.5, window=4 * HOUR),
]

_action = st.tuples(
    # Quarter-hour steps from before the view exists onwards: some land
    # exactly on sweep instants, some at t=0.
    st.integers(min_value=0, max_value=48),
    st.integers(min_value=0, max_value=20),
    st.sampled_from(["fail", "restore"]),
)


def _at(samples: List[MetricSample], site: str) -> List[MetricSample]:
    """The samples tagged ``site=<site>``."""
    return [s for s in samples if ("site", site) in s.tags]


def _stats_repr(stats: Dict[str, float]) -> str:
    # repr keeps every bit and treats NaN as equal to NaN.
    return repr(sorted(stats.items()))


@settings(max_examples=200, deadline=None)
@given(
    start_quarters=st.sampled_from([0, 1, 3, 4]),
    interval=st.sampled_from([HOUR, 1800.0, 2340.0]),
    actions=st.lists(_action, max_size=25),
    sweeps=st.integers(min_value=1, max_value=14),
)
# Services are indexed SiteA gatekeeper, gridftp, SiteB gatekeeper,
# gridftp, then igoc-rls, voms-usatlas.
# A t=0 failure repaired between sweeps, and one still open at the end.
@example(start_quarters=0, interval=HOUR,
         actions=[(0, 0, "fail"), (6, 0, "restore"), (0, 5, "fail")], sweeps=4)
# A repair and a failure exactly on sweep instants of a late-started
# grid, and a restore of a service that is up.
@example(start_quarters=3, interval=HOUR,
         actions=[(1, 3, "fail"), (7, 3, "restore"), (11, 4, "fail"),
                  (11, 1, "restore"), (15, 1, "fail")], sweeps=5)
# Zero-length outages and a second fail of a service that is down.
@example(start_quarters=1, interval=1800.0,
         actions=[(5, 2, "fail"), (5, 2, "restore"), (6, 2, "fail"),
                  (6, 2, "fail"), (9, 2, "restore")], sweeps=6)
def test_view_answers_what_the_sweep_stored(start_quarters, interval, actions,
                                            sweeps):
    eng = Engine()
    net = Network(eng)
    sites = [wire_site(eng, make_site(eng, net, name)) for name in ("SiteA", "SiteB")]
    extra = {"igoc-rls": ReplicaLocationIndex(eng),
             "voms-usatlas": VOMSServer(eng, "usatlas",
                                         CertificateAuthority("doegrids", eng))}
    services = [svc for site in sites for _k, svc in sorted(grid_services(site).items())]
    services += [extra[name] for name in sorted(extra)]

    # One process per action, all created before the agents, so an
    # action at a sweep instant runs before that sweep.
    def act(at, service, kind):
        yield eng.timeout(at)
        getattr(service, kind)("scheduled")

    for quarter, which, kind in actions:
        eng.process(act(quarter * 900.0, services[which % len(services)], kind))

    eng.run(until=start_quarters * 900.0)
    old = SweepingServiceHealthAgent(eng, sites, interval=interval,
                                     extra_services=extra)
    new = ServiceHealthAgent(eng, sites, interval=interval, extra_services=extra)
    old_alerts = AlertEngine(RULES, {"service-health": old.store})
    new_alerts = AlertEngine(RULES, {"service-health": new.store})

    names = [f"service.{role}.{field}"
             for role in ("gatekeeper", "gridftp", "lrm", "rls", "voms")
             for field in ("up", "availability")]
    instant = eng.now
    eng.run(until=instant + interval / 2)
    for name in new.store.published_names():
        assert new.store.latest_per_series(name) == {}
    assert new.store.names() == old.store.names() == []
    for _ in range(sweeps):
        instant = instant + interval
        eng.run(until=instant)
        now = eng.now
        for name in names:
            assert new.store.query(name) == old.store.query(name), name
            for since in (now - 3 * interval, now - 2.5 * HOUR, now):
                assert (new.store.query(name, since, now)
                        == old.store.query(name, since, now))
                assert (_stats_repr(new.store.window_stats(name, since, now))
                        == _stats_repr(old.store.window_stats(name, since, now)))
            assert new.store.latest(name) == old.store.latest(name)
            for site in ("SiteA", "SiteB", "igoc-rls", "voms-usatlas"):
                assert (_at(new.store.query(name), site)
                        == _at(old.store.query(name), site))
        # The exposition's line set: one line per (name, tags) the
        # sampler ever published, counters included.
        assert new.store.names() == old.store.names()
        for name in old.store.names():
            assert (sorted(new.store.latest_per_series(name))
                    == sorted(old.store.latest_per_series(name))), name
        assert new_alerts.evaluate(now) == old_alerts.evaluate(now)
    assert new_alerts.history == old_alerts.history
    # The view schedules nothing: only the reference's sweeps ran.
    assert old.producer.collections == sweeps


def test_view_is_read_only_and_names_need_no_run(eng, net):
    site = wire_site(eng, make_site(eng, net, "SiteA"))
    agent = ServiceHealthAgent(eng, [site])
    store = agent.store
    assert isinstance(store, MetricStore)
    published = store.published_names()
    assert "service.gatekeeper.up" in published
    assert "service.gridftp.bytes_sent" in published
    # Before the first sweep instant nothing is published, as before.
    eng.run(until=0.5 * HOUR)
    assert store.names() == []
    for name in published:
        assert store.latest(name) is None
        assert store.latest_per_series(name) == {}
        assert store.query(name) == []
    eng.run(until=HOUR)
    assert store.names() == published
    sent = _at(store.query("service.gridftp.bytes_sent"), "SiteA")[-1]
    assert sent is not None and sent.time == HOUR and sent.value == 0.0
    assert len(store) == 0
    with pytest.raises(TypeError):
        store.append(sent)
    with pytest.raises(TypeError):
        store.extend([sent])


def test_counters_are_live_without_history(eng, net):
    site = wire_site(eng, make_site(eng, net, "SiteA"))
    agent = ServiceHealthAgent(eng, [site])
    gatekeeper = site.services["gatekeeper"]
    eng.run(until=2.5 * HOUR)
    gatekeeper.submissions_accepted = 7
    sample = agent.store.latest("service.gatekeeper.submissions_accepted")
    assert sample.time == 2.5 * HOUR and sample.value == 7.0
    assert len(agent.store.query("service.gatekeeper.submissions_accepted")) == 1
    assert [s.time for s in agent.store.query("service.gatekeeper.up")] == [
        HOUR, 2 * HOUR]



def test_latest_reads_the_newest_instant_across_open_and_closing_outages(eng, net):
    """``latest_values`` and ``latest_per_series`` read ``up`` and
    ``availability`` at the newest grid instant, and a transition at a
    grid instant counts as before the read."""
    site = wire_site(eng, make_site(eng, net, "SiteA"))
    store = ServiceHealthAgent(eng, [site]).store
    gatekeeper, gridftp = site.services["gatekeeper"], site.services["gridftp"]
    gk = make_tags(site="SiteA", role="gatekeeper")
    ftp = make_tags(site="SiteA", role="gridftp")

    def latest(field, tags):
        name = f"service.{tags[0][1]}.{field}"
        values = store.latest_values(name)
        per = store.latest_per_series(name)
        assert per == {t: MetricSample(per[t].time, name, v, t)
                       for t, v in values.items()}
        return values[tags], per[tags].time

    eng.run(until=1.5 * HOUR)
    gatekeeper.fail("crash")
    gridftp.fail("crash")
    eng.run(until=2.5 * HOUR)
    # Both outages are open at the newest instant, 2h: down for 0.5 of 2h.
    for tags in (gk, ftp):
        assert latest("up", tags) == (0.0, 2 * HOUR)
        assert latest("availability", tags) == (0.75, 2 * HOUR)
    # Counters are read now, not at the instant.
    assert store.latest_values("service.gatekeeper.submissions_accepted") == {
        gk: 0.0}
    assert store.latest_per_series(
        "service.gatekeeper.submissions_accepted")[gk].time == 2.5 * HOUR

    # The gridftp outage closes exactly on the 3h instant; the
    # gatekeeper's stays open through it.
    eng.run(until=3 * HOUR)
    gridftp.restore()
    assert latest("up", ftp) == (1.0, 3 * HOUR)
    assert latest("availability", ftp) == (0.5, 3 * HOUR)
    assert latest("up", gk) == (0.0, 3 * HOUR)
    assert latest("availability", gk) == (0.5, 3 * HOUR)
    # Between instants the ledger series still read the last one.
    eng.run(until=3.5 * HOUR)
    assert latest("up", ftp) == (1.0, 3 * HOUR)
    assert latest("availability", gk) == (0.5, 3 * HOUR)


def test_roster_is_rebuilt_on_attach_not_on_dispatch(eng, net):
    site = wire_site(eng, make_site(eng, net, "SiteA"))
    agent = ServiceHealthAgent(eng, [site])
    store = agent.store

    def tick():
        while True:
            yield eng.timeout(600.0)

    eng.process(tick())
    eng.run(until=HOUR)
    roster = store._services()
    dispatched = eng.dispatched
    eng.run(until=2 * HOUR)
    assert eng.dispatched > dispatched
    assert store._services() is roster
    # A non-service attachment moves the count; the rebuilt roster is
    # the same, and a removal of it changes nothing.
    site.attach_service("note", True)
    assert store._services() == roster
    site.services.pop("note")
    assert "service.rls.up" not in store.names()
    site.attach_service("rls", ReplicaLocationIndex(eng))
    assert "service.rls.up" in store.names()
    assert _at(store.query("service.rls.up"), "SiteA")[-1].value == 1.0
