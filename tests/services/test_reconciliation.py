"""Injected outage schedules reconcile exactly with the downtime ledgers.

The satellite check for the service substrate: every outage the
injector creates must land in some service's ledger with the profile's
repair time, no more and no less — the accounting is exact, not
probe-sampled.
"""

import pytest

from repro.failures import FailureInjector, FailureProfile
from repro.fabric import Network
from repro.sim import DAY, Engine, HOUR, RngRegistry
from tests.conftest import make_site, wire_site

REPAIR = 4 * HOUR


def service_only_profile(**overrides):
    defaults = dict(
        service_failure_interval=2 * DAY,
        batch_crash_weight=0.0,      # victims are gridftp/gatekeeper only
        service_repair_time=REPAIR,
        network_interruption_interval=None,
        node_mtbf=None,
        nightly_rollover={},
    )
    defaults.update(overrides)
    return FailureProfile(**defaults)


def test_injected_service_outages_reconcile_with_ledgers(eng, net, rng):
    site = wire_site(eng, make_site(eng, net, "SiteA"))
    injector = FailureInjector(eng, [site], rng, service_only_profile())
    horizon = 60 * DAY
    eng.run(until=horizon)

    services = [site.services["gatekeeper"], site.services["gridftp"]]
    outages = [o for svc in services for o in svc.ledger.outages()]
    assert injector.injected["service"] > 0
    # Every injection produced exactly one ledger outage.
    assert len(outages) == injector.injected["service"]
    for outage in outages:
        if outage.closed:
            assert outage.end - outage.start == pytest.approx(REPAIR)
        else:  # run ended mid-outage: clamped, shorter than a repair
            assert horizon - outage.start < REPAIR
    # Total ledger downtime == closed outages at full repair time plus
    # the clamped open remainder.
    expected = sum(o.duration(horizon) for o in outages)
    measured = sum(svc.ledger.downtime(0.0, horizon) for svc in services)
    assert measured == pytest.approx(expected)


def test_batch_crashes_land_in_gatekeeper_ledger(eng, net, rng):
    site = wire_site(eng, make_site(eng, net, "SiteA"))
    profile = service_only_profile(batch_crash_weight=1e9)  # always batch
    injector = FailureInjector(eng, [site], rng, profile)
    eng.run(until=30 * DAY)
    gatekeeper = site.services["gatekeeper"]
    assert injector.injected["service"] > 0
    assert len(gatekeeper.ledger) == injector.injected["service"]
    assert all(
        o.cause == "injected batch system crash"
        for o in gatekeeper.ledger.outages()
    )


def test_network_class_does_not_perturb_service_schedule():
    """Enabling network interruptions must not shift the service-failure
    RNG streams: each class draws from its own stream, so existing
    schedules stay reproducible."""

    def outage_starts(enable_network):
        engine = Engine()
        network = Network(engine)
        registry = RngRegistry(42)
        site = wire_site(engine, make_site(engine, network, "SiteA"))
        profile = service_only_profile(
            network_interruption_interval=2 * DAY if enable_network else None,
        )
        injector = FailureInjector(engine, [site], registry, profile)
        engine.run(until=30 * DAY)
        starts = sorted(
            o.start
            for role in ("gatekeeper", "gridftp")
            for o in site.services[role].ledger.outages()
        )
        return starts, injector.injected["network"]

    without_network, quiet = outage_starts(enable_network=False)
    with_network, interruptions = outage_starts(enable_network=True)
    assert quiet == 0 and interruptions > 0  # the network class fired
    assert without_network  # the service schedule actually fired
    assert without_network == with_network
