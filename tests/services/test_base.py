"""GridService liveness and the downtime ledger it is kept in."""

import pytest

from repro.errors import ServiceUnavailableError
from repro.services import DowntimeLedger, GridService
from repro.sim import Engine


class Thing(GridService):
    role = "thing"
    _counter_names = ("widgets",)

    def __init__(self, engine=None):
        super().__init__(owner="TestSite", engine=engine)
        self.widgets = 0


def test_starts_up_and_available(eng):
    svc = Thing(eng)
    assert svc.health()["state"] == "up"
    assert svc.available
    assert len(svc.ledger) == 0


def test_fail_opens_outage_and_restore_closes_it(eng):
    svc = Thing(eng)
    eng.run(until=100.0)
    svc.fail("disk died")
    assert not svc.available
    assert svc.ledger.current is not None
    assert svc.ledger.current.cause == "disk died"
    eng.run(until=250.0)
    outage = svc.restore(note="fixed")
    assert svc.available
    assert outage is not None
    assert outage.start == 100.0
    assert outage.end == 250.0
    assert outage.duration() == 150.0


def test_fail_is_idempotent(eng):
    svc = Thing(eng)
    first = svc.fail("first cause")
    second = svc.fail("second cause")
    assert first is second
    assert len(svc.ledger) == 1
    assert svc.ledger.current.cause == "first cause"


def test_restore_when_up_is_a_noop(eng):
    svc = Thing(eng)
    assert svc.restore() is None
    assert len(svc.ledger) == 0


def test_available_setter_routes_through_ledger(eng):
    svc = Thing(eng)
    eng.run(until=10.0)
    svc.available = False
    assert not svc.available
    assert len(svc.ledger) == 1
    eng.run(until=30.0)
    svc.available = True
    assert svc.available
    outage = svc.ledger.outages()[0]
    assert outage.duration() == 20.0


def test_require_available_raises_uniform_error(eng):
    svc = Thing(eng)
    svc.require_available("anything")  # up: no raise
    svc.fail("gone")
    with pytest.raises(ServiceUnavailableError) as exc:
        svc.require_available("the thing")
    message = str(exc.value)
    assert "thing" in message
    assert "TestSite" in message
    assert "the thing" in message


def test_health_snapshot(eng):
    svc = Thing(eng)
    eng.run(until=50.0)
    svc.fail("kaput")
    eng.run(until=80.0)
    health = svc.health()
    assert health["role"] == "thing"
    assert health["owner"] == "TestSite"
    assert health["state"] == "down"
    assert health["available"] is False
    assert health["since"] == 50.0
    assert health["cause"] == "kaput"
    assert health["outages"] == 1
    assert health["downtime"] == 30.0  # open outage clamped to now
    eng.run(until=90.0)
    svc.restore()
    health = svc.health()
    assert (health["state"], health["available"]) == ("up", True)
    assert (health["since"], health["cause"]) == (90.0, "")


def test_health_since_is_read_from_the_ledger(eng):
    """``since`` is the open outage's start, else the last outage's
    end, else construction; restoring an up service leaves it alone."""
    eng.run(until=5.0)
    svc = Thing(eng)
    eng.run(until=20.0)
    svc.restore()
    assert svc.health()["since"] == 5.0
    svc.fail("a")
    eng.run(until=30.0)
    svc.fail("again")
    assert svc.health()["since"] == 20.0
    svc.restore()
    eng.run(until=45.0)
    svc.restore()
    assert svc.health()["since"] == 30.0


def test_observers_see_actual_flips_only(eng):
    svc = Thing(eng)
    seen = []
    svc.on_transition.append(lambda service: seen.append(service.available))
    svc.restore()
    svc.fail("a")
    svc.fail("b")
    svc.restore()
    svc.restore()
    svc.available = False
    assert seen == [False, True, False]


def test_counters_read_declared_names(eng):
    svc = Thing(eng)
    svc.widgets = 7
    assert svc.counters() == {"widgets": 7.0}


def test_engineless_service_runs_on_zero_clock_until_adopted():
    svc = Thing()
    assert svc.now == 0.0
    engine = Engine()
    engine.run(until=5.0)
    svc.adopt_engine(engine)
    assert svc.now == 5.0
    # Adoption is first-wins.
    svc.adopt_engine(Engine())
    assert svc.engine is engine


def test_availability_over_window(eng):
    svc = Thing(eng)
    eng.run(until=100.0)
    svc.fail()
    eng.run(until=150.0)
    svc.restore()
    eng.run(until=200.0)
    assert svc.availability() == pytest.approx(0.75)
    assert svc.availability(since=100.0, until=150.0) == pytest.approx(0.0)
    assert svc.availability(since=150.0, until=200.0) == pytest.approx(1.0)


def test_ledger_statistics():
    ledger = DowntimeLedger()
    ledger.open(10.0, "a")
    ledger.close(20.0)
    ledger.open(50.0, "b")
    ledger.close(80.0)
    assert ledger.downtime(0.0, 100.0) == 40.0
    assert ledger.availability(0.0, 100.0) == pytest.approx(0.6)
    assert ledger.mttr() == pytest.approx(20.0)
    assert ledger.mtbf(0.0, 100.0) == pytest.approx(30.0)
    assert DowntimeLedger().mtbf(0.0, 100.0) == float("inf")


def test_ledger_open_outage_clamps_to_horizon():
    ledger = DowntimeLedger()
    ledger.open(90.0, "open-ended")
    assert ledger.downtime(0.0, 100.0) == pytest.approx(10.0)
    assert ledger.availability(0.0, 100.0) == pytest.approx(0.9)
    # mttr without a horizon ignores the open outage...
    assert ledger.mttr() == 0.0
    # ...but counts it clamped when one is given.
    assert ledger.mttr(until=100.0) == pytest.approx(10.0)
