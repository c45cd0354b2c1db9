"""Unit + property tests for Resource."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Resource


def test_resource_capacity_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Resource(eng, 0)


def test_resource_grants_up_to_capacity():
    eng = Engine()
    res = Resource(eng, 2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    eng.run()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.in_use == 2 and res.available == 0 and res.queue_length == 1


def test_release_wakes_waiter():
    eng = Engine()
    res = Resource(eng, 1)
    order = []

    def user(tag, hold):
        req = res.request()
        yield req
        order.append(("start", tag, eng.now))
        yield eng.timeout(hold)
        res.release(req)
        order.append(("end", tag, eng.now))

    eng.process(user("a", 5.0))
    eng.process(user("b", 3.0))
    eng.run()
    assert order == [
        ("start", "a", 0.0),
        ("end", "a", 5.0),
        ("start", "b", 5.0),
        ("end", "b", 8.0),
    ]


def test_priority_request_jumps_queue():
    eng = Engine()
    res = Resource(eng, 1)
    granted = []

    def holder():
        req = res.request()
        yield req
        yield eng.timeout(10.0)
        res.release(req)

    def claimant(tag, prio, delay):
        yield eng.timeout(delay)
        req = res.request(priority=prio)
        yield req
        granted.append(tag)
        res.release(req)

    eng.process(holder())
    eng.process(claimant("low", 10, 1.0))
    eng.process(claimant("high", 0, 2.0))  # arrives later but higher prio
    eng.run()
    assert granted == ["high", "low"]


def test_release_ungranted_request_rejected():
    eng = Engine()
    res = Resource(eng, 1)
    req1 = res.request()
    req2 = res.request()
    eng.run()
    assert req1.triggered and not req2.triggered
    with pytest.raises(RuntimeError):
        res.release(req2)


def test_cancel_waiting_request():
    eng = Engine()
    res = Resource(eng, 1)
    req1 = res.request()
    req2 = res.request()
    req3 = res.request()
    req2.cancel()
    res.release(req1)
    eng.run()
    assert req3.triggered
    assert res.in_use == 1


def test_cancel_granted_request_rejected():
    eng = Engine()
    res = Resource(eng, 1)
    req = res.request()
    eng.run()
    with pytest.raises(RuntimeError):
        req.cancel()


def test_resize_up_dispatches_waiters():
    eng = Engine()
    res = Resource(eng, 1)
    reqs = [res.request() for _ in range(3)]
    eng.run()
    assert sum(r.triggered for r in reqs) == 1
    res.resize(3)
    eng.run()
    assert all(r.triggered for r in reqs)


def test_resize_down_drains_gracefully():
    eng = Engine()
    res = Resource(eng, 2)
    r1, r2 = res.request(), res.request()
    eng.run()
    res.resize(1)
    assert res.in_use == 2  # over-capacity until a release
    res.release(r1)
    r3 = res.request()
    eng.run()
    assert not r3.triggered  # still at new capacity
    res.release(r2)
    eng.run()
    assert r3.triggered


@settings(max_examples=50, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=8),
    holds=st.lists(st.floats(min_value=0.1, max_value=20.0), min_size=1, max_size=40),
)
def test_resource_never_exceeds_capacity(capacity, holds):
    """Property: in-use slot count never exceeds capacity, and every
    request is eventually granted."""
    eng = Engine()
    res = Resource(eng, capacity)
    peak = [0]
    completed = []

    def user(i, hold):
        req = res.request()
        yield req
        peak[0] = max(peak[0], res.in_use)
        assert res.in_use <= res.capacity
        yield eng.timeout(hold)
        res.release(req)
        completed.append(i)

    for i, hold in enumerate(holds):
        eng.process(user(i, hold))
    eng.run()
    assert peak[0] <= capacity
    assert sorted(completed) == list(range(len(holds)))
