"""Tests for the monitoring core (samples, store, producers) and RRD."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.core import MetricSample, MetricStore, PeriodicProducer, make_tags
from repro.monitoring.rrd import RoundRobinDatabase
from repro.sim import Engine


def test_make_tags_canonical_order():
    assert make_tags(vo="x", site="a") == (("site", "a"), ("vo", "x"))


def test_store_query_by_name_time_tags():
    store = MetricStore()
    for t in range(5):
        store.append(MetricSample(float(t), "cpu", t * 1.0, make_tags(site="A")))
        store.append(MetricSample(float(t), "cpu", t * 2.0, make_tags(site="B")))
    assert len(store) == 10
    assert store.names() == ["cpu"]
    site_a, site_b = make_tags(site="A"), make_tags(site="B")
    mid = store.query("cpu", since=1.0, until=3.0)
    assert [s.value for s in mid if s.tags == site_a] == [1.0, 2.0, 3.0]
    assert [(s.tags, s.time) for s in mid] == [
        (tags, t) for t in (1.0, 2.0, 3.0) for tags in (site_a, site_b)]
    assert store.latest("cpu") == MetricSample(4.0, "cpu", 8.0, site_b)
    assert store.latest("nope") is None
    assert [s for s in store.query("cpu") if s.tags == make_tags(site="C")] == []


def test_periodic_producer_collects(eng):
    store = MetricStore()
    counter = [0]

    def collect():
        counter[0] += 1
        return [MetricSample(eng.now, "tick", float(counter[0]))]

    producer = PeriodicProducer(eng, "ticker", 10.0, collect, [store])
    eng.run(until=35.0)
    assert producer.collections == 3
    assert [s.value for s in store.query("tick")] == [1.0, 2.0, 3.0]


def test_periodic_producer_survives_exceptions(eng):
    store = MetricStore()
    calls = [0]

    def flaky():
        calls[0] += 1
        if calls[0] == 1:
            raise RuntimeError("sensor glitch")
        return [MetricSample(eng.now, "ok", 1.0)]

    producer = PeriodicProducer(eng, "flaky", 10.0, flaky, [store])
    eng.run(until=25.0)
    assert producer.errors == 1
    assert producer.collections == 1
    assert len(store.query("ok")) == 1


def test_periodic_producer_disable(eng):
    store = MetricStore()
    producer = PeriodicProducer(
        eng, "p", 10.0, lambda: [MetricSample(eng.now, "m", 1.0)], [store]
    )
    producer.enabled = False
    eng.run(until=50.0)
    assert len(store.query("m")) == 0


def test_producer_interval_validation(eng):
    with pytest.raises(ValueError):
        PeriodicProducer(eng, "bad", 0.0, lambda: [])


# --- RRD -----------------------------------------------------------------

def test_rrd_validation():
    with pytest.raises(ValueError):
        RoundRobinDatabase(0.0, 10)
    with pytest.raises(ValueError):
        RoundRobinDatabase(1.0, 0)
    with pytest.raises(ValueError):
        RoundRobinDatabase(1.0, 10, consolidation="median")


def test_rrd_consolidation_avg():
    rrd = RoundRobinDatabase(10.0, 100)
    rrd.update(1.0, 2.0)
    rrd.update(5.0, 4.0)
    rrd.update(15.0, 10.0)
    assert rrd.series() == [(0.0, 3.0), (10.0, 10.0)]
    assert rrd.value_at(5.0) == 3.0
    assert rrd.value_at(95.0) is None


def test_rrd_consolidation_max_sum_last():
    for kind, expect in (("max", 7.0), ("sum", 12.0), ("last", 2.0)):
        rrd = RoundRobinDatabase(10.0, 10, consolidation=kind)
        for v in (3.0, 7.0, 2.0):
            rrd.update(1.0, v)
        assert rrd.series() == [(0.0, expect)]


def test_rrd_ring_evicts_oldest():
    rrd = RoundRobinDatabase(10.0, capacity=3)
    for i in range(6):
        rrd.update(i * 10.0, float(i))
    assert len(rrd) == 3
    assert [t for t, _v in rrd.series()] == [30.0, 40.0, 50.0]
    assert rrd.span == 30.0


def test_rrd_drops_too_old_samples():
    rrd = RoundRobinDatabase(10.0, capacity=2)
    rrd.update(100.0, 1.0)
    rrd.update(110.0, 1.0)
    rrd.update(5.0, 99.0)  # older than the retained window
    assert rrd.samples_dropped == 1
    assert all(v != 99.0 for _t, v in rrd.series())


@settings(max_examples=40, deadline=None)
@given(
    times=st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=60),
)
def test_rrd_property_series_sorted_and_bounded(times):
    """Property: the retained series is time-sorted and never exceeds
    capacity."""
    rrd = RoundRobinDatabase(50.0, capacity=5)
    for t in times:
        rrd.update(t, 1.0)
    series = rrd.series()
    assert len(series) <= 5
    assert [t for t, _ in series] == sorted(t for t, _ in series)
    assert rrd.samples_seen == len(times)
