"""Tests for the monitoring core (samples, store, producers) and RRD."""

import bisect
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.core import MetricSample, MetricStore, PeriodicProducer, make_tags
from repro.monitoring.rrd import _CONSOLIDATORS, RoundRobinDatabase
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

def one_series(bin_width, capacity, consolidation="avg"):
    """A one-series database and the series' read handle."""
    database = RoundRobinDatabase(bin_width, capacity, consolidation)
    return database, database.add_series()


def test_rrd_validation():
    with pytest.raises(ValueError):
        RoundRobinDatabase(0.0, 10)
    with pytest.raises(ValueError):
        RoundRobinDatabase(1.0, 0)
    with pytest.raises(ValueError):
        RoundRobinDatabase(1.0, 10, consolidation="median")
    database, _rrd = one_series(1.0, 10)
    with pytest.raises(ValueError):
        database.write(1.0, (1.0, 2.0))  # a row names every series once
    database.write(1.0, (1.0,))
    with pytest.raises(ValueError):
        database.add_series()  # a late series would have no past bins


def test_rrd_consolidation_avg():
    database, rrd = one_series(10.0, 100)
    database.write(1.0, (2.0,))
    database.write(5.0, (4.0,))
    database.write(15.0, (10.0,))
    assert rrd.series() == [(0.0, 3.0), (10.0, 10.0)]
    assert rrd.value_at(5.0) == 3.0
    assert rrd.value_at(95.0) is None


def test_rrd_consolidation_max_sum_last():
    for kind, expect in (("max", 7.0), ("sum", 12.0), ("last", 2.0)):
        database, rrd = one_series(10.0, 10, consolidation=kind)
        for v in (3.0, 7.0, 2.0):
            database.write(1.0, (v,))
        assert rrd.series() == [(0.0, expect)]


def test_rrd_ring_evicts_oldest():
    database, rrd = one_series(10.0, capacity=3)
    for i in range(6):
        database.write(i * 10.0, (float(i),))
    assert len(database) == 3
    assert [t for t, _v in rrd.series()] == [30.0, 40.0, 50.0]
    assert database.span == 30.0


def test_rrd_drops_too_old_samples():
    database, rrd = one_series(10.0, capacity=2)
    database.write(100.0, (1.0,))
    database.write(110.0, (1.0,))
    database.write(5.0, (99.0,))  # older than the retained window
    assert rrd.samples_dropped == 1
    assert all(v != 99.0 for _t, v in rrd.series())


@settings(max_examples=40, deadline=None)
@given(
    times=st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=60),
)
def test_rrd_property_series_sorted_and_bounded(times):
    """Property: the retained series is time-sorted and never exceeds
    capacity."""
    database, rrd = one_series(50.0, capacity=5)
    for t in times:
        database.write(t, (1.0,))
    series = rrd.series()
    assert len(series) <= 5
    assert [t for t, _ in series] == sorted(t for t, _ in series)
    assert rrd.samples_seen == len(times)


class _TupleBinsRRD:
    """Reference model: the bins as a sorted list of ``(index, [values])``
    tuples, the layout the column store replaced."""

    def __init__(self, bin_width, capacity, consolidation="avg"):
        self.bin_width = bin_width
        self.capacity = capacity
        self._fn = _CONSOLIDATORS[consolidation]
        self._bins = []
        self.samples_seen = 0
        self.samples_dropped = 0

    def update(self, time, value):
        self.samples_seen += 1
        idx = int(time // self.bin_width)
        if self._bins and idx < self._bins[0][0]:
            self.samples_dropped += 1
            return
        if self._bins:
            last_idx, last_values = self._bins[-1]
            if last_idx == idx:
                last_values.append(value)
                return
            if last_idx < idx:
                self._bins.append((idx, [value]))
            else:
                for bin_idx, values in reversed(self._bins):
                    if bin_idx == idx:
                        values.append(value)
                        return
                bisect.insort(self._bins, (idx, [value]))
        else:
            self._bins.append((idx, [value]))
        while len(self._bins) > self.capacity:
            self._bins.pop(0)

    def series(self):
        return [(idx * self.bin_width, self._fn(values))
                for idx, values in self._bins if values]

    def value_at(self, time):
        idx = int(time // self.bin_width)
        for bin_idx, values in self._bins:
            if bin_idx == idx and values:
                return self._fn(values)
        return None

    @property
    def span(self):
        if not self._bins:
            return 0.0
        return (self._bins[-1][0] - self._bins[0][0] + 1) * self.bin_width

    def __len__(self):
        return len(self._bins)


def _same_floats(a, b):
    """Equal, and with the same sign bit (``0.0 == -0.0`` is not enough)."""
    return repr(a) == repr(b)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=8),
    consolidation=st.sampled_from(sorted(_CONSOLIDATORS)),
    steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=30),
                  st.sampled_from([-0.0, 0.0, 1.0, -2.5, 0.1, 1e300, 3.0])),
        min_size=1, max_size=60),
)
def test_rrd_columns_match_tuple_reference(capacity, consolidation, steps):
    """Property: the column store answers every read exactly as the
    tuple-of-lists layout does, for times that repeat, go backwards and
    fall out of retention, and for every consolidation."""
    database, rrd = one_series(10.0, capacity, consolidation)
    ref = _TupleBinsRRD(10.0, capacity, consolidation)
    for t, value in steps:
        # Times inside a bin vary, so a bin's samples arrive at
        # different instants.
        time = t * 7.0
        database.write(time, (value,))
        ref.update(time, value)
    assert _same_floats(rrd.series(), ref.series())
    assert len(database) == len(ref)
    assert database.span == ref.span
    assert rrd.samples_seen == ref.samples_seen
    assert rrd.samples_dropped == ref.samples_dropped
    # Every bin up to one past the newest: retained, evicted, never
    # written and missing.
    newest = int(max(t for t, _v in steps) * 7.0 // 10.0)
    for idx in range(newest + 2):
        assert _same_floats(rrd.value_at(idx * 10.0 + 5.0),
                            ref.value_at(idx * 10.0 + 5.0))
    assert rrd.value_at((newest + 1) * 10.0) is None


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=8),
    consolidation=st.sampled_from(sorted(_CONSOLIDATORS)),
    width=st.integers(min_value=1, max_value=4),
    steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=30),
                  st.lists(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 0.1, 1e300, 3.0]),
                           min_size=4, max_size=4)),
        min_size=1, max_size=60),
)
def test_rrd_row_columns_match_one_series_databases(capacity, consolidation, width, steps):
    """Property: each series of a row-written database reads exactly as
    a one-series database fed that series' column, for rows that land
    in an existing bin, go backwards and fall out of retention."""
    database = RoundRobinDatabase(10.0, capacity, consolidation)
    rrds = [database.add_series() for _ in range(width)]
    singles = [one_series(10.0, capacity, consolidation) for _ in range(width)]
    for t, row in steps:
        time = t * 7.0
        database.write(time, tuple(row[:width]))
        for (single, _rrd), value in zip(singles, row):
            single.write(time, (value,))
    newest = int(max(t for t, _row in steps) * 7.0 // 10.0)
    for rrd, (single, single_rrd) in zip(rrds, singles):
        assert _same_floats(rrd.series(), single_rrd.series())
        for idx in range(newest + 2):
            assert _same_floats(rrd.value_at(idx * 10.0 + 5.0),
                                single_rrd.value_at(idx * 10.0 + 5.0))
        assert database.span == single.span
        assert len(database) == len(single)
        assert rrd.samples_seen == single_rrd.samples_seen == len(steps)
        assert rrd.samples_dropped == single_rrd.samples_dropped


def test_rrd_out_of_order_value_joins_multi_value_bin_last():
    """A late value for an older, multi-value bin is that bin's newest:
    ``last`` returns it, and the newer bins are untouched."""
    database, rrd = one_series(10.0, 10, consolidation="last")
    database.write(1.0, (1.0,))
    database.write(2.0, (2.0,))
    database.write(25.0, (9.0,))
    database.write(3.0, (5.0,))  # arrives after bin 2 opened
    assert rrd.series() == [(0.0, 5.0), (20.0, 9.0)]
    assert rrd.value_at(4.0) == 5.0
    assert rrd.samples_dropped == 0


def test_rrd_evicted_multi_value_bin_leaves_nothing_behind():
    database, rrd = one_series(10.0, capacity=2, consolidation="sum")
    database.write(1.0, (1.0,))
    database.write(2.0, (2.0,))
    database.write(11.0, (3.0,))
    database.write(12.0, (4.0,))
    database.write(21.0, (5.0,))  # evicts bin 0 and its second value
    assert rrd.series() == [(10.0, 7.0), (20.0, 5.0)]
    assert rrd.value_at(1.0) is None
    assert list(database._more) == [1]
    database.write(31.0, (6.0,))  # evicts bin 1 and its second value
    assert database._more == {}


def _tracked_objects(rrd):
    """GC-tracked objects ``rrd`` owns: its attributes and, one level
    down, their elements (a dict's values)."""
    count = 0
    for attr in vars(rrd).values():
        if not gc.is_tracked(attr):
            continue
        count += 1
        if isinstance(attr, dict):
            count += sum(map(gc.is_tracked, attr.values()))
        elif isinstance(attr, (list, tuple)):
            count += sum(map(gc.is_tracked, attr))
    return count


def test_rrd_tracked_objects_do_not_grow_with_bins():
    """A bin holding one row costs the garbage collector nothing: the
    count of tracked objects a three-series database owns is the same
    at 100 and 1,000 retained bins."""
    counts = []
    for n in (100, 1_000):
        database = RoundRobinDatabase(10.0, capacity=n)
        for _ in range(3):
            database.add_series()
        for i in range(n):
            database.write(i * 10.0, (float(i), -float(i), 0.5))
        assert len(database) == n
        counts.append(_tracked_objects(database))
    assert counts[0] == counts[1]
