"""Property tests: MetricStore must be behaviorally identical to the
linear-scan reference implementation.

The reference model below is a verbatim transcription of the seed
``MetricStore`` (deque ring + full scan per query); hypothesis drives
both through random append/query interleavings — including ring
eviction and out-of-order appends — and every observable must agree.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.core import MetricSample, MetricStore, make_tags
from repro.monitoring.ganglia import LatestValueStore
from repro.monitoring.prometheus import render_store


class LinearScanStore:
    """The seed implementation, kept as the behavioral oracle."""

    def __init__(self, max_samples=None):
        self._samples = {}
        self.max_samples = max_samples

    def append(self, sample):
        series = self._samples.get(sample.name)
        if series is None:
            series = deque(maxlen=self.max_samples)
            self._samples[sample.name] = series
        series.append(sample)

    def names(self):
        return sorted(self._samples)

    def query(self, name, since=-float("inf"), until=float("inf"), **tag_filter):
        out = []
        for sample in self._samples.get(name, ()):
            if not since <= sample.time <= until:
                continue
            if all(sample.tag(k) == str(v) for k, v in tag_filter.items()):
                out.append(sample)
        return out

    def latest(self, name, **tag_filter):
        for sample in reversed(self._samples.get(name, ())):
            if all(sample.tag(k) == str(v) for k, v in tag_filter.items()):
                return sample
        return None

    def __len__(self):
        return sum(len(v) for v in self._samples.values())


NAMES = ["cpu", "net", "disk"]
SITES = ["A", "B", "C"]
VOS = ["atlas", "cms"]

sample_strategy = st.builds(
    lambda t, name, value, site, vo, tagged: MetricSample(
        t, name, value, make_tags(site=site, vo=vo) if tagged else ()
    ),
    t=st.floats(min_value=0, max_value=1000, allow_nan=False),
    name=st.sampled_from(NAMES),
    value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    site=st.sampled_from(SITES),
    vo=st.sampled_from(VOS),
    tagged=st.booleans(),
)


def _fill(samples, max_samples, monotone):
    """Both stores loaded with the same stream."""
    if monotone:
        samples = sorted(samples, key=lambda s: s.time)
    store = MetricStore(max_samples=max_samples)
    oracle = LinearScanStore(max_samples=max_samples)
    for s in samples:
        store.append(s)
        oracle.append(s)
    return store, oracle


def _check_agreement(store, oracle, windows):
    assert len(store) == len(oracle)
    assert store.names() == oracle.names()
    filters = [{}, {"site": "A"}, {"site": "B", "vo": "atlas"}, {"vo": "cms"},
               {"site": "nope"}]
    for name in NAMES + ["absent"]:
        for tf in filters:
            assert store.latest(name, **tf) == oracle.latest(name, **tf), (
                name, tf)
        for since, until in windows:
            for tf in filters:
                assert store.query(name, since, until, **tf) == oracle.query(
                    name, since, until, **tf
                ), (name, since, until, tf)


@settings(max_examples=60, deadline=None)
@given(
    samples=st.lists(sample_strategy, max_size=80),
    max_samples=st.sampled_from([None, 1, 7, 25]),
    monotone=st.booleans(),
    windows=st.lists(
        st.tuples(
            st.floats(min_value=-10, max_value=1100, allow_nan=False),
            st.floats(min_value=-10, max_value=1100, allow_nan=False),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_indexed_store_matches_linear_scan(samples, max_samples, monotone, windows):
    """Random streams, random windows/filters, ring eviction, and both
    time-ordered and out-of-order arrival orders."""
    store, oracle = _fill(samples, max_samples, monotone)
    _check_agreement(store, oracle, windows)


@settings(max_examples=30, deadline=None)
@given(
    samples=st.lists(sample_strategy, min_size=5, max_size=60),
    max_samples=st.sampled_from([None, 9]),
)
def test_queries_interleaved_with_appends(samples, max_samples):
    """Querying mid-stream must not disturb later results."""
    samples = sorted(samples, key=lambda s: s.time)
    store = MetricStore(max_samples=max_samples)
    oracle = LinearScanStore(max_samples=max_samples)
    mid = len(samples) // 2
    for s in samples[:mid]:
        store.append(s)
        oracle.append(s)
    # Touch every series with a windowed, tagged query while the back
    # half streams in.
    for name in NAMES:
        assert store.query(name, 0.0, 500.0, site="A") == oracle.query(
            name, 0.0, 500.0, site="A"
        )
    for s in samples[mid:]:
        store.append(s)
        oracle.append(s)
    _check_agreement(store, oracle, [(0.0, 1000.0), (250.0, 750.0)])


def test_heavy_eviction_keeps_index_consistent():
    """Long monotone stream through a tiny ring: queries must track the
    survivors exactly."""
    store = MetricStore(max_samples=16)
    oracle = LinearScanStore(max_samples=16)
    for i in range(3000):
        s = MetricSample(float(i), "cpu", float(i % 13),
                         make_tags(site=SITES[i % 3]))
        store.append(s)
        oracle.append(s)
        if i % 97 == 0:  # query throughout the evictions
            store.query("cpu", since=i - 50, until=i, site="A")
    _check_agreement(store, oracle, [(2980, 3000), (0, 3000), (2990, 2991)])


def test_series_columnar_accessor():
    store = MetricStore()
    for i in range(10):
        store.append(MetricSample(float(i), "cpu", float(i * 2)))
    times, values = store.series("cpu")
    assert isinstance(times, np.ndarray) and isinstance(values, np.ndarray)
    np.testing.assert_allclose(times, np.arange(10.0))
    np.testing.assert_allclose(values, np.arange(10.0) * 2)
    empty_t, empty_v = store.series("absent")
    assert empty_t.size == 0 and empty_v.size == 0


def test_len_is_constant_time_counter():
    store = MetricStore(max_samples=5)
    for i in range(37):
        store.append(MetricSample(float(i), "m", 1.0))
        store.append(MetricSample(float(i), "n", 1.0))
    assert len(store) == 10  # two series, both saturated at maxlen=5


def test_window_stats_over_live_samples():
    store = MetricStore()
    for i in range(30):
        store.append(MetricSample(i * 10.0, "cpu", float(i), make_tags(site="S")))
    first = store.window_stats("cpu", since=0.0, until=99.0)
    assert first["count"] == 10 and first["sum"] == 45.0
    assert first["mean"] == 4.5
    assert first["min"] == 0.0 and first["max"] == 9.0
    total = store.window_stats("cpu")
    assert total["count"] == 30
    assert total["min"] == 0.0 and total["max"] == 29.0
    empty = store.window_stats("cpu", since=1000.0)
    assert empty["count"] == 0.0 and empty["sum"] == 0.0
    assert empty["mean"] != empty["mean"]  # NaN


def test_out_of_order_append_falls_back():
    """Decreasing-time appends — queries must still match the oracle
    exactly."""
    store = MetricStore()
    oracle = LinearScanStore()
    stream = [5.0, 9.0, 2.0, 7.0, 7.0, 1.0]
    for t in stream:
        s = MetricSample(t, "cpu", t, make_tags(site="A"))
        store.append(s)
        oracle.append(s)
    assert store.query("cpu", 2.0, 8.0) == oracle.query("cpu", 2.0, 8.0)
    assert store.query("cpu", site="A") == oracle.query("cpu", site="A")
    assert store.latest("cpu", site="A") == oracle.latest("cpu", site="A")


def _assert_columns(store, name, expected):
    """``series``, ``series_window`` and ``window_stats`` of ``name``
    reflect exactly the ``expected`` samples."""
    times = [s.time for s in expected]
    values = [s.value for s in expected]
    got_t, got_v = store.series(name)
    assert got_t.tolist() == times and got_v.tolist() == values
    since, until = times[len(times) // 2], times[-1]
    win_t, win_v = store.series_window(name, since, until)
    inside = [s for s in expected if since <= s.time <= until]
    assert win_t.tolist() == [s.time for s in inside]
    assert win_v.tolist() == [s.value for s in inside]
    stats = store.window_stats(name)
    assert stats["count"] == len(values) and stats["sum"] == sum(values)
    assert stats["min"] == min(values) and stats["max"] == max(values)


def test_column_cache_follows_a_saturated_ring():
    """Once a ring is full its length stops moving; every further
    append must still refresh the cached columns."""
    k = 5
    store = MetricStore(max_samples=k)
    stream = [MetricSample(float(i), "cpu", float(i * i % 11))
              for i in range(3 * k)]
    for i, sample in enumerate(stream):
        store.append(sample)
        _assert_columns(store, "cpu", stream[max(0, i + 1 - k):i + 1])
    assert len(store) == k


def test_column_cache_follows_a_latest_value_overwrite():
    """An overwrite of an existing (name, tags) leaves ``len`` alone but
    must refresh the cached columns."""
    a, b = make_tags(site="A"), make_tags(site="B")
    store = LatestValueStore()
    first = [MetricSample(0.0, "cpu", 1.0, a), MetricSample(1.0, "cpu", 2.0, b)]
    store.extend(first)
    _assert_columns(store, "cpu", first)
    retained = {s.tags: s for s in first}
    for i in range(2, 8):
        sample = MetricSample(float(i), "cpu", float(10 + i), (a, b)[i % 2])
        store.append(sample)
        retained.pop(sample.tags)
        retained[sample.tags] = sample
        assert len(store) == 2
        _assert_columns(store, "cpu", list(retained.values()))


# -- the latest-value store ----------------------------------------------

#: Few names, tag sets and instants, so a stream interleaves names,
#: repeats tag sets and shares timestamps.
TAG_SETS = [(), make_tags(site="A"), make_tags(site="B"),
            make_tags(site="A", vo="atlas"), make_tags(site="B", vo="cms")]

latest_stream = st.lists(
    st.builds(
        MetricSample,
        time=st.sampled_from([0.0, 1.0, 1.0, 2.0, 3600.0]),
        name=st.sampled_from(NAMES),
        value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        tags=st.sampled_from(TAG_SETS),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(samples=latest_stream, monotone=st.booleans(),
       batches=st.integers(min_value=1, max_value=4))
def test_latest_value_store_answers_like_a_plain_store(samples, monotone, batches):
    """The latest-value store keeps one sample per (name, tags) and
    answers every latest-value read exactly as a plain store fed the
    same stream, through ``append`` and ``extend`` alike."""
    if monotone:
        samples = sorted(samples, key=lambda s: s.time)
    plain = MetricStore()
    latest = LatestValueStore()
    for s in samples:
        plain.append(s)
    cut = len(samples) // batches or 1
    for i in range(0, len(samples), cut):
        chunk = samples[i:i + cut]
        if i // cut % 2:
            latest.extend(iter(chunk))
        else:
            for s in chunk:
                latest.append(s)
    assert latest.names() == plain.names()
    assert len(latest) == len({(s.name, s.tags) for s in samples})
    filters = [{}, {"site": "A"}, {"site": "B", "vo": "cms"}, {"vo": "atlas"},
               {"site": "nope"}]
    for name in NAMES + ["absent"]:
        assert latest.latest_per_series(name) == plain.latest_per_series(name)
        for tf in filters:
            assert latest.latest(name, **tf) == plain.latest(name, **tf), (name, tf)
        retained = set(plain.latest_per_series(name).values())
        assert set(latest.query(name)) == retained
        for tf in filters:
            assert set(latest.query(name, 1.0, 2.0, **tf)) == {
                s for s in plain.query(name, 1.0, 2.0, **tf) if s in retained}
        assert latest.window_stats(name, 1.0, 2.0)["count"] == sum(
            1.0 <= s.time <= 2.0 for s in retained)
    assert render_store(latest, "p_") == render_store(plain, "p_")


def test_latest_value_store_reads_in_write_order():
    store = LatestValueStore()
    a, b = make_tags(site="A"), make_tags(site="B")
    store.extend([MetricSample(0.0, "cpu", 1.0, a), MetricSample(0.0, "cpu", 2.0, b),
                  MetricSample(60.0, "cpu", 3.0, a)])
    assert [s.value for s in store.query("cpu")] == [2.0, 3.0]
    assert [s.value for s in store.query("cpu", since=30.0)] == [3.0]
    assert store.latest("cpu").value == 3.0
    times, values = store.series("cpu")
    assert times.tolist() == [0.0, 60.0] and values.tolist() == [2.0, 3.0]
    times, values = store.series_window("cpu", since=30.0)
    assert times.tolist() == [60.0] and values.tolist() == [3.0]
    assert store.series("absent")[0].size == 0
    assert len(store) == 2
