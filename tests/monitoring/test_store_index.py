"""Property tests: MetricStore must be behaviorally identical to the
linear-scan reference implementation.

The reference model below is a verbatim transcription of the seed
``MetricStore`` (deque ring + full scan per query); hypothesis drives
both through random append/query interleavings — including ring
eviction and out-of-order appends — and every observable must agree.
"""

from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.core import MetricSample, MetricStore, make_tags
from repro.monitoring.ganglia import METRICS, GangliaAgent, GangliaWeb
from repro.monitoring.prometheus import render_store
from repro.sim import Engine


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
    append must still show in the columns."""
    k = 5
    store = MetricStore(max_samples=k)
    stream = [MetricSample(float(i), "cpu", float(i * i % 11))
              for i in range(3 * k)]
    for i, sample in enumerate(stream):
        store.append(sample)
        _assert_columns(store, "cpu", stream[max(0, i + 1 - k):i + 1])
    assert len(store) == k


def test_column_cache_follows_a_latest_value_overwrite():
    """A later collect overwrites a Ganglia row and leaves ``len`` alone,
    but ``series`` must return the new values."""
    grid = ScriptedGanglia(2)
    store = grid.web.store
    expected = {}
    for i in range(1, 8):
        grid.advance(float(i))
        which = i % 2
        samples = grid.collect(which, (4, i, 0.5, 1e9 + i, 2e9 - i, 10 * i))
        expected[which] = samples[METRICS.index("cpu.busy")]
        assert len(store) == len(METRICS) * len(expected)
        _assert_columns(store, "cpu.busy", sorted(expected.values(),
                                                  key=lambda s: s.time))


# -- the Ganglia pages ----------------------------------------------------

class ScriptedSite:
    """What a GangliaAgent reads of a site, set before each collect."""

    def __init__(self, name):
        self.name = name
        self.services = {"gridftp": SimpleNamespace(bytes_sent=0.0,
                                                    bytes_received=0.0)}
        self.cluster = self.storage = None

    def attach_service(self, role, service):
        self.services[role] = service


class ScriptedGanglia:
    """Agents over scripted sites, registered with one central page, and
    a plain MetricStore fed every sample a collect reads."""

    def __init__(self, n_sites):
        self.engine = Engine()
        self.web = GangliaWeb()
        self.sites = [ScriptedSite(f"S{i}") for i in range(n_sites)]
        # The producers never fire: the test drives every collect.
        self.agents = [GangliaAgent(self.engine, site, self.web, interval=1e12)
                       for site in self.sites]
        self.plain = MetricStore()

    def advance(self, now):
        self.engine.run(until=now)

    def collect(self, i, readings):
        """Collect at site ``i``; ``readings`` None makes the collect
        raise.  Returns the samples the plain store took."""
        site, agent = self.sites[i], self.agents[i]
        if readings is None:
            site.storage = None
            with pytest.raises(AttributeError):
                agent._collect()
            return []
        total, busy, load, used, free, net = readings
        site.cluster = SimpleNamespace(total_cpus=total, busy_cpus=busy,
                                       utilisation=load)
        site.storage = SimpleNamespace(used=used, free=free)
        site.services["gridftp"].bytes_sent += net
        assert agent._collect() == ()
        values = (float(total), float(busy), load, used, free, float(net))
        samples = [MetricSample(self.engine.now, name, value, agent.tags)
                   for name, value in zip(METRICS, values)]
        self.plain.extend(samples)
        return samples


readings_strategy = st.one_of(
    st.none(),
    st.tuples(
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=64),
        st.floats(min_value=0, max_value=1, allow_nan=False),
        st.floats(min_value=0, max_value=1e13, allow_nan=False),
        st.floats(min_value=0, max_value=1e13, allow_nan=False),
        st.integers(min_value=0, max_value=10**9),
    ),
)

#: Each step moves the clock on, then some sites collect in
#: registration order, so sites share collect times.
ganglia_script = st.lists(
    st.tuples(st.sampled_from([1.0, 60.0, 3600.0]),
              st.dictionaries(st.integers(min_value=0, max_value=2),
                              readings_strategy, max_size=3)),
    max_size=12,
)


def _assert_page_answers_like(page, fed):
    """``page`` answers as ``fed`` (every sample written) for the
    latest-value reads, and as a plain store fed only the newest sample
    per (name, tags), in write order, for the history reads."""
    assert page.names() == fed.names()
    assert len(page) == len({(s.name, s.tags) for n in METRICS
                             for s in fed.query(n)})
    newest = MetricStore()
    for name in METRICS:
        keep = set(fed.latest_per_series(name).values())
        newest.extend(s for s in fed.query(name) if s in keep)
    filters = [{}, {"site": "S0"}, {"site": "S2"}, {"site": "S1", "vo": "x"},
               {"site": "nope"}]
    for name in METRICS + ("absent",):
        assert page.latest_per_series(name) == fed.latest_per_series(name)
        for tf in filters:
            assert page.latest(name, **tf) == fed.latest(name, **tf), (name, tf)
            assert page.query(name, **tf) == newest.query(name, **tf)
            assert (page.query(name, 1.0, 3600.0, **tf)
                    == newest.query(name, 1.0, 3600.0, **tf))
        got_t, got_v = page.series(name)
        want_t, want_v = newest.series(name)
        assert got_t.tolist() == want_t.tolist()
        assert got_v.tolist() == want_v.tolist()
        for window in ((), (1.0, 3600.0), (1e9,)):
            assert (repr(page.window_stats(name, *window))
                    == repr(newest.window_stats(name, *window)))
    assert render_store(page, "p_") == render_store(fed, "p_")
    sample = MetricSample(0.0, "cpu.busy", 1.0, make_tags(site="S0"))
    with pytest.raises(TypeError):
        page.append(sample)
    with pytest.raises(TypeError):
        page.extend([sample])


@settings(max_examples=150, deadline=None)
@given(script=ganglia_script)
def test_latest_value_store_answers_like_a_plain_store(script):
    """The central Ganglia page and each site page, read after every
    step, answer exactly as plain stores fed every collect's samples;
    a collect that raises writes nothing."""
    grid = ScriptedGanglia(3)
    local = [MetricStore() for _agent in grid.agents]
    now = 0.0
    for dt, collects in script:
        now += dt
        grid.advance(now)
        for i in sorted(collects):
            local[i].extend(grid.collect(i, collects[i]))
        _assert_page_answers_like(grid.web.store, grid.plain)
        for agent, fed in zip(grid.agents, local):
            _assert_page_answers_like(agent.local_store, fed)


def test_latest_value_store_reads_in_write_order():
    """A site whose last collect raised keeps its older row, so it reads
    first; sites that collected at one instant read in registration
    order."""
    grid = ScriptedGanglia(3)
    store = grid.web.store
    assert store.names() == [] and len(store) == 0
    assert store.latest("cpu.busy") is None
    grid.advance(60.0)
    for i in range(3):
        grid.collect(i, (8, i + 1, 0.5, 1.0, 2.0, 0))
    grid.advance(120.0)
    grid.collect(0, None)
    grid.collect(1, (8, 5, 0.5, 1.0, 2.0, 0))
    assert store.names() == sorted(METRICS)
    assert [(s.tag("site"), s.value) for s in store.query("cpu.busy")] == [
        ("S0", 1.0), ("S2", 3.0), ("S1", 5.0)]
    assert [s.value for s in store.query("cpu.busy", since=90.0)] == [5.0]
    assert store.latest("cpu.busy").value == 5.0
    assert store.latest("cpu.busy", site="S0").time == 60.0
    assert grid.web.latest("S0", "cpu.busy") == 1.0
    assert grid.web.latest("Ghost", "cpu.busy") is None
    times, values = store.series("cpu.busy")
    assert times.tolist() == [60.0, 60.0, 120.0]
    assert values.tolist() == [1.0, 3.0, 5.0]
    times, values = store.series_window("cpu.busy", since=90.0)
    assert times.tolist() == [120.0] and values.tolist() == [5.0]
    assert store.series("absent")[0].size == 0
    assert len(store) == 3 * len(METRICS)
    assert len(grid.agents[1].local_store) == len(METRICS)
    assert grid.agents[1].local_store.latest("cpu.busy").value == 5.0
