"""Property tests: MetricStore must be behaviorally identical to the
linear-scan reference implementation.

The reference model below is a transcription of the seed
``MetricStore`` (deque ring + full scan per query) narrowed to the
untagged reads the store keeps; hypothesis drives both through random
append/query interleavings — including ring eviction and out-of-order
appends — and every observable must agree.  The read-only views (the
Ganglia pages, the service-health view) are checked against their own
sample hook on a finished grid.
"""

from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid3 import Grid3, Grid3Config
from repro.monitoring.core import MetricSample, MetricStore, make_tags
from repro.monitoring.ganglia import METRICS, GangliaAgent, GangliaWeb
from repro.monitoring.prometheus import grid_stores, render_store
from repro.sim import Engine
from repro.failures import FailureProfile


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

    def query(self, name, since=-float("inf"), until=float("inf")):
        return [sample for sample in self._samples.get(name, ())
                if since <= sample.time <= until]

    def latest(self, name):
        for sample in reversed(self._samples.get(name, ())):
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


def _stats(values):
    """``window_stats`` computed from a list of sample values."""
    if not values:
        nan = float("nan")
        return {"count": 0.0, "sum": 0.0, "mean": nan, "min": nan, "max": nan}
    column = np.array(values, dtype=float)
    total = float(column.sum())
    return {"count": float(len(values)), "sum": total,
            "mean": total / len(values), "min": float(column.min()),
            "max": float(column.max())}


def _check_agreement(store, oracle, windows):
    assert len(store) == len(oracle)
    assert store.names() == oracle.names()
    for name in NAMES + ["absent"]:
        assert store.latest(name) == oracle.latest(name), name
        for since, until in windows:
            expected = oracle.query(name, since, until)
            assert store.query(name, since, until) == expected, (
                name, since, until)
            assert repr(store.window_stats(name, since, until)) == repr(
                _stats([s.value for s in expected])), (name, since, until)


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
    """Random streams, random windows, ring eviction, and both
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
    # Touch every series with a windowed query while the back half
    # streams in.
    for name in NAMES:
        assert store.query(name, 0.0, 500.0) == oracle.query(name, 0.0, 500.0)
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
            store.query("cpu", since=i - 50, until=i)
    _check_agreement(store, oracle, [(2980, 3000), (0, 3000), (2990, 2991)])


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
    assert store.query("cpu") == oracle.query("cpu")
    assert store.latest("cpu") == oracle.latest("cpu")


def _assert_columns(store, name, expected):
    """``query`` and ``window_stats`` of ``name``, whole and windowed,
    reflect exactly the ``expected`` samples."""
    values = [s.value for s in expected]
    assert store.query(name) == expected
    since, until = expected[len(expected) // 2].time, expected[-1].time
    inside = [s for s in expected if since <= s.time <= until]
    assert store.query(name, since, until) == inside
    assert repr(store.window_stats(name, since, until)) == repr(
        _stats([s.value for s in inside]))
    stats = store.window_stats(name)
    assert stats["count"] == len(values) and stats["sum"] == sum(values)
    assert stats["min"] == min(values) and stats["max"] == max(values)


def test_column_cache_follows_a_saturated_ring():
    """Once a ring is full its length stops moving; every further
    append must still show in the window reads."""
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
    but ``query`` and ``window_stats`` must return the new values."""
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
    tag_sets = [make_tags(site=site) for site in ("S0", "S1", "S2", "nope")]
    for name in METRICS + ("absent",):
        assert page.latest_per_series(name) == fed.latest_per_series(name)
        assert page.latest_values(name) == fed.latest_values(name)
        assert page.latest(name) == fed.latest(name), name
        assert page.query(name) == newest.query(name)
        assert page.query(name, 1.0, 3600.0) == newest.query(name, 1.0, 3600.0)
        for tags in tag_sets:
            # A tagged read is the whole read filtered by tags.
            mine = [s for s in page.query(name) if s.tags == tags]
            fed_mine = [s for s in fed.query(name) if s.tags == tags]
            assert mine == fed_mine[-1:], (name, tags)
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
    rows = store.query("cpu.busy")
    assert [(dict(s.tags)["site"], s.time, s.value) for s in rows] == [
        ("S0", 60.0, 1.0), ("S2", 60.0, 3.0), ("S1", 120.0, 5.0)]
    assert [s.value for s in store.query("cpu.busy", since=90.0)] == [5.0]
    assert store.window_stats("cpu.busy", since=90.0)["sum"] == 5.0
    assert store.latest("cpu.busy").value == 5.0
    assert store.query("absent") == [] and store.latest("absent") is None
    assert len(store) == 3 * len(METRICS)
    assert len(grid.agents[1].local_store) == len(METRICS)
    assert grid.agents[1].local_store.latest("cpu.busy").value == 5.0


# -- the views' shortcuts -------------------------------------------------

def test_view_shortcuts_agree_with_their_sample_hook():
    """On a finished grid with every optional store on, each store and
    each site's Ganglia page answers ``latest``, ``latest_per_series``,
    ``latest_values`` and ``window_stats`` exactly as its ``query``
    samples imply, so a view's shortcut can never drift from what its
    hook serves."""
    grid = Grid3(Grid3Config(
        seed=5, scale=400.0, duration_days=1.0, failures=FailureProfile.early(),
        apps=["exerciser", "usatlas"], alerts=True, fair_share=True,
        tracing=True, data_management=True,
    ))
    grid.run_full()
    stores = dict(grid_stores(grid))
    assert {"data", "ganglia", "sched", "service-health", "trace"} <= set(stores)
    for site in grid.sites.values():
        stores[f"ganglia@{site.name}"] = site.services["ganglia"].local_store
    end = grid.engine.now
    windows = [(-float("inf"), float("inf")), (0.0, end / 2),
               (end - 6 * 3600.0, end), (end / 3, end / 3)]
    read = 0
    for label, store in stores.items():
        for name in store.names():
            samples = store.query(name)
            read += len(samples)
            where = (label, name)
            assert store.latest(name) == (samples or [None])[-1], where
            assert store.latest_per_series(name) == {
                s.tags: s for s in samples}, where
            assert store.latest_values(name) == {
                s.tags: s.value for s in samples}, where
            for since, until in windows:
                inside = [s.value for s in store.query(name, since, until)]
                assert repr(store.window_stats(name, since, until)) == repr(
                    _stats(inside)), (where, since, until)
    assert read
