"""The monitoring framework skeleton of Figure 1.

"Producers provide monitored information, consumers use this
information, and intermediaries have both roles, sometimes providing
aggregation or filtering functions."  Concrete tools (Ganglia, MonALISA,
ACDC, the Site Status Catalog) are built from these pieces:

* a :class:`MetricSample` is one observation;
* a :class:`MetricStore` is the queryable sample sink;
* :class:`PeriodicProducer` is the common "sample every N seconds"
  process shape.

The deliberate redundancy the paper defends ("permitting crosschecks on
the data collected", §5.2) shows up as several producers observing the
same underlying state through different paths.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..sim.engine import Engine


@dataclass(frozen=True, slots=True)
class MetricSample:
    """One observation: (time, metric name, tags, value).

    Slotted: long runs retain millions of samples, and dropping the
    per-instance ``__dict__`` roughly halves their footprint while
    speeding construction on the producer hot path.
    """

    time: float
    name: str
    value: float
    #: Sorted (key, value) pairs — hashable, e.g. (("site","BNL"),).
    tags: Tuple[Tuple[str, str], ...] = ()

    def tag(self, key: str) -> Optional[str]:
        """Look up one tag value."""
        for k, v in self.tags:
            if k == key:
                return v
        return None


def make_tags(**kwargs: str) -> Tuple[Tuple[str, str], ...]:
    """Build a canonical (sorted) tag tuple."""
    return tuple(sorted((k, str(v)) for k, v in kwargs.items()))


class _Series:
    """Columnar storage for one metric name.

    Samples live in the ``samples`` list; the live window is
    ``[start:]`` (ring eviction advances ``start``, and the dead prefix
    is compacted away once it dominates).  ``abs0 + i`` is the
    *absolute* position of ``samples[i]`` — a monotone id that survives
    compaction, used by the index.

    The index (a ``times`` column for bisection plus ``postings``, a
    per-tag inverted index) is **lazy**: most series are append-heavy
    and either never queried or only probed with ``latest`` (which the
    legacy reverse scan already serves in O(1)-ish), so appends stay as
    cheap as the old deque push until the first windowed/tagged query
    materializes the index; from then on it is maintained
    incrementally.

    ``postings`` maps each (key, value) tag pair to ``[offset, plist]``
    where ``plist`` holds the absolute positions of samples carrying
    that pair, in insertion order, and ``plist[offset:]`` are the live
    ones.  Eviction is strictly FIFO per series, so it is FIFO per tag
    pair too — retiring a posting is an O(1) offset bump.

    ``in_order`` tracks whether times are nondecreasing (true for every
    simulation producer); if a caller ever appends out of order, the
    series flags itself and queries fall back to the exact legacy
    linear scan.
    """

    __slots__ = (
        "samples", "times", "start", "abs0", "maxlen", "in_order",
        "indexed", "postings", "last_time", "rev",
    )

    #: Compact the dead prefix when it exceeds this many slots *and*
    #: outnumbers the live ones (amortized O(1) per append).
    _COMPACT_MIN = 512

    def __init__(self, maxlen: Optional[int]) -> None:
        self.samples: List[MetricSample] = []
        self.times: List[float] = []
        self.start = 0
        self.abs0 = 0
        self.maxlen = maxlen
        self.in_order = True
        self.indexed = False
        self.postings: Dict[Tuple[str, str], list] = {}
        self.last_time = -float("inf")
        #: Bumped on every live-window mutation; lets callers cache
        #: derived columns (see MetricStore.series) without staleness.
        self.rev = 0

    def __len__(self) -> int:
        return len(self.samples) - self.start

    def append(self, sample: MetricSample) -> int:
        """Add one sample; returns the net change in live count (0/1).

        The dominant shape — an in-order append to an unindexed,
        unbounded (or not-yet-full) series — takes the early-return fast
        path: one comparison, one list push, no index or eviction work.
        """
        self.rev += 1
        samples = self.samples
        time = sample.time
        if time < self.last_time:
            self.in_order = False
        else:
            self.last_time = time
        samples.append(sample)
        if not self.indexed:
            if self.maxlen is None or len(samples) - self.start <= self.maxlen:
                return 1
        else:
            self.times.append(time)
            pos = self.abs0 + len(samples) - 1
            postings = self.postings
            for pair in sample.tags:
                entry = postings.get(pair)
                if entry is None:
                    postings[pair] = [0, [pos]]
                else:
                    entry[1].append(pos)
            if self.maxlen is None or len(samples) - self.start <= self.maxlen:
                return 1
        self._evict_front()
        start = self.start
        if start > self._COMPACT_MIN and start * 2 > len(samples):
            del samples[:start]
            if self.indexed:
                del self.times[:start]
            self.abs0 += start
            self.start = 0
        return 0

    def build_index(self) -> None:
        """Materialize the time column and tag postings for the live
        window (one O(live) pass; appends maintain it afterwards)."""
        start = self.start
        abs0 = self.abs0
        times: List[float] = [0.0] * start  # dead prefix: placeholders
        postings: Dict[Tuple[str, str], list] = {}
        for i in range(start, len(self.samples)):
            sample = self.samples[i]
            times.append(sample.time)
            pos = abs0 + i
            for pair in sample.tags:
                entry = postings.get(pair)
                if entry is None:
                    postings[pair] = [0, [pos]]
                else:
                    entry[1].append(pos)
        self.times = times
        self.postings = postings
        self.indexed = True

    def _evict_front(self) -> None:
        evicted = self.samples[self.start]
        self.start += 1
        if not self.indexed:
            return
        for pair in evicted.tags:
            entry = self.postings[pair]
            offset, plist = entry
            # FIFO eviction: the retiring posting is exactly plist[offset].
            offset += 1
            if offset > self._COMPACT_MIN and offset * 2 > len(plist):
                del plist[:offset]
                offset = 0
            entry[0] = offset

    def live(self) -> List[MetricSample]:
        """The retained samples, oldest first (insertion order)."""
        return self.samples[self.start:]

    def shortest_postings(
        self, pairs: Tuple[Tuple[str, str], ...]
    ) -> Optional[Tuple[int, list]]:
        """The smallest live postings list among ``pairs`` (None if any
        pair has never been seen — no sample can match)."""
        best = None
        best_len = -1
        for pair in pairs:
            entry = self.postings.get(pair)
            if entry is None:
                return None
            n = len(entry[1]) - entry[0]
            if best is None or n < best_len:
                best = entry
                best_len = n
        return best  # type: ignore[return-value]


def _matches(sample: MetricSample, pairs: Tuple[Tuple[str, str], ...]) -> bool:
    return all(sample.tag(k) == v for k, v in pairs)


class MetricStore:
    """An in-memory, queryable sample sink (per-metric series).

    ``max_samples`` bounds each metric's retained history (ring
    semantics) — site-local stores in long runs must not grow without
    bound.

    Samples arrive in nondecreasing sim-time order, so ``query`` is a
    bisect over the time column plus a per-tag inverted-index probe
    (O(log n + k) instead of a full scan), ``latest`` walks the tag
    postings backwards, and ``__len__`` is a maintained counter.  A
    series that ever sees an out-of-order append drops back to the
    legacy linear scan, so behavior is identical either way.
    """

    def __init__(self, max_samples: Optional[int] = None) -> None:
        self._samples: Dict[str, _Series] = {}
        self.max_samples = max_samples
        self._count = 0
        #: name -> (series rev, times, values) column cache.
        self._col_cache: Dict[str, Tuple[int, np.ndarray, np.ndarray]] = {}

    def append(self, sample: MetricSample) -> None:
        """Record one sample."""
        series = self._samples.get(sample.name)
        if series is None:
            series = _Series(self.max_samples)
            self._samples[sample.name] = series
        self._count += series.append(sample)

    def extend(self, samples: Iterable[MetricSample]) -> None:
        """Record a batch (the :class:`PeriodicProducer` delivery path).

        Consecutive same-name samples reuse the series lookup.
        """
        get = self._samples.get
        last_name: Optional[str] = None
        series: Optional[_Series] = None
        for sample in samples:
            name = sample.name
            if name is not last_name or series is None:
                series = get(name)
                if series is None:
                    series = _Series(self.max_samples)
                    self._samples[name] = series
                last_name = name
            self._count += series.append(sample)

    def names(self) -> List[str]:
        """All metric names seen."""
        return sorted(self._samples)

    def query(
        self,
        name: str,
        since: float = -float("inf"),
        until: float = float("inf"),
        **tag_filter: str,
    ) -> List[MetricSample]:
        """Samples of ``name`` in [since, until] matching every tag."""
        series = self._samples.get(name)
        if series is None:
            return []
        pairs = make_tags(**tag_filter) if tag_filter else ()
        if not series.in_order:
            return [
                s
                for s in series.live()
                if since <= s.time <= until and (not pairs or _matches(s, pairs))
            ]
        if not series.indexed:
            series.build_index()
        samples = series.samples
        times = series.times
        lo = bisect_left(times, since, series.start)
        hi = bisect_right(times, until, lo)
        if not pairs:
            return samples[lo:hi]
        entry = series.shortest_postings(pairs)
        if entry is None:
            return []
        offset, plist = entry
        abs0 = series.abs0
        plo = bisect_left(plist, abs0 + lo, offset)
        phi = bisect_left(plist, abs0 + hi, plo)
        out = []
        for pos in plist[plo:phi]:
            sample = samples[pos - abs0]
            if _matches(sample, pairs):
                out.append(sample)
        return out

    def latest(self, name: str, **tag_filter: str) -> Optional[MetricSample]:
        """The newest matching sample, or None (reverse walk, early exit)."""
        series = self._samples.get(name)
        if series is None:
            return None
        if not tag_filter:
            return series.samples[-1] if len(series) else None
        pairs = make_tags(**tag_filter)
        if not series.in_order or not series.indexed:
            # The reverse scan exits on the newest match, typically
            # within a few steps — not worth forcing an index build.
            samples = series.samples
            for i in range(len(samples) - 1, series.start - 1, -1):
                if _matches(samples[i], pairs):
                    return samples[i]
            return None
        entry = series.shortest_postings(pairs)
        if entry is None:
            return None
        offset, plist = entry
        abs0 = series.abs0
        samples = series.samples
        for i in range(len(plist) - 1, offset - 1, -1):
            sample = samples[plist[i] - abs0]
            if _matches(sample, pairs):
                return sample
        return None

    def latest_per_series(
        self, name: str
    ) -> Dict[Tuple[Tuple[str, str], ...], MetricSample]:
        """The newest sample for each distinct tag set under ``name``.

        The Prometheus-exposition accessor: one gauge line per
        (name, label set).  A single forward pass over the live window
        — later samples overwrite earlier ones per tag set — so it
        costs O(live) regardless of how many tag combinations exist,
        where per-combination :meth:`latest` probes would multiply.
        """
        series = self._samples.get(name)
        if series is None:
            return {}
        out: Dict[Tuple[Tuple[str, str], ...], MetricSample] = {}
        for sample in series.live():
            out[sample.tags] = sample
        return out

    def series(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """Columnar (times, values) float64 arrays for ``name``.

        The cheap bulk accessor for :mod:`repro.analysis` aggregations —
        no per-sample Python objects cross the boundary.  The arrays are
        cached per series and invalidated by the series' revision
        counter, so repeated aggregation passes over a quiescent store
        (the common end-of-run report shape) build the columns once.
        Treat the returned arrays as read-only — they are shared.
        """
        ser = self._samples.get(name)
        if ser is None or not len(ser):
            return np.empty(0, dtype=float), np.empty(0, dtype=float)
        cached = self._col_cache.get(name)
        if cached is not None and cached[0] == ser.rev:
            return cached[1], cached[2]
        start = ser.start
        n = len(ser.samples) - start
        live = ser.samples[start:]
        times = np.fromiter((s.time for s in live), dtype=float, count=n)
        values = np.fromiter((s.value for s in live), dtype=float, count=n)
        self._col_cache[name] = (ser.rev, times, values)
        return times, values

    def series_window(
        self,
        name: str,
        since: float = -float("inf"),
        until: float = float("inf"),
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Columnar (times, values) restricted to ``[since, until]``.

        Vectorized: a ``searchsorted`` slice of the cached columns when
        the series is time-ordered (every simulation producer is), a
        boolean mask otherwise — never a per-sample Python loop.
        """
        times, values = self.series(name)
        if not len(times):
            return times, values
        ser = self._samples.get(name)
        if ser is not None and not ser.in_order:
            mask = (times >= since) & (times <= until)
            return times[mask], values[mask]
        lo = int(np.searchsorted(times, since, side="left"))
        hi = int(np.searchsorted(times, until, side="right"))
        return times[lo:hi], values[lo:hi]

    def window_stats(
        self,
        name: str,
        since: float = -float("inf"),
        until: float = float("inf"),
    ) -> Dict[str, float]:
        """Vectorized reductions over one time window.

        Returns ``{"count", "sum", "mean", "min", "max"}`` (NaNs for
        the empty window, except count/sum) in one pass over the cached
        columns — the building block for windowed dashboards that used
        to re-query per statistic.
        """
        _times, values = self.series_window(name, since, until)
        n = len(values)
        if not n:
            return {"count": 0.0, "sum": 0.0,
                    "mean": float("nan"), "min": float("nan"),
                    "max": float("nan")}
        total = float(values.sum())
        return {
            "count": float(n),
            "sum": total,
            "mean": total / n,
            "min": float(values.min()),
            "max": float(values.max()),
        }

    def __len__(self) -> int:
        return self._count


#: Per-sample retained-memory heuristic in bytes: one slotted
#: MetricSample (~64 B) plus its share of the tag tuples, list slots,
#: and index postings.  Deliberately conservative (high): the unit of
#: the scale ladder's metrics memory bound.
SAMPLE_COST_BYTES = 160


class PeriodicProducer:
    """A process that calls ``collect()`` every ``interval`` seconds.

    ``collect`` returns an iterable of samples which are delivered to
    every attached sink.  Collection exceptions mark the producer
    degraded but do not kill the loop (a monitoring component must not
    take the grid down with it).
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        interval: float,
        collect: Callable[[], Iterable[MetricSample]],
        sinks: Optional[List[MetricStore]] = None,
        enabled: bool = True,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.engine = engine
        self.name = name
        self.interval = interval
        self.collect = collect
        self.sinks: List[MetricStore] = sinks or []
        self.enabled = enabled
        self.collections = 0
        self.errors = 0
        self.process = engine.process(self._run(), name=f"producer-{name}")

    def _run(self):
        while True:
            yield self.engine.timeout(self.interval)
            if not self.enabled:
                continue
            try:
                samples = list(self.collect())
            except Exception:  # noqa: BLE001 - monitoring must survive
                self.errors += 1
                continue
            self.collections += 1
            for sink in self.sinks:
                sink.extend(samples)
