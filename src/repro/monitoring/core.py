"""The monitoring framework skeleton of Figure 1.

"Producers provide monitored information, consumers use this
information, and intermediaries have both roles, sometimes providing
aggregation or filtering functions."  Concrete tools (Ganglia, MonALISA,
ACDC, the Site Status Catalog) are built from these pieces:

* a :class:`MetricSample` is one observation;
* a :class:`MetricStore` is the queryable sample sink: one bounded
  deque per metric name, scanned on read (runs append batches and read
  whole series or one trailing window, so there is no index).  Every
  read goes through two hooks, :meth:`MetricStore._retained` for
  samples and :meth:`MetricStore._window_values` for ``window_stats``.
  A read-only subclass answers them from state kept elsewhere: the
  Ganglia pages read their agents' rows, the service-health view the
  downtime ledgers;
* :class:`PeriodicProducer` is the common "sample every N seconds"
  process shape.

The deliberate redundancy the paper defends ("permitting crosschecks on
the data collected", §5.2) shows up as several producers observing the
same underlying state through different paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple,
)

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


def make_tags(**kwargs: str) -> Tuple[Tuple[str, str], ...]:
    """Build a canonical (sorted) tag tuple."""
    return tuple(sorted((k, str(v)) for k, v in kwargs.items()))


class MetricStore:
    """An in-memory, queryable sample sink (per-metric series).

    Each metric name keeps a ``deque(maxlen=max_samples)`` of its
    samples in arrival order; ``max_samples`` bounds the retained
    history (ring semantics) so site-local stores in long runs cannot
    grow without bound.  ``query`` is a scan, ``latest`` the last
    retained sample, ``latest_per_series`` one forward pass.

    ``names`` and ``len`` read ``_samples``; ``window_stats`` reads
    :meth:`_window_values`, ``latest_values`` reads
    ``latest_per_series``, every other reader :meth:`_retained`.  The
    read-only views (the Ganglia pages, the service-health view) make
    ``append``/``extend`` raise and answer ``names``, ``len`` and the
    two hooks from what they view, overriding a reader only where a hot
    path needs a shortcut.
    """

    def __init__(self, max_samples: Optional[int] = None) -> None:
        self._samples: Dict[str, Deque[MetricSample]] = {}
        self.max_samples = max_samples

    def append(self, sample: MetricSample) -> None:
        """Record one sample."""
        name = sample.name
        series = self._samples.get(name)
        if series is None:
            series = self._samples[name] = deque(maxlen=self.max_samples)
        series.append(sample)

    def extend(self, samples: Iterable[MetricSample]) -> None:
        """Record a batch (the :class:`PeriodicProducer` delivery path)."""
        for sample in samples:
            self.append(sample)

    def _retained(self, name: str) -> Sequence[MetricSample]:
        """The retained samples of ``name``, oldest first."""
        return self._samples.get(name, ())

    def _window_values(self, name: str, since: float,
                       until: float) -> np.ndarray:
        """The float64 values of ``name``'s samples in [since, until],
        in arrival order."""
        return np.fromiter((s.value for s in self._retained(name)
                            if since <= s.time <= until), dtype=float)

    def names(self) -> List[str]:
        """All metric names seen."""
        return sorted(self._samples)

    def query(
        self,
        name: str,
        since: float = -float("inf"),
        until: float = float("inf"),
    ) -> List[MetricSample]:
        """Samples of ``name`` in [since, until], oldest first."""
        return [s for s in self._retained(name) if since <= s.time <= until]

    def latest(self, name: str) -> Optional[MetricSample]:
        """The newest sample of ``name``, or None."""
        retained = self._retained(name)
        return retained[-1] if retained else None

    def latest_per_series(
        self, name: str
    ) -> Dict[Tuple[Tuple[str, str], ...], MetricSample]:
        """The newest sample for each distinct tag set under ``name``.

        The Prometheus-exposition accessor: one gauge line per
        (name, label set).  A single forward pass — later samples
        overwrite earlier ones per tag set — so it costs O(retained)
        regardless of how many tag combinations exist.
        """
        return {sample.tags: sample for sample in self._retained(name)}

    def latest_values(self, name: str) -> Dict[Tuple[Tuple[str, str], ...], float]:
        """The value of :meth:`latest_per_series`'s sample per tag set:
        all the exposition reads, so a view can answer it without
        building samples."""
        return {tags: sample.value
                for tags, sample in self.latest_per_series(name).items()}

    def window_stats(
        self,
        name: str,
        since: float = -float("inf"),
        until: float = float("inf"),
    ) -> Dict[str, float]:
        """Vectorized reductions over one time window.

        Returns ``{"count", "sum", "mean", "min", "max"}`` (NaNs for
        the empty window, except count/sum) in one pass over
        :meth:`_window_values`.
        """
        values = self._window_values(name, since, until)
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
        """The number of retained samples."""
        return sum(len(series) for series in self._samples.values())


#: Per-sample retained-memory heuristic in bytes: one slotted
#: MetricSample (~64 B) plus its share of the tag tuples and deque
#: slots.  Deliberately conservative (high): the unit of the scale
#: ladder's metrics memory bound.
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
