"""Ganglia: cluster monitoring (§5.1–5.2).

"Ganglia is used to collect cluster monitoring information such as CPU
and network load and memory and disk usage.  Ganglia-collected
information is available through web pages served at the sites and a
summary [at] a central server at iGOC."

A :class:`GangliaAgent` samples its site's cluster/SE/GridFTP state
periodically into the site-local store; the central :class:`GangliaWeb`
aggregates the latest values across sites (the iGOC summary page).
Both pages show current values, so each store is a
:class:`LatestValueStore`, which keeps the newest sample per (metric,
tags) and no history: a site-local store holds its 6 metrics, the
central one 6 per site, however long the run.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..sim.engine import Engine
from ..sim.units import MINUTE
from .core import (
    MetricSample,
    MetricStore,
    PeriodicProducer,
    _matches,
    make_tags,
)

Tags = Tuple[Tuple[str, str], ...]


class LatestValueStore(MetricStore):
    """A MetricStore that keeps only the newest sample per (name, tags).

    A new sample replaces the one with the same name and tags.
    ``names``, ``latest`` and ``latest_per_series`` answer what a plain
    :class:`MetricStore` fed the same stream answers; ``query`` and
    ``series`` see only the retained samples, in the order they were
    written.
    """

    def __init__(self) -> None:
        super().__init__()
        #: name -> {tags: newest sample}, least recently written first.
        self._latest: Dict[str, Dict[Tags, MetricSample]] = {}

    def append(self, sample: MetricSample) -> None:
        self.extend((sample,))

    def extend(self, samples: Iterable[MetricSample]) -> None:
        latest = self._latest
        for sample in samples:
            per_tags = latest.get(sample.name)
            if per_tags is None:
                per_tags = latest[sample.name] = {}
            else:
                # Re-insert so the dict stays in write order.
                per_tags.pop(sample.tags, None)
            per_tags[sample.tags] = sample

    def names(self) -> List[str]:
        return sorted(self._latest)

    def query(
        self,
        name: str,
        since: float = -float("inf"),
        until: float = float("inf"),
        **tag_filter: str,
    ) -> List[MetricSample]:
        pairs = make_tags(**tag_filter)
        return [s for s in self._latest.get(name, {}).values()
                if since <= s.time <= until and _matches(s, pairs)]

    def latest(self, name: str, **tag_filter: str) -> Optional[MetricSample]:
        pairs = make_tags(**tag_filter)
        for sample in reversed(self._latest.get(name, {}).values()):
            if _matches(sample, pairs):
                return sample
        return None

    def latest_per_series(self, name: str) -> Dict[Tags, MetricSample]:
        return dict(self._latest.get(name, {}))

    def series(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        retained = self._latest.get(name, {}).values()
        return (np.array([s.time for s in retained], dtype=float),
                np.array([s.value for s in retained], dtype=float))

    def series_window(
        self,
        name: str,
        since: float = -float("inf"),
        until: float = float("inf"),
    ) -> Tuple[np.ndarray, np.ndarray]:
        times, values = self.series(name)
        mask = (times >= since) & (times <= until)
        return times[mask], values[mask]

    def __len__(self) -> int:
        return sum(len(per_tags) for per_tags in self._latest.values())


class GangliaAgent:
    """Per-site gmond: publishes cluster metrics locally and upstream."""

    def __init__(
        self,
        engine: Engine,
        site,
        central: Optional["GangliaWeb"] = None,
        interval: float = 5 * MINUTE,
    ) -> None:
        self.engine = engine
        self.site = site
        self.central = central
        #: The site-local web page's backing store.
        self.local_store = LatestValueStore()
        self._last_gridftp_bytes = 0.0
        self._tags = make_tags(site=site.name)
        sinks = [self.local_store]
        if central is not None:
            sinks.append(central.store)
        self.producer = PeriodicProducer(
            engine, f"ganglia-{site.name}", interval, self._collect, sinks
        )
        site.attach_service("ganglia", self)

    def _collect(self) -> List[MetricSample]:
        now = self.engine.now
        tags = self._tags
        cluster = self.site.cluster
        gridftp = self.site.services.get("gridftp")
        net_bytes = 0.0
        if gridftp is not None:
            total = gridftp.bytes_sent + gridftp.bytes_received
            net_bytes = total - self._last_gridftp_bytes
            self._last_gridftp_bytes = total
        return [
            MetricSample(now, "cpu.total", float(cluster.total_cpus), tags),
            MetricSample(now, "cpu.busy", float(cluster.busy_cpus), tags),
            MetricSample(now, "cpu.load", cluster.utilisation, tags),
            MetricSample(now, "disk.used", self.site.storage.used, tags),
            MetricSample(now, "disk.free", self.site.storage.free, tags),
            MetricSample(now, "net.bytes", net_bytes, tags),
        ]


class GangliaWeb:
    """The central Ganglia summary at the iGOC."""

    def __init__(self) -> None:
        self.store = LatestValueStore()

    def latest(self, site: str, metric: str) -> Optional[float]:
        """Newest value of ``metric`` for ``site`` (None if never seen)."""
        sample = self.store.latest(metric, site=site)
        return sample.value if sample else None

    def grid_summary(self, metric: str, sites: List[str]) -> float:
        """Sum of the latest per-site values (the hierarchical grid view)."""
        total = 0.0
        for site in sites:
            value = self.latest(site, metric)
            if value is not None:
                total += value
        return total
