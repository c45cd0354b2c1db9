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

from typing import Collection, Dict, Iterable, List, Optional, Tuple

from ..sim.engine import Engine
from ..sim.units import MINUTE
from .core import MetricSample, MetricStore, PeriodicProducer, make_tags

Tags = Tuple[Tuple[str, str], ...]


class LatestValueStore(MetricStore):
    """A MetricStore that keeps only the newest sample per (name, tags).

    A new sample replaces the one with the same name and tags.  Only
    retention differs from :class:`MetricStore`, so ``names``,
    ``latest`` and ``latest_per_series`` answer what a plain store fed
    the same stream answers; ``query``, ``series`` and ``window_stats``
    see only the retained samples, in the order they were written, and
    ``len()`` is the number of distinct (name, tags).
    """

    def __init__(self) -> None:
        super().__init__()
        #: name -> {tags: newest sample}, least recently written first.
        self._samples: Dict[str, Dict[Tags, MetricSample]] = {}

    def append(self, sample: MetricSample) -> None:
        self.extend((sample,))

    def extend(self, samples: Iterable[MetricSample]) -> None:
        retained = self._samples
        col_cache = self._col_cache
        for sample in samples:
            name = sample.name
            per_tags = retained.get(name)
            if per_tags is None:
                per_tags = retained[name] = {}
            else:
                # Re-insert so the dict stays in write order.
                per_tags.pop(sample.tags, None)
            per_tags[sample.tags] = sample
            col_cache.pop(name, None)

    def _retained(self, name: str) -> Collection[MetricSample]:
        per_tags = self._samples.get(name)
        return per_tags.values() if per_tags is not None else ()


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
