"""Ganglia: cluster monitoring (§5.1–5.2).

"Ganglia is used to collect cluster monitoring information such as CPU
and network load and memory and disk usage.  Ganglia-collected
information is available through web pages served at the sites and a
summary [at] a central server at iGOC."

A :class:`GangliaAgent` samples its site's cluster/SE/GridFTP state
periodically into the site-local store; the central :class:`GangliaWeb`
aggregates the latest values across sites (the iGOC summary page).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.engine import Engine
from ..sim.units import MINUTE
from .core import MetricSample, MetricStore, PeriodicProducer, make_tags


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
        #: The site-local web page's backing store (bounded ring).
        self.local_store = MetricStore(max_samples=2000)
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
        # Bounded: the iGOC summary only ever serves recent values.
        self.store = MetricStore(max_samples=100_000)

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
