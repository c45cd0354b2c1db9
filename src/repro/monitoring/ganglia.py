"""Ganglia: cluster monitoring (§5.1–5.2).

"Ganglia is used to collect cluster monitoring information such as CPU
and network load and memory and disk usage.  Ganglia-collected
information is available through web pages served at the sites and a
summary [at] a central server at iGOC."

A :class:`GangliaAgent` samples its site's cluster/SE/GridFTP state
periodically into one fixed row: the time of its last collect and its
readings of :data:`METRICS`.  Both pages show current values, so both
are read-only :class:`GangliaPage` views over rows, not stores: the
site-local page over its own agent's row, the central
:class:`GangliaWeb` (the iGOC summary) over every registered agent's.
A page answers 6 samples per agent that has collected, however long
the run, and nothing is written twice.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..sim.engine import Engine
from ..sim.units import MINUTE
from .core import MetricSample, MetricStore, PeriodicProducer, make_tags

#: The metrics of an agent's row, in row order.
METRICS = ("cpu.total", "cpu.busy", "cpu.load", "disk.used", "disk.free",
           "net.bytes")


class GangliaPage(MetricStore):
    """A read-only MetricStore over the rows of a list of Ganglia agents.

    Each agent that has collected contributes one sample per metric,
    stamped with its last-collect time and tagged with its site.  Reads
    see the agents least recently collected first (ties in ``agents``
    order), so ``names``, ``latest``, ``latest_per_series`` and
    ``latest_values`` answer what a plain store fed every collect
    answers; ``query`` and ``window_stats`` see only the newest row of
    each agent.
    ``append``/``extend`` raise.
    """

    def __init__(self, agents: Iterable["GangliaAgent"] = ()) -> None:
        super().__init__()
        self.agents: List[GangliaAgent] = list(agents)

    def append(self, sample: MetricSample) -> None:
        raise TypeError("a Ganglia page is read-only")

    def extend(self, samples: Iterable[MetricSample]) -> None:
        raise TypeError("a Ganglia page is read-only")

    def _collected(self) -> List["GangliaAgent"]:
        """The agents that have collected, least recently first (ties in
        ``agents`` order)."""
        return sorted((a for a in self.agents if a.collected_at is not None),
                      key=lambda agent: agent.collected_at)

    def _retained(self, name: str) -> List[MetricSample]:
        if name not in METRICS:
            return []
        i = METRICS.index(name)
        return [MetricSample(a.collected_at, name, a.readings[i], a.tags)
                for a in self._collected()]

    def latest_values(self, name: str) -> Dict[Tuple[Tuple[str, str], ...], float]:
        """Straight from the rows, with no sample built: the newest
        collect wins per tag set, as in :meth:`_retained` order."""
        if name not in METRICS:
            return {}
        i = METRICS.index(name)
        return {a.tags: a.readings[i] for a in self._collected()}

    def names(self) -> List[str]:
        """The row's metrics once any agent has collected, none before."""
        if any(a.collected_at is not None for a in self.agents):
            return sorted(METRICS)
        return []

    def __len__(self) -> int:
        return len(METRICS) * sum(a.collected_at is not None for a in self.agents)


class GangliaAgent:
    """Per-site gmond: keeps its site's row, read by both pages."""

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
        #: Time of the last collect (None until the first one) and its
        #: readings, in :data:`METRICS` order.
        self.collected_at: Optional[float] = None
        self.readings: Tuple[float, ...] = ()
        self.tags = make_tags(site=site.name)
        self._last_gridftp_bytes = 0.0
        #: The site-local web page.
        self.local_store = GangliaPage([self])
        if central is not None:
            central.store.agents.append(self)
        self.producer = PeriodicProducer(
            engine, f"ganglia-{site.name}", interval, self._collect
        )
        site.attach_service("ganglia", self)

    def _collect(self) -> Tuple[()]:
        """Read the site, then overwrite the row.  A reading that raises
        leaves the row untouched.  Nothing is left for the producer to
        deliver."""
        cluster = self.site.cluster
        storage = self.site.storage
        gridftp = self.site.services.get("gridftp")
        net_bytes = 0.0
        if gridftp is not None:
            total = gridftp.bytes_sent + gridftp.bytes_received
            net_bytes = total - self._last_gridftp_bytes
            self._last_gridftp_bytes = total
        readings = (float(cluster.total_cpus), float(cluster.busy_cpus),
                    cluster.utilisation, storage.used, storage.free, net_bytes)
        self.collected_at = self.engine.now
        self.readings = readings
        return ()


class GangliaWeb:
    """The central Ganglia summary at the iGOC."""

    def __init__(self) -> None:
        #: The page over every agent registered with this server.
        self.store = GangliaPage()
