"""MonALISA: agent-based monitoring with a central repository (§5.2).

"MonALISA ... provides access to monitoring data provided by a variety
of information providers, including agents which monitored the GRAM
logfiles, job queues, and Ganglia metrics ... Custom agents were
developed to collect VO-specific activity at sites such as jobs run,
compute element usage, and I/O.  The MonALISA central repository
collects its information in a central server at the iGOC, storing it in
a round robin-like database."

Per-site :class:`MonALISAAgent` runs three sensors (GRAM log tail, job
queue, VO activity) plus a Ganglia pass-through and writes each reading
into its per-(metric, site[,vo]) round-robin database at the central
:class:`MonALISARepository`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.engine import Engine
from ..sim.units import HOUR, MINUTE
from .core import MetricSample, PeriodicProducer, make_tags
from .rrd import RoundRobinDatabase


class MonALISARepository:
    """The iGOC central repository: RRD per (metric, tag-set)."""

    def __init__(
        self,
        bin_width: float = 10 * MINUTE,
        capacity: int = 50_000,
        consolidation: str = "avg",
    ) -> None:
        self.bin_width = bin_width
        self.capacity = capacity
        self.consolidation = consolidation
        self._rrds: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], RoundRobinDatabase] = {}

    def _rrd(self, name: str, tags: Tuple[Tuple[str, str], ...]) -> RoundRobinDatabase:
        """The RRD of (name, tags), created on first use: the one place
        an RRD is made, so ``_rrds`` keeps first-write order."""
        key = (name, tags)
        rrd = self._rrds.get(key)
        if rrd is None:
            rrd = self._rrds[key] = RoundRobinDatabase(
                self.bin_width, self.capacity, self.consolidation
            )
        return rrd

    def ingest(self, samples: List[MetricSample]) -> None:
        """Write samples into their per-series RRDs."""
        for sample in samples:
            self._rrd(sample.name, sample.tags).update(sample.time, sample.value)

    def series(self, name: str, **tags: str) -> List[Tuple[float, float]]:
        """The consolidated series for an exact (metric, tags) key."""
        key = (name, make_tags(**tags))
        rrd = self._rrds.get(key)
        return rrd.series() if rrd else []

    def series_matching(self, name: str, **tag_filter: str) -> Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]]:
        """All series of ``name`` whose tags include ``tag_filter``."""
        wanted = set(make_tags(**tag_filter))
        out = {}
        for (metric, tags), rrd in self._rrds.items():
            if metric == name and wanted <= set(tags):
                out[tags] = rrd.series()
        return out

    def aggregate_latest(self, name: str, **tag_filter: str) -> float:
        """Sum of the latest bin value across matching series (the
        repository's grid-wide view, e.g. total CPUs in use)."""
        total = 0.0
        for series in self.series_matching(name, **tag_filter).values():
            if series:
                total += series[-1][1]
        return total

    def __len__(self) -> int:
        return len(self._rrds)


#: Metric names of the per-site sensor groups, in write order.  The
#: ``vo`` group writes ``vo.cpus_in_use`` once per VO instead.
_GROUP_NAMES = {
    "gram": ("gram.submits", "gram.completions", "gram.failures",
             "gram.load", "gram.managed"),
    "queue": ("queue.idle", "queue.running"),
    "ganglia": ("ganglia.cpu_busy",),
}


class MonALISAAgent:
    """The per-site station agent and its sensors.

    Each collection reads every sensor, then writes the readings straight
    into the agent's RRDs at the central repository.  A sensor group's
    RRD handles are resolved on the group's first write, so the
    repository holds only series that were written, in first-write
    order.
    """

    def __init__(
        self,
        engine: Engine,
        site,
        repository: MonALISARepository,
        vos: List[str],
        interval: float = 10 * MINUTE,
    ) -> None:
        self.engine = engine
        self.site = site
        self.repository = repository
        self.vos = vos
        self._gram_log_cursor = 0
        self._tags = make_tags(site=site.name)
        #: vo -> its per-VO tags, in ``vos`` order (duplicates dropped).
        self._vo_tags = {vo: make_tags(site=site.name, vo=vo) for vo in vos}
        #: sensor group -> its RRDs, resolved on the group's first write.
        self._handles: Dict[str, List[RoundRobinDatabase]] = {}
        self.producer = PeriodicProducer(
            engine, f"monalisa-{site.name}", interval, self._collect
        )
        site.attach_service("monalisa", self)

    def _group_rrds(self, group: str) -> List[RoundRobinDatabase]:
        rrds = self._handles.get(group)
        if rrds is None:
            rrd = self.repository._rrd
            if group == "vo":
                rrds = [rrd("vo.cpus_in_use", tags) for tags in self._vo_tags.values()]
            else:
                rrds = [rrd(name, self._tags) for name in _GROUP_NAMES[group]]
            self._handles[group] = rrds
        return rrds

    # -- sensors -----------------------------------------------------------
    def _gram_log_sensor(self) -> Optional[Tuple[float, ...]]:
        """Tail the gatekeeper log: submissions/completions/failures since
        the last pass (one walk), plus the current load (the §6.4
        quantity) and the managed-job count."""
        gatekeeper = self.site.services.get("gatekeeper")
        if gatekeeper is None:
            return None
        new_entries, self._gram_log_cursor = gatekeeper.log.since(
            self._gram_log_cursor
        )
        submits = dones = fails = 0
        for entry in new_entries:
            event = entry[1]
            if event == "submit":
                submits += 1
            elif event == "done":
                dones += 1
            elif event == "failed" or event == "overload_reject":
                fails += 1
        return (float(submits), float(dones), float(fails),
                gatekeeper.load(), float(gatekeeper.managed_count))

    def _vo_activity_sensor(self, lrm) -> List[float]:
        """The custom Grid3 agents: per-VO CPUs in use at this site."""
        counts = dict.fromkeys(self._vo_tags, 0)
        for job in lrm.running_jobs():
            if job.vo in counts:
                counts[job.vo] += 1
        return [float(count) for count in counts.values()]

    def _collect(self) -> Tuple[()]:
        """Read every sensor, then write the readings.  A sensor that
        raises leaves every RRD untouched.  Nothing is left for the
        producer to deliver."""
        services = self.site.services
        readings = []
        gram = self._gram_log_sensor()
        if gram is not None:
            readings.append(("gram", gram))
        lrm = services.get("lrm")
        if lrm is not None:
            readings.append(("queue", (float(lrm.queue_length),
                                       float(lrm.running_count))))
            readings.append(("vo", self._vo_activity_sensor(lrm)))
        # Ganglia pass-through (the "Ganglia metrics" agents).
        ganglia = services.get("ganglia")
        if ganglia is not None:
            latest = ganglia.local_store.latest("cpu.busy", site=self.site.name)
            if latest is not None:
                readings.append(("ganglia", (latest.value,)))
        now = self.engine.now
        for group, values in readings:
            for rrd, value in zip(self._group_rrds(group), values):
                rrd.update(now, value)
        return ()
