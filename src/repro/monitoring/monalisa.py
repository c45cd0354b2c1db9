"""MonALISA: agent-based monitoring with a central repository (§5.2).

"MonALISA ... provides access to monitoring data provided by a variety
of information providers, including agents which monitored the GRAM
logfiles, job queues, and Ganglia metrics ... Custom agents were
developed to collect VO-specific activity at sites such as jobs run,
compute element usage, and I/O.  The MonALISA central repository
collects its information in a central server at the iGOC, storing it in
a round robin-like database."

Per-site :class:`MonALISAAgent` runs three sensors (GRAM log tail, job
queue, VO activity) and ships samples to the central
:class:`MonALISARepository`, which consolidates them into per-(metric,
site[,vo]) round-robin databases.
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

    def ingest(self, samples: List[MetricSample]) -> None:
        """Store samples into their per-series RRDs."""
        for sample in samples:
            key = (sample.name, sample.tags)
            rrd = self._rrds.get(key)
            if rrd is None:
                rrd = RoundRobinDatabase(self.bin_width, self.capacity, self.consolidation)
                self._rrds[key] = rrd
            rrd.update(sample.time, sample.value)

    # Make the repository usable as a PeriodicProducer sink.
    def extend(self, samples) -> None:
        self.ingest(list(samples))

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


class MonALISAAgent:
    """The per-site station agent and its sensors."""

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
        self.producer = PeriodicProducer(
            engine, f"monalisa-{site.name}", interval, self._collect, [repository]
        )
        site.attach_service("monalisa", self)

    # -- sensors -----------------------------------------------------------
    def _gram_log_sensor(self, now, tags) -> List[MetricSample]:
        """Tail the gatekeeper log: submissions/completions since last
        pass, plus the current load (the §6.4 quantity)."""
        gatekeeper = self.site.services.get("gatekeeper")
        if gatekeeper is None:
            return []
        new_entries, self._gram_log_cursor = gatekeeper.log.since(
            self._gram_log_cursor
        )
        submits = sum(1 for e in new_entries if e[1] == "submit")
        dones = sum(1 for e in new_entries if e[1] == "done")
        fails = sum(1 for e in new_entries if e[1] in ("failed", "overload_reject"))
        return [
            MetricSample(now, "gram.submits", float(submits), tags),
            MetricSample(now, "gram.completions", float(dones), tags),
            MetricSample(now, "gram.failures", float(fails), tags),
            MetricSample(now, "gram.load", gatekeeper.load(), tags),
            MetricSample(now, "gram.managed", float(gatekeeper.managed_count), tags),
        ]

    def _queue_sensor(self, now, tags) -> List[MetricSample]:
        lrm = self.site.services.get("lrm")
        if lrm is None:
            return []
        return [
            MetricSample(now, "queue.idle", float(lrm.queue_length), tags),
            MetricSample(now, "queue.running", float(lrm.running_count), tags),
        ]

    def _vo_activity_sensor(self, now) -> List[MetricSample]:
        """The custom Grid3 agents: per-VO CPUs in use at this site."""
        lrm = self.site.services.get("lrm")
        if lrm is None:
            return []
        vo_tags = self._vo_tags
        counts = dict.fromkeys(vo_tags, 0)
        for job in lrm.running_jobs():
            if job.vo in counts:
                counts[job.vo] += 1
        return [
            MetricSample(now, "vo.cpus_in_use", float(count), vo_tags[vo])
            for vo, count in counts.items()
        ]

    def _collect(self) -> List[MetricSample]:
        now = self.engine.now
        tags = self._tags
        samples = []
        samples.extend(self._gram_log_sensor(now, tags))
        samples.extend(self._queue_sensor(now, tags))
        samples.extend(self._vo_activity_sensor(now))
        # Ganglia pass-through (the "Ganglia metrics" agents).
        ganglia = self.site.services.get("ganglia")
        if ganglia is not None:
            latest = ganglia.local_store.latest("cpu.busy", site=self.site.name)
            if latest is not None:
                samples.append(
                    MetricSample(now, "ganglia.cpu_busy", latest.value, tags)
                )
        return samples
