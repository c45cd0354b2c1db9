"""MonALISA: agent-based monitoring with a central repository (§5.2).

"MonALISA ... provides access to monitoring data provided by a variety
of information providers, including agents which monitored the GRAM
logfiles, job queues, and Ganglia metrics ... Custom agents were
developed to collect VO-specific activity at sites such as jobs run,
compute element usage, and I/O.  The MonALISA central repository
collects its information in a central server at the iGOC, storing it in
a round robin-like database."

Per-site :class:`MonALISAAgent` runs three sensors (GRAM log tail, job
queue, VO activity) plus a Ganglia pass-through.  Each sensor group's
series share one round-robin database at the central
:class:`MonALISARepository`, so a collection writes one row per group;
the repository reads each (metric, site[,vo]) series through its own
handle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.engine import Engine
from ..sim.units import HOUR, MINUTE
from .core import PeriodicProducer, make_tags
from .ganglia import METRICS
from .rrd import RoundRobinDatabase, RRDSeries

_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


class MonALISARepository:
    """The iGOC central repository: an RRD series per (metric, tag-set),
    one shared-index database per sensor group."""

    def __init__(
        self,
        bin_width: float = 10 * MINUTE,
        capacity: int = 50_000,
        consolidation: str = "avg",
    ) -> None:
        self.bin_width = bin_width
        self.capacity = capacity
        self.consolidation = consolidation
        #: (name, tags) -> the series' read handle, in first-write order.
        self._rrds: Dict[_Key, RRDSeries] = {}

    def register_group(self, keys: Sequence[_Key]) -> RoundRobinDatabase:
        """A database for series always written together, one per
        ``(name, tags)`` key in row order: the one place an RRD is made.
        Agents call it on a group's first write, so ``_rrds`` keeps
        first-write order.  A key has one writer."""
        database = RoundRobinDatabase(self.bin_width, self.capacity, self.consolidation)
        rrds = self._rrds
        for key in keys:
            if key in rrds:
                raise ValueError(f"series {key!r} is already registered")
            rrds[key] = database.add_series()
        return database

    def series(self, name: str, **tags: str) -> List[Tuple[float, float]]:
        """The consolidated series for an exact (metric, tags) key."""
        rrd = self._rrds.get((name, make_tags(**tags)))
        return rrd.series() if rrd else []

    def series_matching(self, name: str) -> Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]]:
        """Every series of ``name``, by tags, in first-write order."""
        return {tags: rrd.series()
                for (metric, tags), rrd in self._rrds.items() if metric == name}

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


#: Where Ganglia's row holds ``cpu.busy``.
_CPU_BUSY = METRICS.index("cpu.busy")


class MonALISAAgent:
    """The per-site station agent and its sensors.

    Each collection reads every sensor, then writes each group's
    readings as one row of the group's database at the central
    repository.  A group's database is registered on its first write,
    so the repository holds only series that were written, in
    first-write order.
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
        #: The gatekeeper last read and its running line counts then
        #: (submits, completions, failures).
        self._gram_seen: Tuple[object, Tuple[int, int, int]] = (None, (0, 0, 0))
        self._tags = make_tags(site=site.name)
        #: vo -> its per-VO tags, in ``vos`` order (duplicates dropped).
        self._vo_tags = {vo: make_tags(site=site.name, vo=vo) for vo in vos}
        #: sensor group -> its database, registered on the group's first write.
        self._databases: Dict[str, RoundRobinDatabase] = {}
        self.producer = PeriodicProducer(
            engine, f"monalisa-{site.name}", interval, self._collect
        )
        site.attach_service("monalisa", self)

    def _register(self, group: str) -> RoundRobinDatabase:
        if group == "vo":
            keys = [("vo.cpus_in_use", tags) for tags in self._vo_tags.values()]
        else:
            keys = [(name, self._tags) for name in _GROUP_NAMES[group]]
        database = self._databases[group] = self.repository.register_group(keys)
        return database

    # -- sensors -----------------------------------------------------------
    def _gram_log_sensor(self) -> Optional[Tuple[float, ...]]:
        """Tail the gatekeeper log: submissions/completions/failures
        logged since the last pass (the difference of the gatekeeper's
        running line counts; a new gatekeeper starts from zero), plus
        the current load (the §6.4 quantity) and the managed-job
        count."""
        gatekeeper = self.site.services.get("gatekeeper")
        if gatekeeper is None:
            return None
        lines = gatekeeper.log_lines.get
        submits, dones, fails = totals = (
            lines("submit", 0), lines("done", 0),
            lines("failed", 0) + lines("overload_reject", 0))
        seen_gatekeeper, seen = self._gram_seen
        self._gram_seen = (gatekeeper, totals)
        if seen_gatekeeper is gatekeeper:
            submits -= seen[0]
            dones -= seen[1]
            fails -= seen[2]
        return (float(submits), float(dones), float(fails),
                gatekeeper.load(), float(gatekeeper.managed_count))

    def _vo_activity_sensor(self, lrm) -> List[float]:
        """The custom Grid3 agents: per-VO CPUs in use at this site."""
        running = lrm.running_by_vo.get
        return [float(running(vo, 0)) for vo in self._vo_tags]

    def _collect(self) -> Tuple[()]:
        """Read every sensor, then write one row per sensor group.  A
        sensor that raises leaves every RRD untouched.  Nothing is left
        for the producer to deliver."""
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
        # Ganglia pass-through (the "Ganglia metrics" agents): the
        # newest cpu.busy of the site's Ganglia row, once there is one.
        ganglia = services.get("ganglia")
        if ganglia is not None and ganglia.collected_at is not None:
            readings.append(("ganglia", (ganglia.readings[_CPU_BUSY],)))
        now = self.engine.now
        databases = self._databases
        for group, values in readings:
            database = databases.get(group)
            if database is None:
                database = self._register(group)
            database.write(now, values)
        return ()
