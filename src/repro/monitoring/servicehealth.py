"""Service-health monitoring: the ledgers and counters, read on demand.

The service substrate (:mod:`repro.services`) keeps per-service
lifecycle state, downtime ledgers, and counters.  This module publishes
them as the ``service-health`` store of the monitoring estate — the
"deliberate redundancy" of §5.2 applied to service health: probes (Site
Status Catalog) and ledgers (here) observe the same outages through
different paths and can be cross-checked.

Nothing is sampled or stored.  :class:`ServiceHealthView` is a
read-only :class:`~repro.monitoring.core.MetricStore` that answers the
store's two read hooks (``_retained`` for samples, ``_window_values``
for ``window_stats``) from the ledgers and live counters at query
time, so the alert engine, ``grid_stores`` and the Prometheus
exposition read it like any other store.  ``latest_values``, the
scrape's read, answers from the newest instant alone with no sample
and no array: for ``up``/``availability`` one ledger probe per service
at the newest grid instant, for a counter ``counters()`` now;
``latest_per_series`` stamps those values with that instant.
Published series, all tagged ``site=<owner site>``, ``role=<role>``:

* ``service.<role>.up`` — 1.0/0.0 liveness;
* ``service.<role>.availability`` — ledger availability since t=0;
* ``service.<role>.<counter>`` — every counter the service declares.

``up`` and ``availability`` are answered on the agent's sweep grid,
``start + k * interval`` (k >= 1) up to now, with exactly the values an
hourly sampler started at ``start`` would have recorded; a ledger
transition at a grid instant counts as before the read.  A service with
an empty ledger short-circuits to 1.0, so a read costs O(services)
plus O(instants) per service that has ever failed.  Counters carry no
history: each service contributes one live sample stamped ``now``.
Like the sampler's store, the view has no samples and no names before
the first grid instant, so short runs expose no service-health lines;
:meth:`ServiceHealthView.published_names` lists the names regardless.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..services import GridService, grid_services
from ..sim.engine import Engine
from ..sim.units import HOUR
from .core import MetricSample, MetricStore, make_tags

Tags = Tuple[Tuple[str, str], ...]

#: The series a service's downtime ledger answers.
_LEDGER_FIELDS = ("up", "availability")


def _split(name: str) -> Tuple[Optional[str], str]:
    """``service.<role>.<field>`` -> (role, field); roles hold no dots.
    The role is None for a name outside the ``service.`` namespace."""
    prefix, _, rest = name.partition(".")
    role, _, field = rest.partition(".")
    return (role if prefix == "service" else None), field


def _ledger_column(service: GridService, field: str,
                   times: List[float]) -> List[float]:
    """``service``'s ``up`` or ``availability`` at each of ``times``."""
    ledger = service.ledger
    if field == "availability":
        return [ledger.availability(0.0, t) for t in times]
    outages = ledger.outages()
    return [
        0.0 if any(o.start <= t and (o.end is None or t < o.end)
                   for o in outages) else 1.0
        for t in times
    ]


class ServiceHealthView(MetricStore):
    """A read-only MetricStore over a grid's service ledgers and counters.

    Every read of :class:`MetricStore` answers from the services at
    call time; ``append``/``extend`` raise, and the view holds no
    samples (``len`` is 0).
    """

    def __init__(self, agent: "ServiceHealthAgent") -> None:
        super().__init__()
        self.agent = agent
        #: The sweep grid so far.  ``_grid[0]`` is the start instant and
        #: carries no sample; later instants are built by repeated
        #: addition, the way the engine advances a periodic timeout.
        self._grid: List[float] = [agent.engine.now]
        #: role -> [(tags, service)], and the sites' total attach count
        #: when it was built; the names it publishes, once asked for.
        self._roster: Dict[str, List[Tuple[Tags, GridService]]] = {}
        self._roster_at: Optional[int] = None
        self._published: Optional[List[str]] = None
        self._tags: Dict[Tuple[str, str], Tags] = {}

    def append(self, sample: MetricSample) -> None:
        raise TypeError("the service-health view is read-only")

    def extend(self, samples: Iterable[MetricSample]) -> None:
        raise TypeError("the service-health view is read-only")

    # -- what is published, and when -------------------------------------
    def _services(self) -> Dict[str, List[Tuple[Tags, GridService]]]:
        """role -> [(tags, service)] in publication order: each site's
        services by key, then the extra services by display name.

        Re-read from the sites whenever one has attached a service since
        the last read (``Site.attachments`` only grows), so a read sees
        every service attached so far.  Only ``attach_service`` adds a
        GridService to a site; ``extra_services`` is fixed at creation.
        """
        agent = self.agent
        attached = sum(site.attachments for site in agent.sites)
        if self._roster_at == attached:
            return self._roster
        pairs = [
            (site.name, service)
            for site in agent.sites
            for _key, service in sorted(grid_services(site).items())
        ]
        pairs.extend(sorted(agent.extra_services.items()))
        roster: Dict[str, List[Tuple[Tags, GridService]]] = {}
        for site_name, service in pairs:
            role = service.role
            tags = self._tags.get((site_name, role))
            if tags is None:
                tags = self._tags[site_name, role] = make_tags(
                    site=site_name, role=role)
            roster.setdefault(role, []).append((tags, service))
        self._roster = roster
        self._roster_at = attached
        self._published = None
        return roster

    def _instants(self) -> List[float]:
        """The sweep grid through now (index 0 is the start instant)."""
        grid = self._grid
        now = self.agent.engine.now
        interval = self.agent.interval
        upcoming = grid[-1] + interval
        while upcoming <= now:
            grid.append(upcoming)
            upcoming = upcoming + interval
        return grid

    def _newest(self, name: str) -> Optional[float]:
        """The time of ``name``'s newest samples (None before any)."""
        grid = self._instants()
        if len(grid) == 1:
            return None
        if _split(name)[1] in _LEDGER_FIELDS:
            return grid[-1]
        return self.agent.engine.now

    def _read(
        self, name: str, since: float, until: float
    ) -> Tuple[List[float], List[Tags], np.ndarray]:
        """``name`` over [since, until] as (times, member tags, values),
        where ``values[i, j]`` is member j's value at ``times[i]``."""
        role, field = _split(name)
        entries = self._services().get(role, [])
        if field in _LEDGER_FIELDS:
            grid = self._instants()
            lo = bisect_left(grid, since, 1)
            times = grid[lo:bisect_right(grid, until, lo)]
            values = np.ones((len(times), len(entries)))
            if times:
                for j, (_tags, service) in enumerate(entries):
                    if len(service.ledger):
                        values[:, j] = _ledger_column(service, field, times)
            return times, [tags for tags, _service in entries], values
        members: List[Tags] = []
        row: List[float] = []
        for tags, service in entries:
            value = service.counters().get(field)
            if value is not None:
                members.append(tags)
                row.append(value)
        now = self.agent.engine.now
        started = len(self._instants()) > 1
        times = [now] if started and since <= now <= until else []
        values = np.array([row] * len(times), dtype=float)
        return times, members, values.reshape(len(times), len(members))

    # -- the MetricStore read surface ---------------------------------------
    def names(self) -> List[str]:
        """Every name with samples: all of :meth:`published_names` once
        the first grid instant has passed, none before."""
        return self.published_names() if len(self._instants()) > 1 else []

    def published_names(self) -> List[str]:
        """Every name the services publish, whether or not a grid
        instant has passed yet.

        Listed once per roster: a service's counter names are fixed (its
        ``_counter_names`` and the keys its ``counters()`` adds), only
        their values move.
        """
        roster = self._services()
        if self._published is None:
            names = set()
            for role, entries in roster.items():
                fields = set(_LEDGER_FIELDS)
                for _tags, service in entries:
                    fields.update(service.counters())
                names.update(f"service.{role}.{field}" for field in fields)
            self._published = sorted(names)
        return list(self._published)

    def _retained(self, name: str) -> List[MetricSample]:
        """Every sample of ``name``, time-major in publication order."""
        times, members, values = self._read(name, -float("inf"), float("inf"))
        return [
            MetricSample(t, name, value, tags)
            for t, row in zip(times, values.tolist())
            for tags, value in zip(members, row)
        ]

    def _window_values(self, name: str, since: float,
                       until: float) -> np.ndarray:
        return self._read(name, since, until)[2].ravel()

    def latest_values(self, name: str) -> Dict[Tags, float]:
        """Each series' value at the newest instant, read without a
        sample: ``up``/``availability`` probe each ledger once, at the
        newest grid instant (an empty ledger reads 1.0); a counter reads
        ``counters()`` now.  Empty before the first grid instant."""
        grid = self._instants()
        if len(grid) == 1:
            return {}
        role, field = _split(name)
        entries = self._services().get(role, [])
        if field in _LEDGER_FIELDS:
            newest = grid[-1:]
            return {
                tags: (_ledger_column(service, field, newest)[0]
                       if len(service.ledger) else 1.0)
                for tags, service in entries
            }
        values: Dict[Tags, float] = {}
        for tags, service in entries:
            value = service.counters().get(field)
            if value is not None:
                values[tags] = float(value)
        return values

    def latest_per_series(self, name: str) -> Dict[Tags, MetricSample]:
        """The newest sample for each distinct tag set under ``name``:
        :meth:`latest_values` stamped with the newest instant."""
        newest = self._newest(name)
        if newest is None:
            return {}
        return {
            tags: MetricSample(newest, name, value, tags)
            for tags, value in self.latest_values(name).items()
        }


class ServiceHealthAgent:
    """The service-health publisher over every GridService in a grid.

    ``store`` is a :class:`ServiceHealthView`; the agent schedules
    nothing.  ``interval`` and the creation time fix the grid the view
    answers ``up``/``availability`` on.  ``extra_services`` adds
    off-site services (the RLS index, VOMS servers) keyed by the
    display name used as their ``site`` tag.
    """

    def __init__(
        self,
        engine: Engine,
        sites: Iterable,
        interval: float = 1 * HOUR,
        extra_services: Optional[Dict[str, GridService]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.engine = engine
        self.sites = list(sites)
        self.extra_services = dict(extra_services or {})
        self.interval = interval
        self.store = ServiceHealthView(self)
