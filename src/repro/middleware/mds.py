"""Monitoring and Discovery Service: GRIS / GIIS hierarchy with a
GLUE-style schema (§5.1–5.2).

Each site runs a :class:`GRIS` that publishes its configuration and
dynamic state, and registers once, at deploy, into the top-level
:class:`GIIS` at the iGOC — the "top-layer services at the iVDGL Grid
Operations Center".  The matchmaker reads the top GIIS.  The paper's
VO-level index servers are not modelled: nothing in a run reads them.

The schema follows GLUE with the Grid3 extensions the paper calls out:
application installation areas, temporary working directories, storage
element locations, and VDT software locations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ServiceUnavailableError
from ..services import GridService
from ..sim.engine import Engine
from ..sim.units import MINUTE


#: GLUE(+Grid3 extensions) attribute names, in record order.
_GLUE_KEYS = (
    # GLUE CE attributes
    "site", "institution", "owner_vo", "total_cpus", "free_cpus",
    "busy_cpus", "queue_length", "estimated_wait", "batch_system",
    "max_walltime",
    # GLUE SE attributes
    "se_name", "se_capacity", "se_free",
    # §6.4 selection criteria
    "outbound_connectivity", "access_bandwidth",
    # Grid3 schema extensions (§5.1)
    "grid3_app_dir", "grid3_tmp_dir", "grid3_data_dir",
    "grid3_vdt_location", "grid3_installed_packages",
)


def _glue_inputs(site) -> tuple:
    """The values of a live Site's GLUE record, in ``_GLUE_KEYS`` order
    and with the package names unsorted: equal tuples publish equal
    records (:func:`_glue_from`)."""
    lrm = site.services.get("lrm")
    queue_length = getattr(lrm, "queue_length", 0) if lrm is not None else 0
    cluster, storage, config = site.cluster, site.storage, site.config
    free = cluster.free_cpus
    # §8 lesson ("Job Resource Requirements"): publish scheduling-useful
    # load information.  The estimate is the classic queue-theory rough
    # cut: waiting work divided by drain capacity.
    if free > 0:
        estimated_wait = 0.0
    else:
        estimated_wait = (queue_length + 1) / max(1, cluster.total_cpus) * 3600.0
    return (
        site.name, site.institution, site.owner_vo, cluster.total_cpus,
        free, cluster.busy_cpus, queue_length, estimated_wait,
        config.batch_system, config.max_walltime,
        storage.name, storage.capacity, storage.free,
        config.outbound_connectivity, site.access_bandwidth,
        config.app_dir, config.tmp_dir, config.data_dir, config.vdt_location,
        tuple(site.installed_packages),
    )


def _glue_from(inputs: tuple) -> Dict[str, object]:
    """The GLUE record published for ``inputs``."""
    record = dict(zip(_GLUE_KEYS, inputs))
    record["grid3_installed_packages"] = sorted(inputs[-1])
    return record


def glue_record(site) -> Dict[str, object]:
    """The GLUE(+Grid3 extensions) record a GRIS refresh of a live Site
    publishes."""
    return _glue_from(_glue_inputs(site))


class GRIS(GridService):
    """A site's information provider: cached GLUE record with a TTL.

    MDS GRIS answers queries from a cache refreshed by information
    providers; a short TTL trades staleness for provider load.
    """

    _counter_names = ("queries_served",)

    def __init__(self, engine: Engine, site, ttl: float = 5 * MINUTE) -> None:
        super().__init__(role="gris", owner=site.name, engine=engine)
        self.site = site
        self.ttl = ttl
        #: The published record and the inputs it was built from.
        self._cache: Optional[Dict[str, object]] = None
        self._inputs: Optional[tuple] = None
        self._cached_at = -float("inf")
        #: Queries this GRIS answered: direct :meth:`query` calls plus
        #: the index rebuilds that read it.
        self.queries_served = 0

    def record(self) -> Dict[str, object]:
        """The cached record itself, refreshed when the TTL has run out.

        A refresh reads the site's inputs and builds a new dict only
        when some value moved, so a caller may key on the object's
        identity; the dict is shared and must not be mutated.
        """
        self.require_available("GLUE query")
        now = self.engine.now
        if now - self._cached_at >= self.ttl:
            inputs = _glue_inputs(self.site)
            if inputs != self._inputs:
                self._cache = _glue_from(inputs)
                self._inputs = inputs
            self._cached_at = now
        self.queries_served += 1
        return self._cache

    def query(self) -> Dict[str, object]:
        """A copy of the site's current record (cached within the TTL)."""
        return dict(self.record())

    @property
    def cache_valid_until(self) -> float:
        """Sim-time at which the current cached record expires."""
        return self._cached_at + self.ttl


class GIIS(GridService):
    """An index server aggregating GRIS registrations.

    The index keeps one GRIS per registrant and a list of the reachable
    records, rebuilt on a read once the earliest GRIS cache in it has
    expired.  Registering the same GRIS again keeps the list; a new or
    replaced GRIS or an availability flip drops it.  A rebuild reads
    every registrant, so a GRIS refreshes exactly when its own TTL has
    run out, as a full sweep on every read would.

    Real MDS registrations are soft-state and age out unless renewed;
    here no site ever leaves the grid, so a registration is permanent
    and a vanished site shows only as a GRIS that does not answer.
    """

    def __init__(self, engine: Engine, name: str) -> None:
        super().__init__(role="giis", owner=name, engine=engine)
        self.name = name
        #: site name -> GRIS
        self._registry: Dict[str, GRIS] = {}
        #: Reachable records in name order (None: rebuild on next read)
        #: and when the list goes stale.
        self._records: Optional[List[Dict[str, object]]] = None
        self._valid_until = -float("inf")
        self._watched: set = set()

    def _drop(self, *_args) -> None:
        self._records = None

    def register(self, name: str, gris: GRIS) -> None:
        """Register ``gris`` under ``name``."""
        if self._registry.get(name) is not gris:
            self._records = None
        self._registry[name] = gris
        if id(gris) not in self._watched:
            self._watched.add(id(gris))
            gris.on_transition.append(self._drop)

    def registered_names(self) -> List[str]:
        """Registrant names, sorted."""
        return sorted(self._registry)

    def query(self, name: str) -> Dict[str, object]:
        """Fetch one registrant's record (raises if unknown or down)."""
        self.require_available(f"query of {name}")
        return self._registry[name].query()

    def query_all(self) -> List[Dict[str, object]]:
        """Records from every registrant, skipping unreachable ones.

        Skipping (rather than failing) mirrors real MDS behaviour: one
        dead site must not take the whole index down.

        Rebuilds the index when it is stale.  The returned list is fresh
        per call; the record dicts are the GRISes' own — treat them as
        read-only, as every in-tree consumer does.
        """
        self.require_available("index sweep")
        if self._records is not None and self.engine.now < self._valid_until:
            return list(self._records)
        records = []
        valid_until = float("inf")
        for name in self.registered_names():
            gris = self._registry[name]
            try:
                records.append(gris.record())
            except ServiceUnavailableError:
                continue
            valid_until = min(valid_until, gris.cache_valid_until)
        self._records = records
        self._valid_until = valid_until
        return list(records)

    def active_records(self) -> List[Dict[str, object]]:
        """The held index — what the matchmaker ranks.  Rebuilt (through
        :meth:`query_all`) only when stale."""
        self.require_available("index sweep")
        if self._records is None or self.engine.now >= self._valid_until:
            return self.query_all()
        return list(self._records)


def build_mds_hierarchy(engine: Engine, sites) -> Dict[str, object]:
    """Wire the Grid3 MDS tree: each site's GRIS registers into the top
    GIIS.

    Returns ``{"gris": {site: GRIS}, "top": GIIS}``.  Each site's GRIS
    is also attached as its ``"gris"`` service.
    """
    grises: Dict[str, GRIS] = {}
    top = GIIS(engine, "giis-igoc")
    for site in sites:
        # Reuse a GRIS installed by the VDT Pacman package, if any.
        gris = site.services.get("gris")
        if not isinstance(gris, GRIS):
            gris = GRIS(engine, site)
        grises[site.name] = gris
        site.attach_service("gris", gris)
        top.register(site.name, gris)
    return {"gris": grises, "top": top}

