"""Monitoring and Discovery Service: GRIS / GIIS hierarchy with a
GLUE-style schema (§5.1–5.2).

Each site runs a :class:`GRIS` that publishes its configuration and
dynamic state.  GRISes register upward into VO-level :class:`GIIS` index
servers, which in turn register into the top-level GIIS at the iGOC —
"registration to a VO-level set of services such as index servers"
followed by "top-layer services at the iVDGL Grid Operations Center".

The schema follows GLUE with the Grid3 extensions the paper calls out:
application installation areas, temporary working directories, storage
element locations, and VDT software locations.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import ServiceUnavailableError
from ..services import GridService
from ..sim.engine import Engine
from ..sim.units import MINUTE


def glue_record(site) -> Dict[str, object]:
    """Build the GLUE(+Grid3 extensions) record for a live Site.

    This is the information-provider function a site's GRIS runs.
    """
    lrm = site.services.get("lrm")
    queue_length = getattr(lrm, "queue_length", 0) if lrm is not None else 0
    free = site.cluster.free_cpus
    # §8 lesson ("Job Resource Requirements"): publish scheduling-useful
    # load information.  The estimate is the classic queue-theory rough
    # cut: waiting work divided by drain capacity.
    if free > 0:
        estimated_wait = 0.0
    else:
        total = max(1, site.cluster.total_cpus)
        estimated_wait = (queue_length + 1) / total * 3600.0
    return {
        # GLUE CE attributes
        "site": site.name,
        "institution": site.institution,
        "owner_vo": site.owner_vo,
        "total_cpus": site.cluster.total_cpus,
        "free_cpus": site.cluster.free_cpus,
        "busy_cpus": site.cluster.busy_cpus,
        "queue_length": queue_length,
        "estimated_wait": estimated_wait,
        "batch_system": site.config.batch_system,
        "max_walltime": site.config.max_walltime,
        "status": site.status,
        # GLUE SE attributes
        "se_name": site.storage.name,
        "se_capacity": site.storage.capacity,
        "se_free": site.storage.free,
        # §6.4 selection criteria
        "outbound_connectivity": site.config.outbound_connectivity,
        "access_bandwidth": site.access_bandwidth,
        # Grid3 schema extensions (§5.1)
        "grid3_app_dir": site.config.app_dir,
        "grid3_tmp_dir": site.config.tmp_dir,
        "grid3_data_dir": site.config.data_dir,
        "grid3_vdt_location": site.config.vdt_location,
        "grid3_installed_packages": sorted(site.installed_packages),
    }


class GRIS(GridService):
    """A site's information provider: cached GLUE record with a TTL.

    MDS GRIS answers queries from a cache refreshed by information
    providers; a short TTL trades staleness for provider load.
    """

    _counter_names = ("queries_served",)

    def __init__(self, engine: Engine, site, ttl: float = 5 * MINUTE,
                 provider: Optional[Callable] = None) -> None:
        super().__init__(role="gris", owner=site.name, engine=engine)
        self.site = site
        self.ttl = ttl
        self.provider = provider or glue_record
        self._cache: Optional[Dict[str, object]] = None
        self._cached_at = -float("inf")
        self.queries_served = 0
        #: Called (no args) whenever the cache is dropped by hand —
        #: index layers holding sweep snapshots subscribe here.
        self.on_invalidate: List[Callable[[], None]] = []

    def query(self) -> Dict[str, object]:
        """The site's current record (cached within the TTL)."""
        self.require_available("GLUE query")
        now = self.engine.now
        if self._cache is None or now - self._cached_at >= self.ttl:
            self._cache = self.provider(self.site)
            self._cached_at = now
        self.queries_served += 1
        return dict(self._cache)

    @property
    def cache_valid_until(self) -> float:
        """Sim-time at which the current cached record expires."""
        if self._cache is None:
            return -float("inf")
        return self._cached_at + self.ttl

    def invalidate(self) -> None:
        """Drop the cache (e.g. after a Pacman install changes config)."""
        self._cache = None
        for observer in self.on_invalidate:
            observer()


class GIIS(GridService):
    """An index server aggregating GRIS (or lower GIIS) registrations.

    Registrations are soft-state: they expire unless renewed, so a dead
    site ages out of the index rather than poisoning it forever.
    """

    def __init__(self, engine: Engine, name: str, registration_ttl: float = 30 * MINUTE) -> None:
        super().__init__(role="giis", owner=name, engine=engine)
        self.name = name
        self.registration_ttl = registration_ttl
        #: site name -> (GRIS-or-GIIS, last renewal time)
        self._registry: Dict[str, tuple] = {}
        # Sweep cache: ``query_all`` is the matchmaker's per-selection
        # hot path, but its result only changes when a GRIS cache
        # expires, a registration churns, or a source flips
        # availability.  Caching the sweep (and its online subset)
        # between those events turns per-selection cost from
        # O(total sites) GRIS round-trips into an O(1) snapshot reuse.
        # Every record-changing event below invalidates the snapshot,
        # so cached and uncached sweeps are byte-identical.
        self._sweep: Optional[List[Dict[str, object]]] = None
        self._sweep_online: List[Dict[str, object]] = []
        self._sweep_until = -float("inf")
        #: Only direct GRIS registrants have knowable cache lifetimes;
        #: a nested-GIIS registrant disables caching entirely.
        self._cacheable = True
        self._watched: set = set()

    def _invalidate_sweep(self, *_args) -> None:
        self._sweep = None

    def register(self, name: str, source) -> None:
        """Register (or renew) a source under ``name``."""
        self._registry[name] = (source, self.engine.now)
        self._sweep = None
        if isinstance(source, GRIS):
            key = id(source)
            if key not in self._watched:
                self._watched.add(key)
                source.on_transition.append(self._invalidate_sweep)
                source.on_invalidate.append(self._invalidate_sweep)
        else:
            self._cacheable = False

    def registered_names(self) -> List[str]:
        """Names with live (unexpired) registrations."""
        now = self.engine.now
        return sorted(
            name
            for name, (_src, at) in self._registry.items()
            if now - at <= self.registration_ttl
        )

    def query(self, name: str) -> Dict[str, object]:
        """Fetch one registrant's record (raises if expired/unknown/down)."""
        self.require_available(f"query of {name}")
        entry = self._registry.get(name)
        if entry is None:
            raise KeyError(name)
        source, at = entry
        if self.engine.now - at > self.registration_ttl:
            raise KeyError(f"{name} registration expired")
        return source.query() if isinstance(source, GRIS) else source.query(name)

    def query_all(self) -> List[Dict[str, object]]:
        """Records from every live registrant, skipping unreachable ones.

        Skipping (rather than failing) mirrors real MDS behaviour: one
        dead site must not take the whole index down.

        The sweep is cached until the earliest GRIS-cache or
        registration expiry (and invalidated by registry churn, source
        availability transitions, and explicit GRIS invalidation), so
        repeated sweeps inside that window reuse the snapshot.  The
        returned list is fresh per call; the record dicts are shared —
        treat them as read-only, as every in-tree consumer does.
        """
        self.require_available("index sweep")
        if self._sweep is not None and self.engine.now < self._sweep_until:
            return list(self._sweep)
        records = []
        valid_until = float("inf")
        ttl = self.registration_ttl
        for name in self.registered_names():
            try:
                records.append(self.query(name))
            except (ServiceUnavailableError, KeyError):
                continue
            if self._cacheable:
                source, at = self._registry[name]
                valid_until = min(
                    valid_until, source.cache_valid_until, at + ttl
                )
        if self._cacheable:
            self._sweep = records
            self._sweep_online = [
                rec for rec in records if rec.get("status") == "online"
            ]
            self._sweep_until = valid_until
            return list(records)
        return records

    def active_records(self) -> List[Dict[str, object]]:
        """The cached sweep restricted to records with online status —
        what the matchmaker actually ranks, so its filters need not check
        status.  Pre-splitting the snapshot makes per-selection cost
        O(active sites)."""
        self.require_available("index sweep")
        if self._sweep is None or self.engine.now >= self._sweep_until:
            records = self.query_all()
            if not self._cacheable:
                return [r for r in records if r.get("status") == "online"]
        return list(self._sweep_online)

    def search(self, predicate: Callable[[Dict[str, object]], bool]) -> List[Dict[str, object]]:
        """All live records satisfying ``predicate`` — the discovery
        query the matchmaker (§6.4) runs."""
        return [rec for rec in self.query_all() if predicate(rec)]


def build_mds_hierarchy(engine: Engine, sites, vos: List[str]) -> Dict[str, object]:
    """Wire the full Grid3 MDS tree: per-site GRIS → VO GIIS → top GIIS.

    Returns ``{"gris": {site: GRIS}, "vo_giis": {vo: GIIS}, "top": GIIS}``.
    Each site's GRIS is also attached as its ``"gris"`` service.
    """
    grises: Dict[str, GRIS] = {}
    vo_giis: Dict[str, GIIS] = {vo: GIIS(engine, f"giis-{vo}") for vo in vos}
    top = GIIS(engine, "giis-igoc")
    for site in sites:
        # Reuse a GRIS installed by the VDT Pacman package, if any.
        gris = site.services.get("gris")
        if not isinstance(gris, GRIS):
            gris = GRIS(engine, site)
        grises[site.name] = gris
        site.attach_service("gris", gris)
        vo_giis[site.owner_vo].register(site.name, gris)
        top.register(site.name, gris)
    return {"gris": grises, "vo_giis": vo_giis, "top": top}


def renew_registrations(mds: Dict[str, object]) -> None:
    """Renew every live site's registration (the periodic MDS cron)."""
    top: GIIS = mds["top"]  # type: ignore[assignment]
    for name, gris in mds["gris"].items():  # type: ignore[union-attr]
        if gris.site.online:
            top.register(name, gris)
            mds["vo_giis"][gris.site.owner_vo].register(name, gris)  # type: ignore[index]
