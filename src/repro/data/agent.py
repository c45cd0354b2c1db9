"""Disk-pressure control: LRU eviction and hot-dataset replication.

"The most common failure mode was a site problem: a disk would fill up
... and all jobs submitted to a site would die" (§6.2).  Deployed Grid3
answered disk pressure with humans: an iGOC ticket and a site admin
running ``rm``.  :class:`StorageAgent` is that operator automated —
a periodic sweep over every storage element that

* **evicts** above a high watermark: coldest unpinned files go first
  (orphan scratch residue, then least-recently-accessed dataset files),
  down to a low watermark, preferring files that still have another
  replica elsewhere; last-copy files are only reclaimed when the sweep
  cannot otherwise get below the *high* watermark (the operator's
  judgement call, applied mechanically) and are unregistered from RLS
  so no planner routes a job at a deleted copy;
* **replicates** hot datasets: the most-accessed datasets get a second
  replica on the least-loaded live site, moved through the
  :class:`~repro.data.transfer.TransferManager` so the copies respect
  queueing, reservation, and retry like any other transfer;
* **publishes** ``data.*`` metrics (occupancy, evictions, replication
  and transfer-queue gauges) into a monitoring
  :class:`~repro.monitoring.core.MetricStore`, giving the ops layer the
  §8 "managed storage" observability it asked for.

All policy is deterministic (sorted sweeps, tie-breaks on name); the
agent draws no randomness, so enabling it perturbs no RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..monitoring.core import MetricSample, MetricStore, PeriodicProducer, make_tags
from ..sim.engine import Engine
from ..sim.units import HOUR

from .catalog import DatasetCatalog
from .transfer import TransferManager


@dataclass
class SiteDataReport:
    """One site's row in the ``repro data`` table."""

    site: str
    files: int
    capacity: float
    used: float
    occupancy: float
    evictions: int
    evicted_bytes: float
    replicas_received: int


class StorageAgent:
    """Periodic disk-pressure controller over a set of sites.

    Parameters
    ----------
    engine, sites:
        Kernel and name → Site map (each site's ``.storage`` is a
        :class:`~repro.fabric.storage.StorageElement`, whose
        files()/delete()/capacity surface the sweep needs).
    catalog:
        The :class:`DatasetCatalog` consulted for pinning and heat.
    rls:
        Optional replica index; evictions unregister, and replica
        counting prefers multi-copy files.
    transfers:
        Optional :class:`TransferManager` for hot-dataset replication
        (no manager → eviction-only agent).
    high_watermark / low_watermark:
        Occupancy fractions: a sweep triggers above high and evicts
        down to low.
    replicate_threshold:
        Minimum dataset access count before replication is considered.
    """

    def __init__(
        self,
        engine: Engine,
        sites: Dict[str, object],
        catalog: Optional[DatasetCatalog] = None,
        rls=None,
        transfers: Optional[TransferManager] = None,
        interval: float = 1 * HOUR,
        high_watermark: float = 0.85,
        low_watermark: float = 0.70,
        replicate_hot: bool = True,
        replicate_threshold: int = 3,
        replication_copies: int = 2,
        max_replications_per_sweep: int = 2,
        store: Optional[MetricStore] = None,
    ) -> None:
        if not 0.0 < low_watermark <= high_watermark <= 1.0:
            raise ValueError("need 0 < low_watermark <= high_watermark <= 1")
        self.engine = engine
        self.sites = sites
        self.catalog = catalog if catalog is not None else DatasetCatalog()
        self.rls = rls
        self.transfers = transfers
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.replicate_hot = replicate_hot
        self.replicate_threshold = replicate_threshold
        self.replication_copies = replication_copies
        self.max_replications_per_sweep = max_replications_per_sweep
        self.store = store if store is not None else MetricStore()
        #: Lifetime counters (also published as data.* metrics).
        self.sweeps = 0
        self.evictions = 0
        self.evicted_bytes = 0.0
        self.replications_started = 0
        self.last_copy_evictions = 0
        self._per_site_evictions: Dict[str, int] = {}
        self._per_site_evicted_bytes: Dict[str, float] = {}
        self._per_site_replicas: Dict[str, int] = {}
        self.producer = PeriodicProducer(
            engine, "storage-agent", interval, self._collect, [self.store]
        )

    # -- the sweep ---------------------------------------------------------
    def sweep_once(self) -> int:
        """One full pressure pass over every site; returns evictions."""
        self.sweeps += 1
        before = self.evictions
        for name in sorted(self.sites):
            self._relieve_pressure(self.sites[name])
        if self.replicate_hot and self.transfers is not None:
            self._replicate_hot_datasets()
        return self.evictions - before

    def _occupancy(self, storage) -> float:
        capacity = storage.capacity
        return storage.used / capacity if capacity else 0.0

    def _eviction_order(self, site) -> List[Tuple[str, float]]:
        """(lfn, size) eviction candidates, coldest first.

        Sort key: pinned files are excluded outright; then orphans
        before catalogued files, colder (older last access) before
        hotter, name as the deterministic tie-break.
        """
        candidates = []
        for obj in site.storage.files():
            if self.catalog.is_pinned(obj.lfn):
                continue
            candidates.append(obj)
        candidates.sort(
            key=lambda o: (self.catalog.last_access_of(o.lfn), o.lfn)
        )
        return [(o.lfn, o.size) for o in candidates]

    def _evict(self, site, lfn: str, size: float) -> None:
        site.storage.delete(lfn)
        if self.rls is not None:
            self.rls.unregister(site.name, lfn)
        self.evictions += 1
        self.evicted_bytes += size
        self._per_site_evictions[site.name] = (
            self._per_site_evictions.get(site.name, 0) + 1
        )
        self._per_site_evicted_bytes[site.name] = (
            self._per_site_evicted_bytes.get(site.name, 0.0) + size
        )

    def _relieve_pressure(self, site) -> None:
        storage = site.storage
        capacity = storage.capacity
        if capacity <= 0 or self._occupancy(storage) <= self.high_watermark:
            return
        order = self._eviction_order(site)
        # Pass 1: safe deletions — orphans and files with another copy.
        for lfn, size in order:
            if storage.used <= self.low_watermark * capacity:
                return
            holders = self._site_replicas(lfn)
            if holders == [site.name]:
                continue  # last registered copy: not safe yet
            if lfn in storage:
                self._evict(site, lfn, size)
        if storage.used <= self.high_watermark * capacity:
            return
        # Pass 2: still above the *high* watermark — reclaim last copies
        # too (coldest first), unregistering so planners stop seeing them.
        for lfn, size in order:
            if storage.used <= self.low_watermark * capacity:
                return
            if lfn in storage:
                self.last_copy_evictions += 1
                self._evict(site, lfn, size)

    # -- replication -------------------------------------------------------
    def _site_replicas(self, lfn: str) -> List[str]:
        if self.rls is None:
            return []
        try:
            return self.rls.sites_with(lfn)
        except Exception:
            return []

    def _target_site(self, exclude: Iterable[str], size: float):
        """Least-occupied live site with room, deterministically."""
        exclude = set(exclude)
        best = None
        for name in sorted(self.sites):
            if name in exclude:
                continue
            site = self.sites[name]
            gridftp = site.services.get("gridftp")
            if gridftp is not None and not gridftp.available:
                continue
            storage = site.storage
            if storage.capacity <= 0:
                continue
            headroom_after = (storage.used + size) / storage.capacity
            if headroom_after >= self.low_watermark:
                continue
            if best is None or self._occupancy(storage) < self._occupancy(best.storage):
                best = site
        return best

    def _replicate_hot_datasets(self) -> None:
        started = 0
        for dataset in self.catalog.hot_datasets(n=5):
            if started >= self.max_replications_per_sweep:
                return
            if dataset.accesses < self.replicate_threshold:
                continue
            for lfn in sorted(dataset.files):
                if started >= self.max_replications_per_sweep:
                    return
                holders = self._site_replicas(lfn)
                if not holders or len(holders) >= self.replication_copies:
                    continue
                size = dataset.files[lfn]
                target = self._target_site(holders, size)
                if target is None:
                    continue
                self.transfers.submit(
                    lfn, size, target.name, vo=dataset.vo,
                    kind="replication", register=True,
                )
                self.replications_started += 1
                self._per_site_replicas[target.name] = (
                    self._per_site_replicas.get(target.name, 0) + 1
                )
                started += 1

    # -- monitoring --------------------------------------------------------
    def _collect(self) -> List[MetricSample]:
        """Sweep, then publish the data.* series (the producer's tick)."""
        self.sweep_once()
        now = self.engine.now
        samples: List[MetricSample] = []
        for name in sorted(self.sites):
            site = self.sites[name]
            tags = make_tags(site=name)
            samples.append(MetricSample(
                now, "data.occupancy", self._occupancy(site.storage), tags,
            ))
            samples.append(MetricSample(
                now, "data.evictions",
                float(self._per_site_evictions.get(name, 0)), tags,
            ))
            samples.append(MetricSample(
                now, "data.evicted_bytes",
                self._per_site_evicted_bytes.get(name, 0.0), tags,
            ))
        samples.append(MetricSample(
            now, "data.replications", float(self.replications_started), (),
        ))
        if self.transfers is not None:
            for cname, value in sorted(self.transfers.counters().items()):
                samples.append(MetricSample(
                    now, f"data.transfers.{cname}", value, (),
                ))
        return samples

    def counters(self) -> Dict[str, float]:
        """Lifetime counters for the ops/troubleshooting layer."""
        return {
            "sweeps": float(self.sweeps),
            "evictions": float(self.evictions),
            "evicted_bytes": self.evicted_bytes,
            "last_copy_evictions": float(self.last_copy_evictions),
            "replications_started": float(self.replications_started),
        }

    def report(self) -> List[SiteDataReport]:
        """Per-site occupancy/eviction rows (the ``repro data`` table)."""
        rows = []
        for name in sorted(self.sites):
            storage = self.sites[name].storage
            rows.append(SiteDataReport(
                site=name,
                files=len(storage),
                capacity=storage.capacity,
                used=storage.used,
                occupancy=self._occupancy(storage),
                evictions=self._per_site_evictions.get(name, 0),
                evicted_bytes=self._per_site_evicted_bytes.get(name, 0.0),
                replicas_received=self._per_site_replicas.get(name, 0),
            ))
        return rows
