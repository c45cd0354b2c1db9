"""A dCache-style pooled storage manager (§2).

"Additional services such as Replica Location Service (RLS), Storage
Resource Manager (SRM), and dCache, can be provided by individual VOs if
desired."  The Tier1s ran dCache in front of their tape/disk farms: many
independent disk *pools* behind a single logical door, with pool
selection on write and replica hotspot handling.

:class:`DCachePoolManager` presents the same interface surface as a
:class:`~repro.fabric.storage.StorageElement` for store/lookup/delete —
so the Tier1 archive in a simulation can be swapped from a flat SE to a
pooled one — while adding pool-level behaviours: least-loaded pool
selection, per-pool failure isolation (one dead pool loses only its own
files), and hot-file replication across pools.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ReplicaNotFoundError, StorageFullError
from ..fabric.storage import FileObject, StorageElement
from ..services import GridService
from ..sim.engine import Engine


class Pool(GridService):
    """One disk pool: a StorageElement plus the service lifecycle.

    Pool outages are first-class service outages: :meth:`fail` /
    :meth:`restore` (via the manager's ``fail_pool``/``restore_pool``)
    land in the downtime ledger, so Tier1 pool availability is
    accounted exactly like a gatekeeper's or GridFTP server's.
    """

    _counter_names = ("reads",)

    def __init__(self, engine: Engine, name: str, capacity: float) -> None:
        super().__init__(role="pool", owner=name, engine=engine)
        self.storage = StorageElement(engine, name, capacity)
        self.reads = 0

    @property
    def name(self) -> str:
        return self.storage.name

    @property
    def online(self) -> bool:
        """Liveness alias kept for the SE-compatible surface."""
        return self.available

    @online.setter
    def online(self, value: bool) -> None:
        if value:
            self.restore(note="online flag set")
        else:
            self.fail("online flag cleared")

    def __repr__(self) -> str:
        state = "up" if self.online else "down"
        return f"<Pool {self.name} {state} {self.storage.used:.2e}/{self.storage.capacity:.2e}>"


class DCachePoolManager:
    """Many pools behind one logical namespace."""

    def __init__(self, engine: Engine, name: str, pool_count: int,
                 pool_capacity: float) -> None:
        if pool_count < 1:
            raise ValueError("need at least one pool")
        self.engine = engine
        self.name = name
        self.pools: List[Pool] = [
            Pool(engine, f"{name}-pool{i:02d}", pool_capacity)
            for i in range(pool_count)
        ]
        #: lfn -> list of pools holding a replica (first = primary).
        self._locations: Dict[str, List[Pool]] = {}

    # -- capacity (SE-compatible surface) -----------------------------------
    @property
    def capacity(self) -> float:
        return sum(p.storage.capacity for p in self.pools)

    @property
    def used(self) -> float:
        return sum(p.storage.used for p in self.pools)

    @property
    def free(self) -> float:
        """Free space on *online* pools (offline capacity is unusable)."""
        return sum(p.storage.free for p in self.pools if p.online)

    def __contains__(self, lfn: str) -> bool:
        return any(p.online for p in self._locations.get(lfn, ()))

    def __len__(self) -> int:
        return len(self._locations)

    # -- pool selection -----------------------------------------------------
    def _select_pool(self, size: float) -> Pool:
        """Least-utilised online pool with room; StorageFullError when
        nothing fits (the cost of pool granularity: free space can be
        fragmented across pools)."""
        candidates = [
            p for p in self.pools
            if p.online and p.storage.free >= size
        ]
        if not candidates:
            raise StorageFullError(
                f"dCache {self.name}: no online pool has {size:.3e} B free"
            )
        return min(candidates, key=lambda p: p.storage.utilisation)

    # -- namespace operations ----------------------------------------------------
    def store(self, lfn: str, size: float, reservation=None) -> FileObject:
        """Write a file into the best pool.

        With a ``reservation`` (issued by :meth:`reserve` against one of
        our pools), the write lands on the reserving pool and draws on
        it; otherwise least-utilised pool selection applies.
        """
        if reservation is not None:
            pool = next(
                (p for p in self.pools if p.storage is reservation.se), None
            )
            if pool is not None:
                obj = pool.storage.store(lfn, size, reservation=reservation)
                holders = self._locations.setdefault(lfn, [])
                if pool not in holders:
                    holders.append(pool)
                return obj
        pool = self._select_pool(size)
        obj = pool.storage.store(lfn, size)
        holders = self._locations.setdefault(lfn, [])
        if pool not in holders:
            holders.append(pool)
        return obj

    def lookup(self, lfn: str) -> Optional[FileObject]:
        """The file object from any online holder, or None."""
        for pool in self._locations.get(lfn, ()):
            if pool.online:
                obj = pool.storage.lookup(lfn)
                if obj is not None:
                    pool.reads += 1
                    return obj
        return None

    def delete(self, lfn: str) -> None:
        """Remove every replica; KeyError when unknown."""
        holders = self._locations.pop(lfn)
        for pool in holders:
            if lfn in pool.storage:
                pool.storage.delete(lfn)

    # -- dCache-specific behaviours -----------------------------------------------
    def replicate(self, lfn: str, copies: int = 2) -> int:
        """Spread a hot file across pools; returns replica count."""
        holders = self._locations.get(lfn)
        if not holders:
            raise ReplicaNotFoundError(lfn)
        primary = next((p for p in holders if p.online), None)
        if primary is None:
            raise ReplicaNotFoundError(f"{lfn}: all holders offline")
        obj = primary.storage.lookup(lfn)
        for pool in sorted(self.pools, key=lambda p: p.storage.utilisation):
            if len([p for p in holders if p.online]) >= copies:
                break
            if pool in holders or not pool.online:
                continue
            if pool.storage.free < obj.size:
                continue
            pool.storage.store(lfn, obj.size)
            holders.append(pool)
        return len([p for p in holders if p.online])

    def fail_pool(self, pool: Pool, cause: str = "pool failure") -> List[str]:
        """Take a pool offline; returns LFNs that lost their *last*
        online replica (the isolation benefit: everything else survives).

        The outage is recorded in the pool's downtime ledger with its
        ``cause``, so injected pool failures are accounted exactly like
        any other service outage.
        """
        pool.fail(cause)
        lost = []
        for lfn, holders in self._locations.items():
            if pool in holders and not any(p.online for p in holders):
                lost.append(lfn)
        return sorted(lost)

    def restore_pool(self, pool: Pool) -> None:
        """Bring a pool back online, closing its ledger outage."""
        pool.restore(note="pool repaired")

    # -- full StorageElement interface compatibility --------------------------
    # (so a Site's .storage can be swapped for a pool manager: probes,
    #  Ganglia, the ops team, and SRM all keep working.)
    @property
    def reserved(self) -> float:
        return sum(p.storage.reserved for p in self.pools)

    @property
    def utilisation(self) -> float:
        cap = self.capacity
        return self.used / cap if cap else 0.0

    @property
    def bytes_written(self) -> float:
        return sum(p.storage.bytes_written for p in self.pools)

    @property
    def bytes_deleted(self) -> float:
        return sum(p.storage.bytes_deleted for p in self.pools)

    @property
    def write_failures(self) -> int:
        return sum(p.storage.write_failures for p in self.pools)

    def files(self) -> List[FileObject]:
        """Every distinct logical file (one entry per LFN)."""
        out = []
        for lfn, holders in self._locations.items():
            for pool in holders:
                obj = pool.storage.lookup(lfn)
                if obj is not None:
                    out.append(obj)
                    break
        return out

    def reserve(self, amount: float):
        """SRM hook: reserve on the pool with the most headroom."""
        candidates = [p for p in self.pools if p.online]
        if not candidates:
            raise StorageFullError(f"dCache {self.name}: no online pools")
        best = max(candidates, key=lambda p: p.storage.free)
        return best.storage.reserve(amount)

    def release_reservation(self, reservation) -> None:
        reservation.se.release_reservation(reservation)

    def purge(self, fraction: float = 1.0) -> float:
        """Operator cleanup across pools (oldest-first per pool)."""
        target = self.used * fraction
        freed = 0.0
        for lfn in list(self._locations):
            if freed >= target:
                break
            holders = self._locations[lfn]
            size = 0.0
            for pool in holders:
                obj = pool.storage.lookup(lfn)
                if obj is not None:
                    size = obj.size
                    break
            self.delete(lfn)
            freed += size
        return freed

    def __repr__(self) -> str:
        online = sum(1 for p in self.pools if p.online)
        return f"<dCache {self.name} {online}/{len(self.pools)} pools {len(self)} files>"
