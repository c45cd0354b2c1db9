"""Tests for the dCache pool manager."""

import pytest

from repro.errors import ReplicaNotFoundError, StorageFullError
from repro.middleware.dcache import DCachePoolManager
from repro.sim import Engine, GB


# --- dCache -------------------------------------------------------------------

def make_dcache(pools=3, capacity=10 * GB):
    return DCachePoolManager(Engine(), "fnal-dcache", pools, capacity)


def test_dcache_validation():
    with pytest.raises(ValueError):
        make_dcache(pools=0)


def test_store_selects_least_loaded_pool():
    dc = make_dcache()
    dc.store("/a", 4 * GB)
    dc.store("/b", 4 * GB)
    dc.store("/c", 4 * GB)
    # Spread: one file per pool, not stacked.
    assert all(len(p.storage) == 1 for p in dc.pools)
    assert dc.used == 12 * GB
    assert "/a" in dc and len(dc) == 3


def test_store_fragmentation_raises():
    dc = make_dcache(pools=2, capacity=5 * GB)
    dc.store("/a", 3 * GB)
    dc.store("/b", 3 * GB)
    # 4 GB free in aggregate but only 2 GB per pool: pooled storage
    # cannot take a 3 GB file.
    with pytest.raises(StorageFullError):
        dc.store("/c", 3 * GB)


def test_lookup_and_delete():
    dc = make_dcache()
    dc.store("/a", 1 * GB)
    assert dc.lookup("/a").size == 1 * GB
    assert dc.lookup("/missing") is None
    dc.delete("/a")
    assert "/a" not in dc
    with pytest.raises(KeyError):
        dc.delete("/a")


def test_replicate_hot_file():
    dc = make_dcache()
    dc.store("/hot", 1 * GB)
    count = dc.replicate("/hot", copies=3)
    assert count == 3
    holders = [p for p in dc.pools if "/hot" in p.storage]
    assert len(holders) == 3
    with pytest.raises(ReplicaNotFoundError):
        dc.replicate("/nope")


def test_pool_failure_isolation():
    dc = make_dcache()
    dc.store("/a", 1 * GB)   # lands on pool0
    dc.store("/b", 1 * GB)   # pool1
    dc.replicate("/a", copies=2)
    victim = next(p for p in dc.pools if "/b" in p.storage)
    lost = dc.fail_pool(victim)
    # /b lost its only replica; /a survives via its second copy.
    assert lost == ["/b"]
    assert "/a" in dc
    assert "/b" not in dc
    dc.restore_pool(victim)
    assert "/b" in dc


def test_free_excludes_offline_pools():
    dc = make_dcache(pools=2, capacity=10 * GB)
    dc.fail_pool(dc.pools[0])
    assert dc.free == 10 * GB
    assert dc.capacity == 20 * GB
