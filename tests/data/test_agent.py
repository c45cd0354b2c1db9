"""Tests for StorageAgent disk-pressure control and metrics."""

import pytest

from repro.data import DatasetCatalog, StorageAgent, TransferManager
from repro.middleware.rls import LocalReplicaCatalog, ReplicaLocationIndex
from repro.sim import GB, MB
from repro.sim.units import HOUR

from ..conftest import make_site


def build(eng, net, names=("SiteA", "SiteB", "SiteC"), disk=1 * GB, **agent_kw):
    sites = {}
    rls = ReplicaLocationIndex(eng)
    for name in names:
        sites[name] = make_site(eng, net, name, disk=disk)
        rls.attach_lrc(LocalReplicaCatalog(name))
    catalog = DatasetCatalog()
    agent = StorageAgent(eng, sites, catalog=catalog, rls=rls, **agent_kw)
    return sites, rls, catalog, agent


def fill(sites, rls, site_name, lfns, size=100 * MB, register=True):
    for lfn in lfns:
        sites[site_name].storage.store(lfn, size)
        if register:
            rls.register(site_name, lfn, size)


def test_watermark_validation():
    from repro.sim import Engine
    with pytest.raises(ValueError):
        StorageAgent(Engine(), {}, high_watermark=0.5, low_watermark=0.7)


def test_no_eviction_below_watermark(eng, net):
    sites, rls, _cat, agent = build(eng, net)
    fill(sites, rls, "SiteA", [f"/x/{i}" for i in range(5)])  # 50 %
    assert agent.sweep_once() == 0
    assert len(sites["SiteA"].storage) == 5


def test_evicts_down_to_low_watermark(eng, net):
    sites, rls, _cat, agent = build(
        eng, net, high_watermark=0.85, low_watermark=0.70,
    )
    # 90 % full with unregistered orphans (failed-job residue).
    fill(sites, rls, "SiteA", [f"/x/{i}" for i in range(9)], register=False)
    evicted = agent.sweep_once()
    assert evicted > 0
    se = sites["SiteA"].storage
    assert se.utilisation <= 0.70 + 1e-9
    assert agent.evicted_bytes == evicted * 100 * MB
    assert agent.last_copy_evictions == 0  # orphans are not last copies


def test_coldest_files_evict_first(eng, net):
    sites, rls, cat, agent = build(eng, net)
    fill(sites, rls, "SiteA", [f"/atlas/run{i}/f" for i in range(9)],
         register=False)
    # Heat runs 0..8: run0 coldest, run8 hottest.
    for i in range(9):
        cat.auto_define(f"/atlas/run{i}/f", 100 * MB)
        cat.record_access(f"/atlas/run{i}/f", float(i + 1))
    agent.sweep_once()
    remaining = {o.lfn for o in sites["SiteA"].storage.files()}
    # Hottest files survive, coldest went first.
    assert "/atlas/run8/f" in remaining
    assert "/atlas/run0/f" not in remaining


def test_pinned_datasets_never_evicted(eng, net):
    sites, rls, cat, agent = build(eng, net)
    fill(sites, rls, "SiteA", [f"/atlas/prod/{i}" for i in range(9)],
         register=False)
    for i in range(9):
        cat.auto_define(f"/atlas/prod/{i}", 100 * MB)
    cat.pin("atlas/prod")
    assert agent.sweep_once() == 0  # everything pinned: over watermark, stuck
    assert len(sites["SiteA"].storage) == 9


def test_safe_copies_evicted_before_last_copies(eng, net):
    sites, rls, _cat, agent = build(eng, net)
    # Five registered single copies plus four files replicated elsewhere.
    fill(sites, rls, "SiteA", [f"/solo/{i}" for i in range(5)])
    fill(sites, rls, "SiteA", [f"/dup/{i}" for i in range(4)])
    for i in range(4):
        rls.register("SiteB", f"/dup/{i}", 100 * MB)
    evicted = agent.sweep_once()
    remaining = {o.lfn for o in sites["SiteA"].storage.files()}
    # Relief came entirely from safely-duplicated files; every last
    # copy survived and the sweep stopped at the low watermark.
    assert evicted > 0
    assert all(f"/solo/{i}" in remaining for i in range(5))
    assert agent.last_copy_evictions == 0
    assert sites["SiteA"].storage.utilisation <= 0.70 + 1e-9
    # The evicted duplicates are still reachable from SiteB.
    for i in range(4):
        assert "SiteB" in rls.sites_with(f"/dup/{i}")


def test_last_copies_reclaimed_under_sustained_pressure(eng, net):
    sites, rls, _cat, agent = build(eng, net)
    # 95 % full, every file a registered last copy.
    fill(sites, rls, "SiteA", [f"/solo/{i}" for i in range(9)])
    sites["SiteA"].storage.store("/solo/x", 50 * MB)
    rls.register("SiteA", "/solo/x", 50 * MB)
    agent.sweep_once()
    assert agent.last_copy_evictions > 0
    assert sites["SiteA"].storage.utilisation <= 0.70 + 1e-9
    # Evictions kept RLS consistent: no planner can route at a ghost.
    for obj_lfn in [f"/solo/{i}" for i in range(9)] + ["/solo/x"]:
        in_storage = obj_lfn in sites["SiteA"].storage
        in_rls = "SiteA" in (rls.sites_with(obj_lfn) or [])
        assert in_storage == in_rls


def test_replicates_hot_dataset_to_least_loaded_site(eng, net, rng):
    sites, rls, cat, agent = build(eng, net, replicate_threshold=3)
    manager = TransferManager(eng, sites, rng, rls=rls)
    agent.transfers = manager
    fill(sites, rls, "SiteA", ["/atlas/hot/f1"], size=100 * MB)
    cat.auto_define("/atlas/hot/f1", 100 * MB)
    for _ in range(3):
        cat.record_access("/atlas/hot/f1", 10.0)
    # SiteC is busier than SiteB; SiteB must win the copy.
    sites["SiteC"].storage.store("/ballast", 300 * MB)
    agent.sweep_once()
    assert agent.replications_started == 1
    eng.run_process(manager.drain())
    assert rls.sites_with("/atlas/hot/f1") == ["SiteA", "SiteB"]
    assert agent.report()[1].replicas_received == 1  # SiteB row


def test_replication_skips_cold_and_already_replicated(eng, net, rng):
    sites, rls, cat, agent = build(eng, net, replicate_threshold=3)
    agent.transfers = TransferManager(eng, sites, rng, rls=rls)
    # Hot but already at 2 sites; and warm-but-below-threshold.
    fill(sites, rls, "SiteA", ["/atlas/hot/f1"], size=100 * MB)
    rls.register("SiteB", "/atlas/hot/f1", 100 * MB)
    cat.auto_define("/atlas/hot/f1", 100 * MB)
    for _ in range(5):
        cat.record_access("/atlas/hot/f1", 1.0)
    fill(sites, rls, "SiteA", ["/sdss/warm/f1"], size=100 * MB)
    cat.auto_define("/sdss/warm/f1", 100 * MB)
    cat.record_access("/sdss/warm/f1", 1.0)
    agent.sweep_once()
    assert agent.replications_started == 0


def test_replication_avoids_dead_gridftp_target(eng, net, rng):
    sites, rls, cat, agent = build(eng, net, replicate_threshold=1)
    agent.transfers = TransferManager(eng, sites, rng, rls=rls)
    fill(sites, rls, "SiteA", ["/atlas/hot/f1"], size=100 * MB)
    cat.auto_define("/atlas/hot/f1", 100 * MB)
    cat.record_access("/atlas/hot/f1", 1.0)
    sites["SiteB"].service("gridftp").fail("dead")
    agent.sweep_once()
    eng.run_process(agent.transfers.drain())
    assert rls.sites_with("/atlas/hot/f1") == ["SiteA", "SiteC"]


def latest_at(store, name, site):
    """The newest sample of ``name`` tagged ``site=<site>``, or None."""
    rows = [s for s in store.query(name) if ("site", site) in s.tags]
    return rows[-1] if rows else None


def test_periodic_sweep_publishes_metrics(eng, net):
    sites, rls, _cat, agent = build(eng, net, interval=1 * HOUR)
    fill(sites, rls, "SiteA", [f"/x/{i}" for i in range(9)], register=False)
    eng.run(until=2.5 * HOUR)
    assert agent.sweeps == 2
    occ = latest_at(agent.store, "data.occupancy", "SiteA")
    assert occ is not None and occ.value <= 0.70 + 1e-9
    ev = latest_at(agent.store, "data.evictions", "SiteA")
    assert ev is not None and ev.value > 0
    assert latest_at(agent.store, "data.evictions", "SiteB").value == 0
    assert agent.store.latest("data.replications") is not None


def test_report_rows_are_sorted_and_complete(eng, net):
    sites, rls, _cat, agent = build(eng, net)
    fill(sites, rls, "SiteB", ["/x/a"], register=False)
    rows = agent.report()
    assert [r.site for r in rows] == ["SiteA", "SiteB", "SiteC"]
    assert rows[1].files == 1
    assert rows[1].occupancy == pytest.approx(0.1)
    assert rows[0].capacity == 1 * GB
