"""Integration tests: dCache pool managers fronting the Tier1 archives."""

import hashlib

import pytest

from repro import Grid3, Grid3Config
from repro.analysis.export import export_database
from repro.failures import FailureProfile
from repro.middleware.dcache import DCachePoolManager
from repro.monitoring.core import make_tags
from repro.sim import GB, HOUR


@pytest.fixture(scope="module")
def dcache_grid():
    grid = Grid3(Grid3Config(
        seed=51, scale=400, duration_days=8,
        apps=["usatlas", "btev"],
        failures=FailureProfile.disabled(),
        misconfig_probability=0.0,
        tier1_dcache=True,
        tier1_dcache_pools=4,
    ))
    grid.run_full()
    return grid


def test_tier1s_run_pool_managers(dcache_grid):
    for name in ("BNL_ATLAS", "FNAL_CMS"):
        storage = dcache_grid.sites[name].storage
        assert isinstance(storage, DCachePoolManager)
        assert len(storage.pools) == 4
    # Non-Tier1 sites keep flat SEs.
    assert not isinstance(
        dcache_grid.sites["UC_ATLAS"].storage, DCachePoolManager
    )


def test_production_archives_into_pools(dcache_grid):
    bnl = dcache_grid.sites["BNL_ATLAS"].storage
    app = dcache_grid.apps["usatlas"]
    if app.stats.succeeded >= 3:
        assert len(bnl) > 0
        # Files are spread across more than one pool.
        populated = [p for p in bnl.pools if len(p.storage) > 0]
        assert len(populated) >= 2
        # RLS agrees the archive holds the outputs.
        dst = [l for l in dcache_grid.rls.catalogued_lfns() if l.endswith("/dst")]
        if dst:
            assert "BNL_ATLAS" in dcache_grid.rls.sites_with(dst[0])


def test_monitoring_and_probes_work_over_dcache(dcache_grid):
    # Ganglia sampled disk gauges off the pool manager without error.
    bnl = dcache_grid.monitors["ganglia"].store.latest_per_series("disk.used")
    assert make_tags(site="BNL_ATLAS") in bnl
    # The status catalog probed the Tier1s fine.
    page = dict(
        (site, status)
        for site, status, _p in dcache_grid.monitors["status"].status_page()
    )
    assert page["BNL_ATLAS"] in ("PASS", "FAIL")


def test_pool_failure_isolation_live(dcache_grid):
    bnl = dcache_grid.sites["BNL_ATLAS"].storage
    populated = [p for p in bnl.pools if len(p.storage) > 0]
    if not populated:
        pytest.skip("no archived files at this scale")
    victim = populated[0]
    before = len(bnl)
    lost = bnl.fail_pool(victim)
    # Only the victim's sole-copy files vanished; the namespace survives.
    assert len(lost) <= len(victim.storage._files) + 1
    bnl.restore_pool(victim)
    assert len(bnl) == before


def test_srm_over_dcache():
    grid = Grid3(Grid3Config(
        seed=52, scale=600, duration_days=4,
        apps=["btev"],
        failures=FailureProfile.disabled(),
        misconfig_probability=0.0,
        use_srm=True,
        tier1_dcache=True,
    ))
    grid.run_full()
    # Reservations were granted and fully released.
    for name in ("BNL_ATLAS", "FNAL_CMS"):
        storage = grid.sites[name].storage
        assert storage.reserved == pytest.approx(0.0, abs=1e-6)
    app = grid.apps["btev"]
    assert app.stats.success_rate > 0.8


def _pool_failure_run():
    grid = Grid3(Grid3Config(
        seed=51, scale=400, duration_days=4,
        apps=["usatlas", "btev"],
        failures=FailureProfile(pool_failure_interval=12 * HOUR),
        tier1_dcache=True,
        tier1_dcache_pools=4,
    ))
    grid.run_full()
    return grid


def test_injected_pool_failures_land_in_tier1_ledgers():
    """The failure injector's pool loop fires against live Tier-1 pool
    managers: outages reach the pools' downtime ledgers, and the run
    stays deterministic."""
    grid = _pool_failure_run()
    assert grid.injector.injected["pool"] > 0
    pools = [pool for name in ("BNL_ATLAS", "FNAL_CMS")
             for pool in grid.sites[name].storage.pools]
    assert any(len(pool.ledger) > 0 for pool in pools)
    assert any(outage.cause == "injected pool failure"
               for pool in pools for outage in pool.ledger.outages())

    def digest(run):
        return hashlib.sha256(
            export_database(run.acdc_db).encode()).hexdigest()

    assert digest(grid) == digest(_pool_failure_run())
