"""Tests for the application demonstrators: campaign scheduling, per-app
workload shapes, and stats accounting."""

import pytest

from repro import Grid3, Grid3Config
from repro.apps import (
    ATLASApplication,
    AppContext,
    BTeVApplication,
    CMSApplication,
    ExerciserApplication,
    GridFTPDemoApplication,
    IVDGLApplication,
    LIGOApplication,
    SDSSApplication,
)
from repro.failures import FailureProfile
from repro.sim import DAY, GB, HOUR, MINUTE


@pytest.fixture(scope="module")
def deployed_grid():
    """A deployed (but idle) grid reused for campaign-schedule tests."""
    grid = Grid3(Grid3Config(scale=800, duration_days=183,
                             failures=FailureProfile.disabled(),
                             ops_team=False, local_load=False))
    grid.deploy()
    return grid


def ctx_of(grid, **overrides):
    ctx = grid.app_context()
    for key, value in overrides.items():
        setattr(ctx, key, value)
    return ctx


# --- campaign scheduling ------------------------------------------------------

def test_scaled_units(deployed_grid):
    app = IVDGLApplication(ctx_of(deployed_grid))
    assert app.scaled_units() == round(58145 / 800)


def test_submission_times_sorted_and_within_window(deployed_grid):
    app = ATLASApplication(ctx_of(deployed_grid))
    times = app.submission_times()
    assert len(times) == app.scaled_units()
    assert times == sorted(times)
    assert all(0 <= t <= app.ctx.duration for t in times)


def test_submission_times_respect_monthly_profile(deployed_grid):
    """BTeV puts 91 % of its production in November 2003."""
    app = BTeVApplication(ctx_of(deployed_grid))
    cal = app.ctx.calendar
    labels = [cal.month_label(t) for t in app.submission_times()]
    november = sum(1 for l in labels if l == "11-2003")
    assert november / len(labels) > 0.5


def test_sdss_peaks_late(deployed_grid):
    """SDSS peak month is 02-2004 (Table 1) — it ramps later."""
    app = SDSSApplication(ctx_of(deployed_grid))
    # Use a bigger sample than the scaled unit count for a stable check.
    app.total_units = 400 * 800
    cal = app.ctx.calendar
    labels = [cal.month_label(t) for t in app.submission_times()]
    from collections import Counter
    counts = Counter(labels)
    assert counts["02-2004"] == max(counts.values())


# --- workload shapes -----------------------------------------------------------

def test_atlas_chain_structure(deployed_grid):
    app = ATLASApplication(ctx_of(deployed_grid))
    dax = app._production_dax(0)
    assert len(dax) == 3
    sizes = dax.output_sizes()
    # §4.1: simulation datasets average ~2 GB.
    assert sizes["/atlas/atl00000/sim"] == 2 * GB


def test_cms_control_db_filled(deployed_grid):
    app = CMSApplication(ctx_of(deployed_grid))
    assert len(app.control_db) == app.scaled_units()
    sims = [r.simulator for r in app.control_db._requests.values()]
    assert "oscar" in sims  # the §6.2 long-job mix


def test_sdss_neo_scan_dag(deployed_grid):
    """The §4.3 asteroid search: flat pixel scans over imaging strips."""
    app = SDSSApplication(ctx_of(deployed_grid))
    dag, refused = app._neo_dag(0)
    assert refused == []  # the archive had room for every strip
    assert 2 <= len(dag) <= 6
    for node in dag.nodes():
        assert node.spec.inputs[0][0].startswith("/sdss/images/strip-")
        assert node.spec.staging == "heavy"
        assert not dag.parents(node.node_id)  # flat fan-out, no deps
    # The imaging strips were published and registered.
    assert app._strips_published >= 1
    lfn = dag.nodes()[0].spec.inputs[0][0]
    assert deployed_grid.rls.sites_with(lfn) == ["FNAL_CMS"]


def test_ligo_test_vs_full_mode(deployed_grid):
    test_app = LIGOApplication(ctx_of(deployed_grid), test_mode=True)
    assert test_app.total_units == 3
    full_app = LIGOApplication(ctx_of(deployed_grid), test_mode=False,
                               full_search_units=50)
    assert full_app.total_units == 50
    search = full_app._search_spec(0)
    assert search.inputs[0][1] == 4 * GB       # §4.4: 4 GB per job
    assert search.archive_site == "UWM_LIGO"   # results go home


def test_btev_runtime_mixture(deployed_grid):
    app = BTeVApplication(ctx_of(deployed_grid))
    runtimes = [app._spec(i).runtime for i in range(300)]
    mean_hr = sum(runtimes) / len(runtimes) / HOUR
    # Table 1: mean 1.77 h from a short/production mixture.
    assert 0.8 < mean_hr < 3.5
    assert max(runtimes) > 5 * HOUR  # production tail exists


def test_ivdgl_gadu_needs_outbound(deployed_grid):
    app = IVDGLApplication(ctx_of(deployed_grid))
    gadu = app._gadu_spec(0)
    snb = app._snb_spec(0)
    assert gadu.requires_outbound and not snb.requires_outbound


def test_exerciser_probes_are_nice_user(deployed_grid):
    app = ExerciserApplication(ctx_of(deployed_grid), probe_sites=["BNL_ATLAS"])
    spec = app._probe_spec("BNL_ATLAS")
    assert spec.nice_user
    assert spec.runtime < 30 * MINUTE


# --- end-to-end app runs (tiny) --------------------------------------------------

def run_app(app_names, days=10, scale=800, **cfg_kw):
    grid = Grid3(Grid3Config(
        seed=13, scale=scale, duration_days=days, apps=app_names,
        failures=FailureProfile.disabled(), **cfg_kw,
    ))
    grid.run_full()
    return grid


def test_btev_end_to_end():
    grid = run_app(["btev"], days=60)
    app = grid.apps["btev"]
    assert app.stats.job_count >= 1
    assert app.stats.success_rate > 0.5
    # The favourite-site stickiness drove jobs to Vanderbilt.
    sites = [j.site_name for j in app.stats.jobs]
    assert sites.count("Vanderbilt_BTeV") >= len(sites) * 0.3
    assert app.events_generated > 0


def test_exerciser_end_to_end_detects_broken_site():
    # ops_team off (and no misconfigured installs) so the broken
    # gatekeeper stays broken long enough for probes to notice.
    # scale 50 keeps the probe interval (15 min x scale) near half a day
    # so several probe cycles land after the break.
    grid = Grid3(Grid3Config(
        seed=13, scale=50, duration_days=6, apps=["exerciser"],
        failures=FailureProfile.disabled(), ops_team=False,
        misconfig_probability=0.0,
    ))
    grid.deploy()
    grid.start_applications()
    grid.run(days=3)
    app = grid.apps["exerciser"]
    assert app.stats.job_count > 10
    assert app.stats.success_rate > 0.9
    # Break a probed site's gatekeeper mid-campaign: probes start failing.
    grid.sites["BNL_ATLAS"].service("gatekeeper").available = False
    grid.run()
    assert "BNL_ATLAS" in app.broken_sites(threshold=1)


def test_gridftp_demo_moves_data():
    grid = run_app(["gridftp-demo"], days=5)
    app = grid.apps["gridftp-demo"]
    assert app.transfers_ok > 0
    assert app.reliability > 0.8       # §6.3: "ran reliably"
    assert grid.ledger.total_bytes(kind="demo") > 0


def test_atlas_end_to_end_registers_datasets():
    grid = run_app(["usatlas"], days=60, scale=400)
    app = grid.apps["usatlas"]
    assert app.stats.job_count >= 3
    # Completed outputs were archived at BNL and registered in RLS.
    dst_lfns = [l for l in grid.rls.catalogued_lfns() if l.endswith("/dst")]
    if app.stats.succeeded >= 3:
        assert dst_lfns
        assert "BNL_ATLAS" in grid.rls.sites_with(dst_lfns[0])
