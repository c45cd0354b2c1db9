"""Tests for Site construction and the reconstructed 27-site catalog.

The catalog tests pin the paper's aggregate constraints (§1, §5, §7) so
any future edit that breaks fidelity fails loudly.
"""

import pytest

from repro.fabric import (
    GRID3_SITES,
    GRID3_VOS,
    VO_HOME_SITE,
    Network,
    build_sites,
    mbit,
    peak_cpus,
    scaled_catalog,
    shared_fraction,
    spec_by_name,
    typical_cpus,
)
from repro.sim import Engine, HOUR, RngRegistry


def test_catalog_has_27_sites():
    assert len(GRID3_SITES) == 27


def test_catalog_peak_cpus_is_2800():
    assert peak_cpus() == 2800


def test_catalog_typical_cpus_near_2163():
    # §7: "Number of CPUs (target = 400, actual = 2163)"
    assert abs(typical_cpus() - 2163) < 25


def test_catalog_shared_fraction_above_60_percent():
    # §7: "More than 60% of CPU resources are drawn from non-dedicated
    # facilities"
    assert shared_fraction() > 0.60


def test_exactly_two_tier1s():
    tier1s = [s for s in GRID3_SITES if s.tier1]
    assert sorted(s.name for s in tier1s) == ["BNL_ATLAS", "FNAL_CMS"]


def test_all_three_batch_systems_present():
    # §5: "OpenPBS, Condor, and LSF"
    assert {s.batch_system for s in GRID3_SITES} == {"pbs", "condor", "lsf"}


def test_six_vos_and_all_have_sites():
    assert len(GRID3_VOS) == 6
    owners = {s.owner_vo for s in GRID3_SITES}
    assert owners == set(GRID3_VOS)


def test_vo_home_sites_exist_in_catalog():
    names = {s.name for s in GRID3_SITES}
    for vo, home in VO_HOME_SITE.items():
        assert vo in GRID3_VOS
        assert home in names


def test_site_names_unique():
    names = [s.name for s in GRID3_SITES]
    assert len(names) == len(set(names))


def test_some_sites_lack_outbound_connectivity():
    # §6.4 criterion 1 only matters because some sites have private
    # worker nodes.
    assert any(not s.outbound_connectivity for s in GRID3_SITES)
    assert sum(s.outbound_connectivity for s in GRID3_SITES) > 15


def test_walltime_spread_supports_cms_validation_story():
    # §6.2: OSCAR jobs run >30 h and "not all sites have been able to
    # accommodate running them".
    long_ok = [s for s in GRID3_SITES if s.max_walltime_hours >= 48]
    short = [s for s in GRID3_SITES if s.max_walltime_hours < 48]
    assert len(long_ok) >= 11  # CMS found 11 usable sites
    assert short  # and some sites genuinely can't run them


def test_spec_by_name():
    assert spec_by_name("BNL_ATLAS").tier1
    with pytest.raises(KeyError):
        spec_by_name("NOPE")


def test_mbit_conversion():
    assert mbit(8) == pytest.approx(1e6)  # 8 Mbit/s = 1 MB/s


def test_scaled_catalog_preserves_structure():
    small = scaled_catalog(10.0)
    assert len(small) == 27
    assert {s.name for s in small} == {s.name for s in GRID3_SITES}
    assert peak_cpus(small) < peak_cpus()
    assert all(s.cpus >= 2 for s in small)
    # Shapes survive: shared fraction within a few points of full size.
    assert abs(shared_fraction(small) - shared_fraction()) < 0.15


def test_scaled_catalog_validation():
    with pytest.raises(ValueError):
        scaled_catalog(0)


def test_build_sites_constructs_everything():
    eng = Engine()
    net = Network(eng)
    sites = build_sites(eng, net, scaled_catalog(20.0))
    assert len(sites) == 27
    bnl = sites["BNL_ATLAS"]
    assert bnl.tier1 and bnl.owner_vo == "usatlas"
    assert bnl.cluster.total_cpus >= 2
    assert bnl.storage.capacity == 40e12
    # Access links were registered on the shared network.
    assert bnl.uplink.name in net.links
    assert bnl.downlink.name in net.links


def test_site_basic_behaviour():
    eng = Engine()
    net = Network(eng)
    sites = build_sites(eng, net, scaled_catalog(50.0))
    site = sites["UC_ATLAS"]
    acct = site.add_account("usatlas")
    assert acct == "grid-usatlas"
    assert site.add_account("usatlas") == acct  # idempotent
    site.attach_service("gatekeeper", object())
    assert site.service("gatekeeper") is not None
    with pytest.raises(KeyError):
        site.service("missing")


def test_route_to_uses_access_links():
    eng = Engine()
    net = Network(eng)
    sites = build_sites(eng, net, scaled_catalog(50.0))
    a, b = sites["BNL_ATLAS"], sites["FNAL_CMS"]
    route = a.route_to(b)
    assert route == ["BNL_ATLAS-up", "FNAL_CMS-down"]


def test_cpu_speed_spread():
    """Hardware heterogeneity: Tier1s fast, old campus clusters slower,
    everything within the 2003-era 0.8-1.3x band around the 2 GHz
    reference."""
    speeds = {s.name: s.cpu_speed for s in GRID3_SITES}
    assert speeds["BNL_ATLAS"] > 1.0 and speeds["FNAL_CMS"] > 1.0
    assert speeds["Hampton_HU"] < 1.0
    assert all(0.7 <= v <= 1.3 for v in speeds.values())
    # The spread is roughly centred: mean near 1.
    mean = sum(speeds.values()) / len(speeds)
    assert 0.95 <= mean <= 1.05


def test_cpu_speed_scales_runtime(eng, net, rng):
    """A job's wall-clock shrinks on faster nodes."""
    from repro.core.job import Job, JobSpec
    from repro.core.runner import Grid3Runner
    from repro.middleware.gridftp import attach_gridftp
    from repro.middleware.rls import LocalReplicaCatalog, ReplicaLocationIndex
    from repro.scheduling.batch import BatchScheduler
    from repro.fabric import Site

    results = {}
    for speed in (0.8, 1.25):
        e = Engine()
        n = Network(e)
        site = Site(e, f"S{speed}", "U", "usatlas", nodes=2, cpus_per_node=1,
                    disk_capacity=1e12, network=n, cpu_speed=speed)
        attach_gridftp(e, site, setup_latency=0.0)
        rls = ReplicaLocationIndex(e)
        rls.attach_lrc(LocalReplicaCatalog(site.name))
        runner = Grid3Runner({site.name: site}, rls, rng)
        sched = BatchScheduler(e, site, runner=runner)
        job = Job(spec=JobSpec(name="j", vo="usatlas", user="u",
                               runtime=10 * HOUR, walltime_request=48 * HOUR,
                               register_outputs=False))
        sched.submit(job)
        e.run()
        assert job.succeeded
        results[speed] = job.run_time
    assert results[0.8] == pytest.approx(10 * HOUR / 0.8)
    assert results[1.25] == pytest.approx(10 * HOUR / 1.25)


def test_site_config_walltime_units():
    eng = Engine()
    net = Network(eng)
    sites = build_sites(eng, net, scaled_catalog(50.0))
    assert sites["LBNL_PDSF"].config.max_walltime == 24 * HOUR
