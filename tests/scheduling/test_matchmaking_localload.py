"""Tests for §6.4 site selection and shared-site background load."""

import pytest

from repro.core.job import JobSpec
from repro.middleware.mds import GIIS, GRIS
from repro.scheduling.localload import LocalLoadGenerator, add_local_load
from repro.scheduling.matchmaking import RandomSelector, SiteSelector
from repro.sim import DAY, GB, HOUR, RngRegistry, TB

from ..conftest import make_site


def spec(**kw):
    defaults = dict(name="j", vo="usatlas", user="alice", runtime=HOUR,
                    walltime_request=4 * HOUR)
    defaults.update(kw)
    return JobSpec(**defaults)


def build_giis(eng, net, site_params):
    giis = GIIS(eng, "g")
    sites = {}
    for name, kw in site_params.items():
        site = make_site(eng, net, name, **kw)
        gris = GRIS(eng, site, ttl=0.0)
        site.attach_service("gris", gris)
        giis.register(name, gris)
        sites[name] = site
    return giis, sites


def test_filter_outbound_connectivity(eng, net, rng):
    giis, _ = build_giis(eng, net, {
        "Open": dict(outbound_connectivity=True),
        "Private": dict(outbound_connectivity=False),
    })
    sel = SiteSelector(giis, rng)
    ranked = sel.rank(spec(requires_outbound=True))
    assert ranked == ["Open"]
    # Without the requirement, both qualify.
    assert set(sel.rank(spec())) == {"Open", "Private"}


def test_filter_disk_space(eng, net, rng):
    giis, _ = build_giis(eng, net, {
        "Big": dict(disk=10 * TB),
        "Tiny": dict(disk=2 * GB),
    })
    sel = SiteSelector(giis, rng)
    big_job = spec(outputs=(("/out", 5 * GB),))
    assert sel.rank(big_job) == ["Big"]


def test_filter_walltime(eng, net, rng):
    giis, _ = build_giis(eng, net, {
        "Long": dict(max_walltime=100 * HOUR),
        "Short": dict(max_walltime=10 * HOUR),
    })
    sel = SiteSelector(giis, rng)
    # A >30h OSCAR-style job (§6.2) only fits the long-walltime site.
    oscar = spec(runtime=30 * HOUR, walltime_request=40 * HOUR)
    assert sel.rank(oscar) == ["Long"]


def test_vo_affinity_preference(eng, net, rng):
    giis, _ = build_giis(eng, net, {
        "Home": dict(vo="usatlas"),
        "Away": dict(vo="uscms"),
    })
    sel = SiteSelector(giis, rng, jitter=0.0)
    assert sel.rank(spec(vo="usatlas"))[0] == "Home"
    assert sel.rank(spec(vo="uscms", user="bob"))[0] == "Away"


def test_bandwidth_matters_for_data_heavy_jobs(eng, net, rng):
    giis, _ = build_giis(eng, net, {
        "Fat": dict(bw=1.25e8, vo="uscms"),     # 1 Gbit
        "Thin": dict(bw=5.6e6, vo="uscms"),     # 45 Mbit
    })
    sel = SiteSelector(giis, rng, jitter=0.0, vo_affinity_weight=0.0)
    heavy = spec(inputs=(("/in", 4 * GB),))
    assert sel.rank(heavy)[0] == "Fat"


def test_favorite_site_stickiness(eng, net, rng):
    giis, _ = build_giis(eng, net, {"A": {}, "B": {}})
    sel = SiteSelector(giis, rng, jitter=0.0, favorite_weight=5.0,
                       vo_affinity_weight=0.0)
    for _ in range(10):
        sel.record_use("usatlas", "alice", "B")
    assert sel.rank(spec())[0] == "B"
    # A different user has no such preference amplification.
    sel2_rank = sel.rank(spec(user="fresh"))
    assert set(sel2_rank) == {"A", "B"}


def test_exclude_list(eng, net, rng):
    giis, _ = build_giis(eng, net, {"A": {}, "B": {}})
    sel = SiteSelector(giis, rng)
    assert sel.rank(spec(), exclude=["A"]) == ["B"]
    assert sel.select(spec(), exclude=["A", "B"]) is None


def test_random_selector_ignores_requirements(eng, net, rng):
    giis, _ = build_giis(eng, net, {
        "Tiny": dict(disk=1 * GB),
        "Private": dict(outbound_connectivity=False),
    })
    sel = RandomSelector(giis, rng)
    demanding = spec(requires_outbound=True, outputs=(("/o", 10 * GB),))
    assert set(sel.rank(demanding)) == {"Tiny", "Private"}
    sel.record_use("usatlas", "alice", "Tiny")  # no-op, must not raise


def test_queue_wait_estimate_deprioritises_clogged_site(eng, net, rng):
    """§8 'Job Resource Requirements': published wait estimates steer
    placement away from backlogged sites."""
    from ..conftest import wire_site
    from repro.core.job import Job

    giis = GIIS(eng, "g")
    sites = {}
    for name in ("Clogged", "Idle"):
        site = make_site(eng, net, name, cpus=2)
        wire_site(eng, site, [])
        from repro.middleware.mds import GRIS as _GRIS
        gris = _GRIS(eng, site, ttl=0.0)
        site.attach_service("gris", gris)
        giis.register(name, gris)
        sites[name] = site
    # Fill Clogged's CPUs and stack a deep queue.
    lrm = sites["Clogged"].service("lrm")
    for i in range(10):
        lrm.submit(Job(spec=spec(name=f"clog{i}", runtime=10 * HOUR,
                                 walltime_request=40 * HOUR)))
    sel = SiteSelector(giis, rng, jitter=0.0, exploration=0.0,
                       vo_affinity_weight=0.0)
    assert sel.rank(spec())[0] == "Idle"


# --- local load ---------------------------------------------------------------

def test_local_load_targets_occupancy(eng, net, rng):
    site = make_site(eng, net, "Shared", cpus=100)
    gen = LocalLoadGenerator(eng, site, rng, availability=0.6, jitter=0.0)
    eng.run(until=1.0)
    assert gen.held_cpus == 40
    assert site.cluster.free_cpus == 60


def test_local_load_fluctuates_but_bounded(eng, net, rng):
    site = make_site(eng, net, "Shared", cpus=50)
    gen = LocalLoadGenerator(eng, site, rng, availability=0.7, jitter=0.1)
    samples = []

    def sampler():
        for _ in range(48):
            yield eng.timeout(HOUR)
            samples.append(gen.held_cpus)

    eng.process(sampler())
    eng.run(until=2 * DAY + 1)
    mean = sum(samples) / len(samples)
    assert 0.2 * 50 <= mean <= 0.4 * 50  # around 30 % occupancy
    assert min(samples) >= 0 and max(samples) <= 50
    assert len(set(samples)) > 1  # actually fluctuates


def test_local_load_never_evicts_grid_jobs(eng, net, rng):
    site = make_site(eng, net, "Shared", cpus=4)
    # Grid jobs hold every CPU.
    for i in range(4):
        site.cluster.allocate(f"grid-{i}")
    LocalLoadGenerator(eng, site, rng, availability=0.0, jitter=0.0)
    eng.run(until=1.0)
    # Local load wanted everything but could take nothing.
    assert all(f"grid-{i}" in
               [k for n in site.cluster.nodes for k in n.running]
               for i in range(4))


def test_local_load_validation(eng, net, rng):
    site = make_site(eng, net, "S", cpus=2)
    with pytest.raises(ValueError):
        LocalLoadGenerator(eng, site, rng, availability=1.5)


def test_add_local_load_only_shared(eng, net, rng):
    from repro.fabric import scaled_catalog, build_sites
    specs = scaled_catalog(50.0)
    sites = build_sites(eng, net, specs)
    by_name = {s.name: s for s in specs}
    gens = add_local_load(eng, sites.values(), by_name, rng)
    shared_count = sum(1 for s in specs if s.shared)
    assert len(gens) == shared_count
