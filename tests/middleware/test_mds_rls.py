"""Tests for the MDS GRIS/GIIS hierarchy and the RLS replica service."""

import dataclasses
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReplicaNotFoundError, ServiceUnavailableError
from repro.fabric import Network, SiteConfig
from repro.middleware import mds
from repro.middleware.mds import GIIS, GRIS, build_mds_hierarchy, glue_record
from repro.middleware.pacman import Package, PacmanCache, install
from repro.middleware.rls import LocalReplicaCatalog, ReplicaLocationIndex
from repro.sim import Engine, GB, MINUTE

from ..conftest import make_site


# --- MDS -----------------------------------------------------------------

def test_glue_record_contains_grid3_extensions(eng, net):
    site = make_site(eng, net, "SiteA")
    rec = glue_record(site)
    assert rec["site"] == "SiteA"
    assert rec["grid3_app_dir"] == "/grid3/app"
    assert rec["grid3_tmp_dir"] == "/grid3/tmp"
    assert "outbound_connectivity" in rec
    assert rec["total_cpus"] == site.cluster.total_cpus


def test_gris_caches_within_ttl(eng, net):
    site = make_site(eng, net, "SiteA")
    gris = GRIS(eng, site, ttl=5 * MINUTE)
    rec1 = gris.query()
    assert rec1["free_cpus"] == 4
    site.cluster.allocate("job")  # state changes...
    rec2 = gris.query()
    assert rec2["free_cpus"] == 4  # ...but the cache hasn't expired
    eng.run(until=6 * MINUTE)
    rec3 = gris.query()
    assert rec3["free_cpus"] == 3  # fresh after TTL
    assert gris.queries_served == 3


def _counting_builds(calls, what):
    """Patch the module's record builder to append ``what(inputs)`` to
    ``calls`` on every build."""
    build = mds._glue_from

    def counting(inputs):
        calls.append(what(inputs))
        return build(inputs)
    return mock.patch.object(mds, "_glue_from", counting)


def _config_change(field):
    def change(site, _node, _eng):
        value = getattr(site.config, field)
        if isinstance(value, bool):
            value = not value
        elif isinstance(value, str):
            value += "-2"
        else:
            value *= 2
        setattr(site.config, field, value)
    return change


def _pacman_install(site, _node, eng):
    cache = PacmanCache()
    cache.publish(Package("vdt-extra", install_time=1 * MINUTE))
    eng.process(install(eng, cache, site, "vdt-extra"))


def _grow_storage(site, _node, _eng):
    # The capacity moves while the free space does not.
    site.storage.capacity += 1 * GB
    site.storage.store("/f", 1 * GB)


#: One change per input of the GLUE record, each applied alone.
GLUE_INPUT_CHANGES = {
    "site name": lambda site, node, eng: setattr(site, "name", "A2"),
    "institution": lambda site, node, eng: setattr(site, "institution", "Other U."),
    "owner vo": lambda site, node, eng: setattr(site, "owner_vo", "uscms"),
    "queue length": lambda site, node, eng: setattr(site.service("lrm"), "queue_length", 3),
    "cpu allocate": lambda site, node, eng: site.cluster.allocate("job"),
    "cpu release": lambda site, node, eng: site.cluster.release(node, "held"),
    # Each of free, busy and total CPUs moved alone:
    "idle node offline": lambda site, node, eng: site.cluster.fail_node(site.cluster.nodes[-1]),
    "busy node offline": lambda site, node, eng: site.cluster.fail_node(node),
    "offline node removed": lambda site, node, eng: site.cluster.resize(3),
    "se name": lambda site, node, eng: setattr(site.storage, "name", "A-se2"),
    "storage use": lambda site, node, eng: site.storage.store("/f", 1 * GB),
    "storage capacity": _grow_storage,
    "uplink bandwidth": lambda site, node, eng: setattr(site.uplink, "nominal_bandwidth", 1e9),
    **{f"config {f.name}": _config_change(f.name) for f in dataclasses.fields(SiteConfig)},
    "pacman install": _pacman_install,
    "atlas install": lambda site, node, eng: site.installed_packages.__setitem__("gce-server", "?"),
}


@pytest.mark.parametrize("change", GLUE_INPUT_CHANGES)
def test_gris_republishes_exactly_when_an_input_moves(eng, net, change):
    """A refresh with nothing changed keeps the record object; a change
    of any one input publishes a new one, equal to a fresh build."""
    site = make_site(eng, net, "A")
    site.attach_service("lrm", SimpleNamespace(queue_length=0))
    node = site.cluster.allocate("held")  # on nodes[0]
    site.cluster.fail_node(site.cluster.nodes[1])
    gris = GRIS(eng, site, ttl=5 * MINUTE)
    first = gris.record()
    eng.run(until=eng.now + 5 * MINUTE)
    assert gris.record() is first
    GLUE_INPUT_CHANGES[change](site, node, eng)
    eng.run(until=eng.now + 5 * MINUTE)
    second = gris.record()
    assert second is not first
    assert second == glue_record(site) != first
    eng.run(until=eng.now + 5 * MINUTE)
    assert gris.record() is second
    assert gris.cache_valid_until == eng.now + 5 * MINUTE


def test_gris_down_raises(eng, net):
    site = make_site(eng, net, "SiteA")
    gris = GRIS(eng, site)
    gris.available = False
    with pytest.raises(ServiceUnavailableError):
        gris.query()


def test_giis_registration_and_query(eng, net):
    site = make_site(eng, net, "SiteA")
    gris = GRIS(eng, site)
    giis = GIIS(eng, "giis-test")
    giis.register("SiteA", gris)
    assert giis.registered_names() == ["SiteA"]
    assert giis.query("SiteA")["site"] == "SiteA"
    with pytest.raises(KeyError):
        giis.query("Unknown")


def test_giis_query_all_skips_dead_gris(eng, net):
    a, b = make_site(eng, net, "A"), make_site(eng, net, "B")
    gris_a, gris_b = GRIS(eng, a), GRIS(eng, b)
    gris_b.available = False
    giis = GIIS(eng, "g")
    giis.register("A", gris_a)
    giis.register("B", gris_b)
    records = giis.query_all()
    assert [r["site"] for r in records] == ["A"]


def test_build_mds_hierarchy(eng, net):
    sites = [make_site(eng, net, f"S{i}", vo="usatlas" if i < 2 else "uscms") for i in range(4)]
    mds = build_mds_hierarchy(eng, sites)
    assert sorted(mds) == ["gris", "top"]
    assert mds["top"].registered_names() == ["S0", "S1", "S2", "S3"]
    # Every site got a gris service attached.
    assert all(isinstance(s.service("gris"), GRIS) for s in sites)


def test_registrations_do_not_expire(eng, net):
    """A registration is permanent: with no renewal at all, the index
    answers every site ten times as long after deploy as a 30-minute
    soft-state registration would have lived."""
    sites = [make_site(eng, net, f"S{i}") for i in range(3)]
    mds = build_mds_hierarchy(eng, sites)
    eng.run(until=10 * 30 * MINUTE)
    top = mds["top"]
    assert [r["site"] for r in top.query_all()] == ["S0", "S1", "S2"]
    assert [r["site"] for r in top.active_records()] == ["S0", "S1", "S2"]
    assert top.query("S1")["site"] == "S1"


def test_renewal_keeps_the_index_and_a_new_source_drops_it(eng, net):
    site = make_site(eng, net, "A")
    calls = []
    gris = GRIS(eng, site, ttl=5 * MINUTE)
    giis = GIIS(eng, "g")
    giis.register("A", gris)
    with _counting_builds(calls, lambda _inputs: eng.now):
        first = giis.active_records()[0]
        eng.run(until=1 * MINUTE)
        giis.register("A", gris)  # the same source registered again
        assert giis.active_records()[0] is first
        assert gris.queries_served == 1
        twin = GRIS(eng, site, ttl=5 * MINUTE)
        giis.register("A", twin)  # a different source: the list is rebuilt
        assert giis.active_records()[0] is not first
    assert calls == [0.0, 1 * MINUTE]
    assert gris.query() == first and gris.query() is not first  # query copies


# --- the index against a brute-force sweep ---------------------------------

NAMES = ["A", "B", "C"]

_index_step = st.one_of(
    st.tuples(st.sampled_from(["register", "replace", "fail", "restore", "install"]),
              st.sampled_from(NAMES)),
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 1 * MINUTE, 5 * MINUTE + 1, 30 * MINUTE + 1])),
    # One CPU taken at every site, so any stale record shows.
    st.tuples(st.just("allocate"), st.none()),
)


def _sweep(registry):
    """A full sweep, as on every read before the index: sorted names,
    query each available GRIS."""
    return [registry[name].query() for name in sorted(registry)
            if registry[name].available]


@settings(max_examples=300, deadline=None)
@given(ttls=st.lists(st.sampled_from([0.0, 1 * MINUTE, 5 * MINUTE, 30 * MINUTE]),
                     min_size=len(NAMES), max_size=len(NAMES)),
       steps=st.lists(_index_step, min_size=1, max_size=40))
def test_property_index_matches_a_full_sweep(ttls, steps):
    """After every step the incremental index answers exactly what a
    full sweep on every read answers, in values and order, and no
    site's record is built more often than under that sweep."""
    eng = Engine()
    net = Network(eng)
    sites = {name: make_site(eng, net, name, cpus=64) for name in NAMES}
    ttl = dict(zip(NAMES, ttls))
    builds = []  # (reader, site) per record build
    reader = ["index"]

    def gris(name):
        return GRIS(eng, sites[name], ttl=ttl[name])

    def read(side, fn, *args):
        reader[0] = side
        return fn(*args)

    giis = GIIS(eng, "g")
    current = {name: (gris(name), gris(name)) for name in NAMES}
    registry = {}  # the sweep's own registrations: name -> GRIS
    with _counting_builds(builds, lambda inputs: (reader[0], inputs[0])):
        for kind, arg in [("register", name) for name in NAMES] + steps:
            if kind == "advance":
                eng.run(until=eng.now + arg)
            elif kind in ("register", "replace"):
                if kind == "replace":
                    current[arg] = (gris(arg), gris(arg))
                giis.register(arg, current[arg][0])
                registry[arg] = current[arg][1]
            elif kind in ("fail", "restore"):
                for source in current[arg]:
                    getattr(source, kind)()
            elif kind == "install":
                packages = sites[arg].installed_packages
                packages[f"pkg-{len(packages)}"] = "1.0"
            else:
                for site in sites.values():
                    site.cluster.allocate(object())
            records = read("sweep", _sweep, registry)
            assert read("index", giis.query_all) == records
            assert read("index", giis.active_records) == records
            for name in NAMES:
                assert builds.count(("index", name)) <= builds.count(("sweep", name))


# --- RLS -----------------------------------------------------------------

def test_lrc_add_lookup_remove():
    lrc = LocalReplicaCatalog("SiteA")
    replica = lrc.add("/atlas/evt001", 2 * GB)
    assert replica.pfn == "gsiftp://SiteA/atlas/evt001"
    assert "/atlas/evt001" in lrc
    assert lrc.lookup("/atlas/evt001").size == 2 * GB
    lrc.remove("/atlas/evt001")
    with pytest.raises(ReplicaNotFoundError):
        lrc.lookup("/atlas/evt001")
    assert lrc.lfns() == []


def test_lrc_down(eng):
    lrc = LocalReplicaCatalog("SiteA")
    lrc.add("f", 1.0)
    lrc.available = False
    with pytest.raises(ServiceUnavailableError):
        lrc.lookup("f")


def test_rli_register_and_locate(eng):
    rli = ReplicaLocationIndex(eng)
    for name in ("A", "B"):
        rli.attach_lrc(LocalReplicaCatalog(name))
    rli.register("A", "/lfn/x", 1 * GB)
    rli.register("B", "/lfn/x", 1 * GB)
    assert rli.sites_with("/lfn/x") == ["A", "B"]
    assert {r.site for r in rli.locate("/lfn/x")} == {"A", "B"}
    assert rli.registrations == 2


def test_rli_unregister_cleans_index(eng):
    rli = ReplicaLocationIndex(eng)
    rli.attach_lrc(LocalReplicaCatalog("A"))
    rli.register("A", "/lfn/x", 1.0)
    rli.unregister("A", "/lfn/x")
    assert rli.sites_with("/lfn/x") == []
    assert rli.catalogued_lfns() == []
    with pytest.raises(ReplicaNotFoundError):
        rli.locate("/lfn/x")


def test_rli_best_replica_prefers_sites(eng):
    rli = ReplicaLocationIndex(eng)
    for name in ("A", "B", "C"):
        rli.attach_lrc(LocalReplicaCatalog(name))
    rli.register("A", "/lfn/x", 1.0)
    rli.register("C", "/lfn/x", 1.0)
    assert rli.best_replica("/lfn/x", prefer_sites=["B", "C", "A"]).site == "C"
    assert rli.best_replica("/lfn/x").site == "A"  # default: first sorted


def test_rli_down(eng):
    rli = ReplicaLocationIndex(eng)
    rli.available = False
    with pytest.raises(ServiceUnavailableError):
        rli.sites_with("/x")
    with pytest.raises(ServiceUnavailableError):
        rli.register("A", "/x", 1.0)


def test_rli_locate_skips_dead_lrc(eng):
    rli = ReplicaLocationIndex(eng)
    a, b = LocalReplicaCatalog("A"), LocalReplicaCatalog("B")
    rli.attach_lrc(a)
    rli.attach_lrc(b)
    rli.register("A", "/x", 1.0)
    rli.register("B", "/x", 1.0)
    a.available = False
    assert [r.site for r in rli.locate("/x")] == ["B"]
    b.available = False
    with pytest.raises(ReplicaNotFoundError):
        rli.locate("/x")
