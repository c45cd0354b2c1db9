"""Shared fixtures: a small wired grid fragment for middleware tests."""

import pytest

from repro.fabric import Network, Site, SiteConfig
from repro.middleware.gridftp import attach_gridftp
from repro.middleware.gsi import Authenticator, CertificateAuthority, GridMapFile
from repro.sim import Engine, GB, RngRegistry, TB


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture
def rng():
    return RngRegistry(42)


def make_site(eng, net, name, vo="usatlas", cpus=4, disk=1 * TB, bw=1e8, **cfg):
    """A minimal live site with a GridFTP server attached."""
    site = Site(
        eng,
        name=name,
        institution=f"{name} U.",
        owner_vo=vo,
        nodes=cpus,
        cpus_per_node=1,
        disk_capacity=disk,
        network=net,
        access_bandwidth=bw,
        config=SiteConfig(**cfg) if cfg else None,
    )
    attach_gridftp(eng, site, setup_latency=0.0)
    return site


@pytest.fixture
def net(eng):
    return Network(eng)


@pytest.fixture
def two_sites(eng, net):
    return make_site(eng, net, "SiteA"), make_site(eng, net, "SiteB", vo="uscms")


def wire_site(eng, site, gridmap_dns=(), runner=None):
    """Attach authenticator, gatekeeper and batch scheduler to a site."""
    from repro.middleware.gram import attach_gatekeeper
    from repro.scheduling.flavors import make_scheduler

    gridmap = GridMapFile()
    for dn, account in gridmap_dns:
        gridmap.add(dn, account)
    auth = Authenticator(eng, ["doegrids"], gridmap)
    site.attach_service("authenticator", auth)
    gk = attach_gatekeeper(eng, site, auth)
    lrm = make_scheduler(eng, site, runner)
    gk.lrm = lrm
    lrm.on_job_complete.append(gk.job_finished)
    site.attach_service("lrm", lrm)
    return site


def make_grid_fragment(eng, net, ca, n_sites=3, cpus=4, user_dn="/CN=alice", runner=None, **site_kw):
    """A few fully wired sites + a top GIIS + a proxy for one user.

    Returns (sites dict, giis, proxy).
    """
    from repro.middleware.mds import GIIS, GRIS

    cert = ca.issue(user_dn)
    proxy = ca.make_proxy(cert, lifetime=10 * 365 * 24 * 3600.0)
    giis = GIIS(eng, "giis-frag")
    sites = {}
    for i in range(n_sites):
        site = make_site(eng, net, f"Frag{i}", cpus=cpus, **site_kw)
        wire_site(eng, site, [(user_dn, "grid-usatlas")], runner=runner)
        gris = GRIS(eng, site, ttl=0.0)
        site.attach_service("gris", gris)
        giis.register(site.name, gris)
        sites[site.name] = site
    return sites, giis, proxy


@pytest.fixture
def ca(eng):
    return CertificateAuthority("doegrids", eng)


@pytest.fixture
def authed(eng, ca):
    """(authenticator, proxy) pair where the proxy's DN is mapped."""
    cert = ca.issue("/CN=alice")
    proxy = ca.make_proxy(cert)
    gridmap = GridMapFile()
    gridmap.add("/CN=alice", "grid-usatlas")
    return Authenticator(eng, ["doegrids"], gridmap), proxy
