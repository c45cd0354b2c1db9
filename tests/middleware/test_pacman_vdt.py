"""Tests for Pacman packaging and the VDT site installation pipeline."""

import pytest

from repro.errors import PackagingError
from repro.middleware.gram import Gatekeeper
from repro.middleware.gridftp import GridFTPServer
from repro.middleware.mds import GRIS
from repro.middleware.pacman import (
    Package,
    PacmanCache,
    install,
    resolve,
    validate_site,
)
from repro.middleware.vdt import (
    GRID3_SITE_PACKAGE,
    REQUIRED_PACKAGES,
    vdt_package_set,
)
from repro.sim import MINUTE, RngRegistry

from ..conftest import make_site


def test_cache_publish_fetch():
    cache = PacmanCache()
    cache.publish(Package("a"))
    assert cache.fetch("a").name == "a"
    assert cache.fetches == 1
    with pytest.raises(PackagingError):
        cache.fetch("missing")
    assert cache.names() == ["a"]


def test_resolve_topological_order():
    cache = PacmanCache()
    cache.publish(Package("base"))
    cache.publish(Package("mid", depends=["base"]))
    cache.publish(Package("top", depends=["mid", "base"]))
    order = [p.name for p in resolve(cache, "top")]
    assert order == ["base", "mid", "top"]


def test_resolve_detects_cycles():
    cache = PacmanCache()
    cache.publish(Package("a", depends=["b"]))
    cache.publish(Package("b", depends=["a"]))
    with pytest.raises(PackagingError):
        resolve(cache, "a")


def test_resolve_missing_dependency():
    cache = PacmanCache()
    cache.publish(Package("a", depends=["ghost"]))
    with pytest.raises(PackagingError):
        resolve(cache, "a")


def test_install_takes_time_and_configures(eng, net):
    site = make_site(eng, net, "SiteA")
    cache = PacmanCache()
    flags = []
    cache.publish(Package("base", install_time=2 * MINUTE))
    cache.publish(
        Package("app", depends=["base"], install_time=3 * MINUTE,
                configure=lambda s: flags.append(s.name))
    )
    result = eng.run_process(install(eng, cache, site, "app"))
    assert result == ["base", "app"]
    assert eng.now == pytest.approx(5 * MINUTE)
    assert site.installed_packages == {"base": "1.0", "app": "1.0"}
    assert flags == ["SiteA"]


def test_install_skips_already_installed(eng, net):
    site = make_site(eng, net, "SiteA")
    cache = PacmanCache()
    cache.publish(Package("base", install_time=MINUTE))
    eng.run_process(install(eng, cache, site, "base"))
    t = eng.now
    result = eng.run_process(install(eng, cache, site, "base"))
    assert result == []
    assert eng.now == t  # no time spent


def test_upgrade_reinstalls_new_version(eng, net):
    """§9: 'currently undergoing upgrades' — re-publishing a package at
    a newer version makes install() upgrade it in place."""
    from repro.middleware.pacman import installed_version

    site = make_site(eng, net, "SiteA")
    cache = PacmanCache()
    applied = []
    cache.publish(Package("app", version="1.0", install_time=MINUTE,
                          configure=lambda s: applied.append("1.0")))
    eng.run_process(install(eng, cache, site, "app"))
    assert installed_version(site, "app") == "1.0"
    # Same version: no-op.
    assert eng.run_process(install(eng, cache, site, "app")) == []
    # New version published at the iGOC cache: upgrade applies.
    cache.publish(Package("app", version="2.0", install_time=MINUTE,
                          configure=lambda s: applied.append("2.0")))
    result = eng.run_process(install(eng, cache, site, "app"))
    assert result == ["app"]
    assert installed_version(site, "app") == "2.0"
    assert applied == ["1.0", "2.0"]
    assert installed_version(site, "ghost") is None


def test_install_misconfiguration_flag(eng, net):
    site = make_site(eng, net, "SiteA")
    cache = PacmanCache()
    cache.publish(Package("p", install_time=1.0))
    rng = RngRegistry(0)
    eng.run_process(
        install(eng, cache, site, "p", rng=rng, misconfig_probability=1.0)
    )
    assert site.misconfigured is True
    assert "misconfigured" not in site.services


def test_vdt_package_set_installs_services(eng, net):
    site = make_site(eng, net, "SiteA")
    del site.services["gridftp"]  # conftest pre-attached one; start clean
    cache = PacmanCache()
    for pkg in vdt_package_set(eng, ["doegrids"]):
        cache.publish(pkg)
    eng.run_process(install(eng, cache, site, GRID3_SITE_PACKAGE))
    assert isinstance(site.service("gatekeeper"), Gatekeeper)
    assert isinstance(site.service("gridftp"), GridFTPServer)
    assert isinstance(site.service("gris"), GRIS)
    assert site.service("authenticator") is not None
    assert set(REQUIRED_PACKAGES) <= set(site.installed_packages)


def test_validate_and_certify(eng, net):
    site = make_site(eng, net, "SiteA")
    del site.services["gridftp"]
    cache = PacmanCache()
    for pkg in vdt_package_set(eng, ["doegrids"]):
        cache.publish(pkg)
    # Before install: many problems.
    problems = validate_site(site, REQUIRED_PACKAGES)
    assert problems
    # After install: clean.
    eng.run_process(install(eng, cache, site, GRID3_SITE_PACKAGE))
    assert validate_site(site, REQUIRED_PACKAGES) == []


def test_validation_catches_misconfiguration(eng, net):
    site = make_site(eng, net, "SiteA")
    del site.services["gridftp"]
    cache = PacmanCache()
    for pkg in vdt_package_set(eng, ["doegrids"]):
        cache.publish(pkg)
    eng.run_process(install(eng, cache, site, GRID3_SITE_PACKAGE))
    site.misconfigured = True
    problems = validate_site(site, REQUIRED_PACKAGES)
    assert problems == ["site misconfigured (bad paths/environment)"]
