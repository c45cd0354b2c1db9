"""Tests for GSI credentials and VOMS membership / gridmap generation."""

import pytest

from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    ServiceUnavailableError,
)
from repro.middleware.gsi import (
    Authenticator,
    CertificateAuthority,
    GridMapFile,
)
from repro.middleware.voms import VOMSServer, generate_gridmap, refresh_site_gridmaps
from repro.sim import Engine, HOUR

from ..conftest import make_site
from repro.fabric import Network


def test_certificate_validity_window(eng, ca):
    cert = ca.issue("/CN=bob")
    assert cert.valid_at(eng.now)
    assert cert.valid_at(ca.cert_lifetime)
    assert not cert.valid_at(ca.cert_lifetime + 1)
    assert cert.issuer == "doegrids"


def test_proxy_expiry(eng, ca):
    cert = ca.issue("/CN=bob")
    proxy = ca.make_proxy(cert, lifetime=12 * HOUR)
    assert proxy.valid_at(0)
    assert proxy.valid_at(12 * HOUR)
    assert not proxy.valid_at(12 * HOUR + 1)
    assert proxy.subject == "/CN=bob"


def test_proxy_invalid_when_cert_expired(eng):
    ca = CertificateAuthority("doegrids", eng, cert_lifetime=1 * HOUR)
    cert = ca.issue("/CN=bob")
    proxy = ca.make_proxy(cert, lifetime=24 * HOUR)
    assert not proxy.valid_at(2 * HOUR)  # proxy alive, but cert dead


def test_gridmap_mapping():
    gm = GridMapFile()
    gm.add("/CN=alice", "grid-usatlas")
    assert "/CN=alice" in gm
    assert len(gm) == 1
    assert gm.account_for("/CN=alice") == "grid-usatlas"
    gm.remove("/CN=alice")
    with pytest.raises(AuthorizationError):
        gm.account_for("/CN=alice")
    gm.remove("/CN=alice")  # idempotent


def test_authenticator_happy_path(authed):
    auth, proxy = authed
    assert auth.authenticate(proxy) == "grid-usatlas"
    assert auth.accepted == 1


def test_authenticator_rejects_expired_proxy(eng, ca):
    cert = ca.issue("/CN=alice")
    proxy = ca.make_proxy(cert, lifetime=1.0)
    gm = GridMapFile()
    gm.add("/CN=alice", "acct")
    auth = Authenticator(eng, ["doegrids"], gm)
    eng.run(until=10.0)
    with pytest.raises(AuthenticationError):
        auth.authenticate(proxy)
    assert auth.rejected == 1


def test_authenticator_rejects_untrusted_ca(eng):
    rogue = CertificateAuthority("rogue-ca", eng)
    cert = rogue.issue("/CN=mallory")
    proxy = rogue.make_proxy(cert)
    gm = GridMapFile()
    gm.add("/CN=mallory", "acct")
    auth = Authenticator(eng, ["doegrids"], gm)
    with pytest.raises(AuthenticationError):
        auth.authenticate(proxy)


def test_authenticator_rejects_unmapped_dn(eng, ca):
    cert = ca.issue("/CN=stranger")
    proxy = ca.make_proxy(cert)
    auth = Authenticator(eng, ["doegrids"], GridMapFile())
    with pytest.raises(AuthorizationError):
        auth.authenticate(proxy)
    assert auth.rejected == 1


def test_voms_register_and_roles(eng, ca):
    voms = VOMSServer(eng, "usatlas", ca)
    admin = voms.register("prodmgr", role="admin")
    user = voms.register("grad-student")
    assert len(voms) == 2
    assert admin.dn == "/DC=org/DC=grid3/O=usatlas/CN=prodmgr"
    assert voms.admins() == [admin]
    assert voms.member("grad-student") is user
    # Re-registering is idempotent.
    assert voms.register("prodmgr") is admin
    voms.remove("grad-student")
    assert len(voms) == 1


def test_voms_proxy_for_member(eng, ca):
    voms = VOMSServer(eng, "ligo", ca)
    voms.register("pulsar-hunter")
    proxy = voms.proxy_for("pulsar-hunter")
    assert proxy.valid_at(eng.now)
    with pytest.raises(KeyError):
        voms.proxy_for("nobody")


def test_voms_down_raises(eng, ca):
    voms = VOMSServer(eng, "btev", ca)
    voms.available = False
    with pytest.raises(ServiceUnavailableError):
        voms.dns()


def test_generate_gridmap_maps_all_vos(eng, ca):
    net = Network(eng)
    site = make_site(eng, net, "SiteX")
    servers = []
    for vo in ("usatlas", "uscms"):
        v = VOMSServer(eng, vo, ca)
        v.register(f"{vo}-user1")
        v.register(f"{vo}-user2")
        servers.append(v)
    gm = generate_gridmap(site, servers)
    assert len(gm) == 4
    assert gm.account_for("/DC=org/DC=grid3/O=uscms/CN=uscms-user1") == "grid-uscms"
    # The site got group accounts per VO (§5.3 naming convention).
    assert site.accounts == {"usatlas": "grid-usatlas", "uscms": "grid-uscms"}


def test_generate_gridmap_skips_down_voms(eng, ca):
    net = Network(eng)
    site = make_site(eng, net, "SiteY")
    up = VOMSServer(eng, "usatlas", ca)
    up.register("alice")
    down = VOMSServer(eng, "uscms", ca)
    down.register("bob")
    down.available = False
    gm = generate_gridmap(site, [up, down])
    assert len(gm) == 1  # only the reachable VO's users


def test_refresh_site_gridmaps_attaches_service(eng, ca):
    net = Network(eng)
    sites = [make_site(eng, net, f"S{i}") for i in range(3)]
    voms = VOMSServer(eng, "sdss", ca)
    voms.register("astronomer")
    refresh_site_gridmaps(sites, [voms])
    for site in sites:
        gm = site.service("gridmap")
        assert "/DC=org/DC=grid3/O=sdss/CN=astronomer" in gm
