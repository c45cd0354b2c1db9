"""Tests for GridFTP transfers: data movement, contention, failures."""

import pytest

from repro.errors import (
    NetworkInterruptionError,
    ServiceUnavailableError,
    StorageFullError,
)
from repro.middleware.gridftp import attach_gridftp, transfer
from repro.middleware.rls import LocalReplicaCatalog, ReplicaLocationIndex
from repro.sim import GB

from ..conftest import make_site


def run_transfer(eng, *args, **kwargs):
    return eng.run_process(transfer(eng, *args, **kwargs))


def test_simple_transfer_moves_bytes(eng, two_sites):
    a, b = two_sites
    moved = run_transfer(eng, a, b, "/lfn/data", 1 * GB)
    assert moved == 1 * GB
    assert b.storage.lookup("/lfn/data").size == 1 * GB
    assert a.service("gridftp").bytes_sent == 1 * GB
    assert b.service("gridftp").bytes_received == 1 * GB
    assert a.service("gridftp").transfers_ok == 1
    # Duration = size / access bandwidth (1e8 B/s) = 10 s.
    assert eng.now == pytest.approx(10.0)


def test_transfer_negative_size_rejected(eng, two_sites):
    a, b = two_sites
    from repro.errors import TransferError
    with pytest.raises(TransferError):
        run_transfer(eng, a, b, "/x", -5.0)


def test_transfer_registers_in_rls(eng, two_sites):
    a, b = two_sites
    rls = ReplicaLocationIndex(eng)
    rls.attach_lrc(LocalReplicaCatalog("SiteA"))
    rls.attach_lrc(LocalReplicaCatalog("SiteB"))
    run_transfer(eng, a, b, "/lfn/data", 1 * GB, rls=rls)
    assert rls.sites_with("/lfn/data") == ["SiteB"]


def test_transfer_to_full_disk_fails(eng, net):
    a = make_site(eng, net, "SiteA")
    b = make_site(eng, net, "SiteB", disk=1 * GB)
    with pytest.raises(StorageFullError):
        run_transfer(eng, a, b, "/big", 2 * GB)
    gftp = a.service("gridftp")
    assert gftp.transfers_failed == 1
    # Connection slots were released despite the failure.
    assert gftp.connections.in_use == 0
    assert b.service("gridftp").connections.in_use == 0


def test_transfer_server_down(eng, two_sites):
    a, b = two_sites
    b.service("gridftp").available = False
    with pytest.raises(ServiceUnavailableError):
        run_transfer(eng, a, b, "/x", 1.0)


def test_transfer_network_interruption_fails(eng, two_sites):
    a, b = two_sites
    failures = []

    def mover():
        try:
            yield from transfer(eng, a, b, "/x", 10 * GB)
        except NetworkInterruptionError:
            failures.append(eng.now)

    def breaker():
        yield eng.timeout(5.0)
        a.network.interrupt_link(a.uplink.name, kill_flows=True)

    eng.process(mover())
    eng.process(breaker())
    eng.run()
    assert failures == [5.0]
    assert a.service("gridftp").connections.in_use == 0


def test_concurrent_transfers_share_bandwidth(eng, two_sites):
    a, b = two_sites
    done = []

    def mover(i):
        yield from transfer(eng, a, b, f"/f{i}", 1 * GB)
        done.append((i, eng.now))

    eng.process(mover(0))
    eng.process(mover(1))
    eng.run()
    # Two 1 GB flows sharing a 1e8 B/s access link: both finish ~20 s.
    assert len(done) == 2
    assert all(t == pytest.approx(20.0) for _i, t in done)


def test_connection_pool_limits_concurrency(eng, net):
    a = make_site(eng, net, "SiteA")
    b = make_site(eng, net, "SiteB")
    # Replace with tight pools.
    attach_gridftp(eng, a, max_connections=1, setup_latency=0.0)
    attach_gridftp(eng, b, max_connections=1, setup_latency=0.0)
    finish = []

    def mover(i):
        yield from transfer(eng, a, b, f"/f{i}", 1 * GB)
        finish.append(eng.now)

    eng.process(mover(0))
    eng.process(mover(1))
    eng.run()
    # Serialised by the 1-connection pool: 10 s then 20 s.
    assert finish == [pytest.approx(10.0), pytest.approx(20.0)]


def test_opposing_transfers_do_not_deadlock(eng, net):
    a = make_site(eng, net, "SiteA")
    b = make_site(eng, net, "SiteB")
    attach_gridftp(eng, a, max_connections=1, setup_latency=0.0)
    attach_gridftp(eng, b, max_connections=1, setup_latency=0.0)
    done = []

    def mover(src, dst, i):
        yield from transfer(eng, src, dst, f"/f{i}", 1 * GB)
        done.append(i)

    # A->B and B->A simultaneously with single-slot pools: canonical
    # ordering must prevent the classic two-lock deadlock.
    for i in range(4):
        eng.process(mover(a, b, i) if i % 2 == 0 else mover(b, a, i))
    eng.run()
    assert sorted(done) == [0, 1, 2, 3]


def test_setup_latency_accounted(eng, net):
    a = make_site(eng, net, "SiteA")
    b = make_site(eng, net, "SiteB")
    attach_gridftp(eng, a, setup_latency=3.0)
    attach_gridftp(eng, b, setup_latency=2.0)
    run_transfer(eng, a, b, "/x", 1 * GB)
    assert eng.now == pytest.approx(15.0)  # 5 s setup + 10 s transfer


def test_transfer_without_storage_write(eng, two_sites):
    a, b = two_sites
    run_transfer(eng, a, b, "/stream", 1 * GB, write_to_storage=False)
    assert "/stream" not in b.storage
    assert b.service("gridftp").bytes_received == 1 * GB
