"""GridFTP: bulk data movement between site storage elements.

§6.3's demonstrator showed "2 TB across Grid3 per day" with the main
deployment problems being "account privileges, ports, and firewalls".
The server model has a bounded connection pool (real GridFTP servers
were configured with connection limits), a per-transfer setup latency
and lifetime byte/transfer counters.  Where the paper's CS demonstrator
logged each transfer's start, end and errors (§4.7), a traced transfer
records one span with its outcome.

Transfers are written as plain generators so callers compose them with
``yield from`` inside their own processes.
"""

from __future__ import annotations

from ..errors import (
    NetworkInterruptionError,
    StorageFullError,
    TransferError,
)
from ..services import GridService
from ..sim.engine import Engine
from ..sim.resources import Resource
from ..sim.units import SECOND
from ..trace import NULL_SPAN


class GridFTPServer(GridService):
    """A site's GridFTP endpoint: connection pool + counters."""

    _counter_names = (
        "bytes_sent",
        "bytes_received",
        "transfers_ok",
        "transfers_failed",
    )

    def __init__(
        self,
        engine: Engine,
        site,
        max_connections: int = 16,
        setup_latency: float = 2 * SECOND,
    ) -> None:
        super().__init__(role="gridftp", owner=site.name, engine=engine)
        self.site = site
        self.connections = Resource(engine, max_connections)
        self.setup_latency = setup_latency
        #: Lifetime counters for the monitoring layer.
        self.bytes_sent = 0.0
        self.bytes_received = 0.0
        self.transfers_ok = 0
        self.transfers_failed = 0

    def __repr__(self) -> str:
        return f"<GridFTP {self.site.name} {self.connections.in_use}/{self.connections.capacity}>"


def attach_gridftp(engine: Engine, site, **kwargs) -> GridFTPServer:
    """Create a server and register it as the site's ``gridftp`` service."""
    server = GridFTPServer(engine, site, **kwargs)
    site.attach_service("gridftp", server)
    return server


def transfer(
    engine: Engine,
    src_site,
    dst_site,
    lfn: str,
    size: float,
    write_to_storage: bool = True,
    reservation=None,
    rls=None,
    span=None,
):
    """Generator: move ``size`` bytes of ``lfn`` from src to dst.

    Sequence: acquire a connection slot at both endpoints, pay setup
    latency, run the network flow (max-min fair with all concurrent
    traffic), then commit the file to the destination SE (raising
    :class:`StorageFullError` on a full disk — the §6.2 failure class —
    unless ``reservation`` covers it).  With ``rls`` given, the new
    replica is registered (the ATLAS/LIGO publication step).

    With ``span`` given, the whole transfer (slot wait included) is
    recorded as a child span inside the owning job's trace.

    Returns the byte count on success.  Always releases its connection
    slots, even on failure.
    """
    if size < 0:
        raise TransferError(f"negative transfer size for {lfn}")
    tspan = (span or NULL_SPAN).child(
        f"gridftp {lfn}", phase="transfer",
        src=src_site.name, dst=dst_site.name, bytes=size,
    )
    try:
        src_server: GridFTPServer = src_site.service("gridftp")
        dst_server: GridFTPServer = dst_site.service("gridftp")
        for server in (src_server, dst_server):
            if not server.available:
                server.transfers_failed += 1
            server.require_available(f"transfer of {lfn}")

        # Acquire connection slots in a canonical (site-name) order so that
        # opposing transfer pairs (A->B while B->A) can never deadlock on
        # exhausted connection pools.
        ordered = sorted({src_server, dst_server}, key=lambda s: s.site.name)
        slots = [(server, server.connections.request()) for server in ordered]
        granted = []
        try:
            for server, slot in slots:
                yield slot
                granted.append((server, slot))
            if src_server.setup_latency + dst_server.setup_latency > 0:
                yield engine.timeout(src_server.setup_latency + dst_server.setup_latency)
            flow = src_site.network.start_transfer(
                src_site.route_to(dst_site), size, label=lfn
            )
            try:
                yield flow.done
            except NetworkInterruptionError:
                src_server.transfers_failed += 1
                dst_server.transfers_failed += 1
                raise
            if write_to_storage:
                try:
                    dst_site.storage.store(lfn, size, reservation=reservation)
                except StorageFullError:
                    src_server.transfers_failed += 1
                    dst_server.transfers_failed += 1
                    raise
            if rls is not None:
                rls.register(dst_site.name, lfn, size, span=tspan)
        finally:
            granted_slots = {id(slot) for _srv, slot in granted}
            for server, slot in slots:
                if id(slot) in granted_slots:
                    server.connections.release(slot)
                elif not slot.triggered:
                    slot.cancel()
                else:
                    # Granted between our interruption and cleanup.
                    server.connections.release(slot)
    except BaseException as exc:
        tspan.finish("error", error=type(exc).__name__)
        raise
    src_server.bytes_sent += size
    dst_server.bytes_received += size
    src_server.transfers_ok += 1
    dst_server.transfers_ok += 1
    tspan.finish("ok")
    return size
