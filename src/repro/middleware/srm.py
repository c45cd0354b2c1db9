"""Storage Resource Manager: the missing service the paper calls for.

§6.2: "storage reservation (e.g., as provided by SRM) would have
prevented various storage-related service failures."  §8 lists "Storage
Services and Data Management" as a lesson: "Additional infrastructure
services are needed to support managed persistent and transient
storage."

:class:`SRMService` wraps a site's storage element with space
reservation and pinning.  It is **off by default** in the Grid3 builder
(matching the deployed system, where only individual VOs ran SRM)
and switched on for the ablation bench, which shows the disk-full
failure class disappearing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ReservationError, StorageFullError
from ..fabric.storage import Reservation, StorageElement
from ..services import GridService
from ..sim.engine import Engine
from ..sim.units import HOUR


class SRMService(GridService):
    """Space management in front of one storage element."""

    _counter_names = ("reservations_granted", "reservations_denied")

    def __init__(self, engine: Engine, storage: StorageElement,
                 default_lifetime: float = 48 * HOUR) -> None:
        super().__init__(role="srm", owner=storage.name, engine=engine)
        self.storage = storage
        self.default_lifetime = default_lifetime
        #: reservation -> expiry sim-time
        self._leases: Dict[int, float] = {}
        self._live: List[Reservation] = []
        self.reservations_granted = 0
        self.reservations_denied = 0

    def prepare_to_put(self, nbytes: float, lifetime: Optional[float] = None) -> Reservation:
        """Reserve space for an upcoming write.

        Expired leases are reaped first, so abandoned reservations (jobs
        that died mid-flight) cannot permanently strand space.  Raises
        :class:`ReservationError` when space genuinely isn't there — the
        *scheduling-time* signal that replaces the §6.2 mid-job crash.
        """
        self.require_available("space reservation")
        self.reap_expired()
        try:
            reservation = self.storage.reserve(nbytes)
        except StorageFullError as exc:
            self.reservations_denied += 1
            raise ReservationError(str(exc)) from exc
        self.reservations_granted += 1
        self._live.append(reservation)
        self._leases[id(reservation)] = self.engine.now + (
            lifetime if lifetime is not None else self.default_lifetime
        )
        return reservation

    def put_done(self, reservation: Reservation) -> None:
        """Signal write completion; unused reserve returns to the pool.

        Idempotent at this layer: a job whose lease already expired (the
        reaper released it) may still call put_done in its cleanup path
        — that is normal, not a double-release bug, so the strict
        :meth:`StorageElement.release_reservation` is only invoked for
        reservations still live.
        """
        if not reservation.released:
            self.storage.release_reservation(reservation)
        self._leases.pop(id(reservation), None)
        self._live = [r for r in self._live if r is not reservation]

    def abort(self, reservation: Reservation) -> None:
        """Abandon a reservation outright (failed transfer)."""
        self.put_done(reservation)

    def reap_expired(self) -> int:
        """Release reservations whose lease lapsed; returns count reaped."""
        now = self.engine.now
        reaped = 0
        for reservation in list(self._live):
            expiry = self._leases.get(id(reservation), 0.0)
            if now > expiry:
                self.put_done(reservation)
                reaped += 1
        return reaped

    @property
    def reserved_bytes(self) -> float:
        """Space currently held by unexpired reservations."""
        return sum(r.available for r in self._live)

    def __repr__(self) -> str:
        return f"<SRM over {self.storage.name}: {len(self._live)} reservations>"


def attach_srm(engine: Engine, site, **kwargs) -> SRMService:
    """Create an SRM over the site's SE and register it as ``srm``."""
    srm = SRMService(engine, site.storage, **kwargs)
    site.attach_service("srm", srm)
    return srm
