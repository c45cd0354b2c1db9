"""The GridService lifecycle base: liveness kept in a downtime ledger.

The paper's operational story (§5.2 Site Status Catalog, §6.1–6.2
failure classes, §7 "once a site becomes stable, it usually remains
so") is about *service* health over time.  Every Grid3 service model —
gatekeeper, GridFTP, GRIS/GIIS, RLS, VOMS, SRM — derives
from :class:`GridService`, which provides:

* a per-service **downtime ledger** (:class:`DowntimeLedger`): every
  outage interval is recorded with its cause, so availability %, MTTR,
  and MTBF are computable per site and per role afterwards — the
  accounting deployed Grid3 could only approximate by probing;
* liveness as one fact of that ledger: a service is up exactly while
  no outage is open (:meth:`fail` opens one, :meth:`restore` closes it,
  :meth:`require_available` guards requests);
* a declarative counters registry (``_counter_names``) that the
  monitoring layer auto-publishes into a ``MetricStore`` under
  ``service.<role>.*`` metric names.

``service.available = False`` still works (tests and ad-hoc scripts use
it) but routes through :meth:`fail`/:meth:`restore`, so *every* up/down
flip — however it is expressed — lands in the ledger.  Direct attribute
writes that bypass the ledger are impossible by construction and a
repo-consistency test greps the source tree to keep it that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ServiceUnavailableError


@dataclass
class Outage:
    """One downtime interval in a service's ledger.

    ``end`` is ``None`` while the outage is still open; duration
    queries clamp open outages to the query horizon.
    """

    start: float
    end: Optional[float]
    cause: str = ""

    @property
    def closed(self) -> bool:
        return self.end is not None

    def duration(self, until: Optional[float] = None) -> float:
        """Length of the interval, clamping an open end to ``until``."""
        end = self.end if self.end is not None else until
        if end is None:
            return 0.0
        return max(0.0, end - self.start)

    def overlap(self, since: float, until: float) -> float:
        """Downtime this outage contributes to the window [since, until]."""
        end = self.end if self.end is not None else until
        lo = max(self.start, since)
        hi = min(end, until)
        return max(0.0, hi - lo)


class DowntimeLedger:
    """Outage intervals for one service, with availability statistics.

    The ledger answers the questions the paper's operations sections ask
    of the Site Status Catalog — what fraction of the window a service
    was up, how long repairs took (MTTR), and how long it ran between
    failures (MTBF) — exactly, from recorded intervals rather than probe
    sampling.
    """

    def __init__(self) -> None:
        self._outages: List[Outage] = []
        #: The open outage, or None while the service is up.
        self.current: Optional[Outage] = None

    def __len__(self) -> int:
        return len(self._outages)

    def open(self, time: float, cause: str = "") -> Outage:
        """Start an outage (idempotent: a second open is the first one)."""
        if self.current is not None:
            return self.current
        outage = Outage(start=time, end=None, cause=cause)
        self._outages.append(outage)
        self.current = outage
        return outage

    def close(self, time: float) -> Optional[Outage]:
        """End the open outage; returns it (None if nothing was open)."""
        outage = self.current
        if outage is None:
            return None
        outage.end = max(time, outage.start)
        self.current = None
        return outage

    def outages(self) -> List[Outage]:
        """All recorded intervals, oldest first (last may be open)."""
        return list(self._outages)

    def downtime(self, since: float = 0.0, until: float = 0.0) -> float:
        """Total seconds down within [since, until]."""
        return sum(o.overlap(since, until) for o in self._outages)

    def availability(self, since: float = 0.0, until: float = 0.0) -> float:
        """Fraction of [since, until] the service was up (1.0 for an
        empty window)."""
        window = until - since
        if window <= 0:
            return 1.0
        return 1.0 - self.downtime(since, until) / window

    def mttr(self, until: Optional[float] = None) -> float:
        """Mean time to repair over recorded outages (0 if none).

        With ``until`` given, an open outage counts at its clamped
        duration; otherwise only closed outages are averaged.
        """
        durations = [
            o.duration(until) for o in self._outages
            if o.closed or until is not None
        ]
        if not durations:
            return 0.0
        return sum(durations) / len(durations)

    def mtbf(self, since: float = 0.0, until: float = 0.0) -> float:
        """Mean up-time between failures over [since, until].

        Defined as total up-time divided by the number of outages that
        *started* in the window; ``inf`` when nothing failed.
        """
        starts = sum(1 for o in self._outages if since <= o.start <= until)
        if starts == 0:
            return float("inf")
        uptime = max(0.0, (until - since) - self.downtime(since, until))
        return uptime / starts


class GridService:
    """Base class every Grid3 service model derives from.

    Subclasses call ``super().__init__(role=..., owner=..., engine=...)``
    first; ``owner`` names the site (or VO) the instance
    belongs to, ``role`` is the service kind used in metric names and
    probe tables.  Services built without an engine (bare unit-test
    construction) run on a zero clock until one is adopted via
    :meth:`adopt_engine`.
    """

    #: Default role; subclasses set their own (also overridable per
    #: instance through ``__init__``).
    role: str = "service"
    #: Attribute names auto-published as ``service.<role>.<name>``
    #: counters by the monitoring layer.  Subclasses list their
    #: lifetime counters here; :meth:`counters` may add computed ones.
    _counter_names: Tuple[str, ...] = ()

    def __init__(
        self,
        role: Optional[str] = None,
        owner: str = "",
        engine=None,
    ) -> None:
        if role is not None:
            self.role = role
        self.owner = owner
        self.engine = engine
        self._created = self.now
        self.ledger = DowntimeLedger()
        #: Observers called as ``fn(service)`` on every actual up/down
        #: flip (no call when a transition is a no-op, e.g. restoring an
        #: up service).  Index layers (the GIIS record list) subscribe
        #: here to invalidate on availability flips without polling
        #: every service per event.
        self.on_transition: List[Callable[["GridService"], None]] = []

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current sim-time (0.0 for engineless unit construction)."""
        return self.engine.now if self.engine is not None else 0.0

    def adopt_engine(self, engine) -> None:
        """Late-bind a clock (e.g. an LRC attached to a live index)."""
        if self.engine is None and engine is not None:
            self.engine = engine

    # -- liveness ---------------------------------------------------------
    @property
    def available(self) -> bool:
        """Whether the service answers requests: no outage is open."""
        return self.ledger.current is None

    @available.setter
    def available(self, value: bool) -> None:
        # Legacy surface: flag writes route through the ledger so no
        # outage can ever go unrecorded.
        if value:
            self.restore(note="available flag set")
        else:
            self.fail("available flag cleared")

    def fail(self, cause: str = "") -> Outage:
        """Take the service down, opening a ledger outage.

        Idempotent: failing a service that is already down keeps the
        original outage (and its cause) and returns it.
        """
        if self.ledger.current is not None:
            return self.ledger.current
        outage = self.ledger.open(self.now, cause)
        for observer in self.on_transition:
            observer(self)
        return outage

    def restore(self, note: str = "") -> Optional[Outage]:
        """Bring the service back up, closing the open outage (if any).

        Returns the closed :class:`Outage` so repair paths (iGOC
        tickets, the auto-validator) can attribute and time the fix;
        None when the service was already up.
        """
        outage = self.ledger.close(self.now)
        if outage is not None:
            for observer in self.on_transition:
                observer(self)
        return outage

    def require_available(self, action: str = "") -> None:
        """Raise :class:`ServiceUnavailableError` unless the service is
        answering — the one uniform precondition check every request
        path uses."""
        if self.ledger.current is not None:
            raise ServiceUnavailableError(self.unavailable_message(action))

    def unavailable_message(self, action: str = "") -> str:
        """The error text for a request against a service that is down."""
        where = f" at {self.owner}" if self.owner else ""
        doing = f" (during {action})" if action else ""
        return f"{self.role}{where} is down{doing}"

    # -- introspection ----------------------------------------------------
    def health(self) -> Dict[str, object]:
        """One uniform health snapshot — what probes and catalogs read.

        Keys: ``role``, ``owner``, ``state`` (``"up"``/``"down"``),
        ``available``, ``since`` (the open outage's start, else the last
        outage's end, else construction), ``cause`` (of the open outage,
        if any), ``outages`` (lifetime count), ``downtime`` (lifetime
        seconds, open outage clamped to now).  Everything but ``role``
        and ``owner`` is read from the ledger.
        """
        current = self.ledger.current
        outages = self.ledger.outages()
        if current is not None:
            since = current.start
        elif outages:
            since = outages[-1].end
        else:
            since = self._created
        return {
            "role": self.role,
            "owner": self.owner,
            "state": "up" if current is None else "down",
            "available": current is None,
            "since": since,
            "cause": current.cause if current is not None else "",
            "outages": len(self.ledger),
            "downtime": self.ledger.downtime(0.0, self.now),
        }

    def counters(self) -> Dict[str, float]:
        """The service's lifetime counters, by name.

        The default implementation reads ``_counter_names`` attributes;
        subclasses extend with computed values (current load, member
        counts, ...).  The monitoring layer publishes each entry as
        ``service.<role>.<name>``.
        """
        return {
            name: float(getattr(self, name, 0.0))
            for name in self._counter_names
        }

    def availability(self, since: float = 0.0, until: Optional[float] = None) -> float:
        """Ledger availability over [since, until] (until defaults now)."""
        return self.ledger.availability(
            since, until if until is not None else self.now
        )
