"""The iVDGL Grid Operations Center (§5, §5.4).

"Where appropriate, VO-level services were combined into top-layer
services at the iVDGL Grid Operations Center (iGOC), which provided
monitoring applications, display clients, and verification tasks and an
aggregate view of the collective Grid3 resource and performance."

:class:`IGOC` holds the trouble-ticket system those services report
into; the grid itself holds each hosted service.
:class:`OperationsTeam` is the human loop: it watches the Site Status
Catalog, opens trouble tickets for failing sites, spends (simulated)
effort, and repairs them — restarting dead services, clearing
misconfiguration, purging full disks.  Without this loop a long
simulation decays monotonically; with it, sites behave as §7 observed:
"Once a site becomes stable, it usually remains so."
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..services import down_roles
from ..sim.engine import Engine
from ..sim.rng import RngRegistry
from ..sim.units import HOUR
from .tickets import TroubleTicketSystem


class IGOC:
    """The operations center: its trouble-ticket system."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.tickets = TroubleTicketSystem(engine)


class OperationsTeam:
    """Distributed support (§5.4): detects problems, tickets, repairs."""

    def __init__(
        self,
        engine: Engine,
        igoc: IGOC,
        sites: Iterable,
        rng: RngRegistry,
        check_interval: float = 2 * HOUR,
        mean_response_time: float = 6 * HOUR,
        purge_threshold: float = 0.95,
    ) -> None:
        self.engine = engine
        self.igoc = igoc
        self.sites = list(sites)
        self.rng = rng
        self.check_interval = check_interval
        self.mean_response_time = mean_response_time
        self.purge_threshold = purge_threshold
        self.repairs: Dict[str, int] = {}
        self._in_progress: set = set()
        self.process = engine.process(self._run(), name="operations-team")

    def _problems(self, site) -> List[str]:
        problems = [f"{role} down" for role in down_roles(site)]
        if site.misconfigured:
            problems.append("misconfigured")
        if site.storage.capacity and site.storage.used / site.storage.capacity >= self.purge_threshold:
            problems.append("disk nearly full")
        return problems

    def _run(self):
        while True:
            yield self.engine.timeout(self.check_interval)
            for site in self.sites:
                if site.name in self._in_progress:
                    continue
                problems = self._problems(site)
                if problems:
                    self._in_progress.add(site.name)
                    self.engine.process(
                        self._repair(site, problems), name=f"repair-{site.name}"
                    )

    def _repair(self, site, problems: List[str]):
        ticket = self.igoc.tickets.open_ticket(
            site.name, "; ".join(problems),
            severity="critical" if len(problems) > 1 else "normal",
        )
        self.igoc.tickets.assign(ticket.ticket_id, f"{site.name}-admin")
        response = self.rng.exponential(
            f"ops.response.{site.name}", self.mean_response_time
        )
        yield self.engine.timeout(response)
        # Apply the fixes.  Restarts route through the service lifecycle
        # so the repair lands in the downtime ledger and the ticket
        # history, rather than silently flipping a flag.
        for role in down_roles(site):
            outage = site.services[role].restore(
                note=f"igoc ticket {ticket.ticket_id}")
            self.igoc.tickets.add_note(
                ticket.ticket_id,
                f"restarted {role} after "
                f"{outage.duration(self.engine.now) / HOUR:.1f} h "
                f"({outage.cause or 'unknown cause'})",
            )
        site.misconfigured = False
        if site.storage.capacity and site.storage.used / site.storage.capacity >= self.purge_threshold:
            # Operators clean scratch space (§7: disks replaced/cleaned
            # without perturbing operations).
            site.storage.purge(fraction=0.6)
        self.igoc.tickets.log_effort(ticket.ticket_id, response / HOUR * 0.25)
        self.igoc.tickets.resolve(ticket.ticket_id)
        self.repairs[site.name] = self.repairs.get(site.name, 0) + 1
        self._in_progress.discard(site.name)
