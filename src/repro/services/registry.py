"""Queries over a grid's service population: the site probe and the
per-site, per-role availability report.

Post-install validation, the Site Status Catalog (§5.2), the iGOC
operations loop (§5.4) and the auto-validator (§8) all check the same
core services, :data:`CORE_ROLES`; :func:`down_roles` is their one
liveness probe.  :func:`availability_rows` turns the downtime ledgers
into the per-site, per-role availability table the paper's operations
sections describe but deployed Grid3 could only sample with probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.results import ReportRecord
from .base import GridService


#: The services every Grid3 site must run (§5.1): job submission, data
#: movement and the site's information provider, in probe order.
CORE_ROLES: Tuple[str, ...] = ("gatekeeper", "gridftp", "gris")


def down_roles(site) -> Tuple[str, ...]:
    """The core roles attached to ``site`` that are down, in
    :data:`CORE_ROLES` order (a missing role is not listed)."""
    return tuple(
        role for role in CORE_ROLES
        if role in site.services and not site.services[role].available
    )


def grid_services(site) -> Dict[str, GridService]:
    """The GridService instances attached to a site, keyed by role."""
    return {
        role: service
        for role, service in site.services.items()
        if isinstance(service, GridService)
    }


@dataclass(frozen=True)
class AvailabilityRow(ReportRecord):
    """One (site, role) line of the availability report."""

    site: str
    role: str
    availability: float
    downtime: float       # seconds within the window
    outages: int          # outages that started within the window
    mttr: float           # seconds; 0 with no outages
    mtbf: float           # seconds; inf with no outages


def availability_rows(
    sites: Iterable,
    since: float = 0.0,
    until: Optional[float] = None,
    extra_services: Optional[Dict[str, GridService]] = None,
) -> List[AvailabilityRow]:
    """The per-site, per-role availability table over [since, until].

    ``until=None`` means "now" (each service's engine clock).
    ``extra_services`` adds off-site services (the RLS index, VOMS
    servers, ...) keyed by a display name used as their "site".
    """
    rows: List[AvailabilityRow] = []

    def row_for(site_name: str, role: str, service: GridService) -> AvailabilityRow:
        ledger = service.ledger
        horizon = until if until is not None else service.now
        starts = sum(1 for o in ledger.outages() if since <= o.start <= horizon)
        return AvailabilityRow(
            site=site_name,
            role=role,
            availability=ledger.availability(since, horizon),
            downtime=ledger.downtime(since, horizon),
            outages=starts,
            mttr=ledger.mttr(horizon),
            mtbf=ledger.mtbf(since, horizon),
        )

    for site in sites:
        for role, service in sorted(grid_services(site).items()):
            rows.append(row_for(site.name, role, service))
    for name, service in sorted((extra_services or {}).items()):
        rows.append(row_for(name, service.role, service))
    rows.sort(key=lambda r: (r.site, r.role))
    return rows


def render_availability(rows: List[AvailabilityRow]) -> str:
    """The availability report as a text table (hours for durations)."""
    lines = [
        f"{'site':<18} {'service':<12} {'avail':>7} {'down(h)':>8} "
        f"{'outages':>7} {'mttr(h)':>8} {'mtbf(h)':>9}",
        "-" * 74,
    ]
    for r in rows:
        mtbf = "-" if r.mtbf == float("inf") else f"{r.mtbf / 3600.0:9.1f}"
        lines.append(
            f"{r.site:<18} {r.role:<12} {r.availability:>6.1%} "
            f"{r.downtime / 3600.0:>8.1f} {r.outages:>7d} "
            f"{r.mttr / 3600.0:>8.1f} {mtbf:>9}"
        )
    return "\n".join(lines)


def total_downtime(rows: List[AvailabilityRow]) -> float:
    """Summed downtime seconds across a report's rows."""
    return sum(r.downtime for r in rows)
