"""The unified service substrate every Grid3 service model builds on.

* :class:`GridService` — up/down liveness kept as the open outage of a
  per-service downtime ledger, uniform ``health()`` snapshot and
  counters registry;
* :data:`CORE_ROLES` / :func:`down_roles` / :func:`availability_rows` —
  the one site probe and the reporting queries built on the substrate.

This package is the only place ``available`` state is allowed to
change; a repo-consistency test greps for flag writes elsewhere.
"""

from .base import DowntimeLedger, GridService, Outage
from .registry import (
    CORE_ROLES,
    AvailabilityRow,
    availability_rows,
    down_roles,
    grid_services,
    render_availability,
    total_downtime,
)

__all__ = [
    "AvailabilityRow",
    "CORE_ROLES",
    "DowntimeLedger",
    "GridService",
    "Outage",
    "availability_rows",
    "down_roles",
    "grid_services",
    "render_availability",
    "total_downtime",
]
