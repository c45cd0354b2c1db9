"""Typed result records for the ops/troubleshooting query surfaces.

Every :class:`~repro.ops.troubleshooting.TroubleshootingAPI` accounting
query used to return an ad-hoc ``dict`` with its own shape.  These are
the replacement records — frozen dataclasses on the shared
:class:`~repro.core.results.ReportRecord` convention (``as_dict()``,
sorted-key ``to_json()``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..core.results import ReportRecord


@dataclass(frozen=True)
class GramAccounting(ReportRecord):
    """Submission/rejection/load counters for one gatekeeper (§8)."""

    site: str
    accepted: int
    rejected: int
    overload_rejections: int
    current_load: float
    peak_load: float
    managed_jobs: int


@dataclass(frozen=True)
class GridFTPAccounting(ReportRecord):
    """Transfer counters for one GridFTP endpoint (§8)."""

    site: str
    transfers_ok: int
    transfers_failed: int
    failure_rate: float
    bytes_sent: float
    bytes_received: float


@dataclass(frozen=True)
class StorageAccounting(ReportRecord):
    """Occupancy and churn counters for one site's storage element."""

    site: str
    capacity: float
    used: float
    utilisation: float
    files: int
    bytes_written: float
    bytes_deleted: float
    write_failures: int


@dataclass(frozen=True)
class SlowJobRow(ReportRecord):
    """One row of the slowest-traced-jobs ranking (§8 cross-side view)."""

    trace_id: int
    name: str
    vo: str
    status: str
    makespan: float
    job_ids: Tuple[int, ...]
    critical_phase: str
