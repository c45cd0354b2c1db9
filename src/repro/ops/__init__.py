"""Operations: the iGOC, trouble tickets, policies, and §7 milestones."""

from .alerts import (
    AlertEngine,
    AlertMonitor,
    AlertRule,
    AlertStatusRow,
    AlertTransition,
    default_rules,
    lint_rules,
    service_rules,
)
from .autovalidate import AutoValidator, ValidationReport
from .igoc import IGOC, OperationsTeam
from .metrics import (
    DIRECTION,
    PAPER_ACTUALS,
    PAPER_TARGETS,
    Milestone,
    MilestonesTracker,
)
from .reports import (
    failure_hotspots,
    production_summary,
    ticket_summary,
    weekly_report,
)
from .policy import (
    PolicyViolation,
    SitePolicy,
    audit_policy,
    policy_for_site,
)
from .results import (
    GramAccounting,
    GridFTPAccounting,
    SlowJobRow,
    StorageAccounting,
)
from .tickets import RESPONSIBILITY_MATRIX, Ticket, TroubleTicketSystem, responsible_party
from .troubleshooting import (
    TroubleshootingAPI,
)

__all__ = [
    "AlertEngine",
    "AlertMonitor",
    "AlertRule",
    "AlertStatusRow",
    "AlertTransition",
    "default_rules",
    "lint_rules",
    "service_rules",
    "AutoValidator",
    "GramAccounting",
    "GridFTPAccounting",
    "SlowJobRow",
    "StorageAccounting",
    "TroubleshootingAPI",
    "ValidationReport",
    "DIRECTION",
    "IGOC",
    "Milestone",
    "MilestonesTracker",
    "OperationsTeam",
    "PAPER_ACTUALS",
    "PAPER_TARGETS",
    "PolicyViolation",
    "SitePolicy",
    "RESPONSIBILITY_MATRIX",
    "Ticket",
    "responsible_party",
    "TroubleTicketSystem",
    "audit_policy",
    "failure_hotspots",
    "production_summary",
    "ticket_summary",
    "weekly_report",
    "policy_for_site",
]
