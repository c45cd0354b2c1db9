"""Automated site validation and remediation — the first §8 lesson.

"Automated configuration, testing, and tuning scripts are needed to
give immediate feedback regarding potential software installation
issues, and to further reduce the cost of operating Grid3."

Deployed Grid3 found misconfigured sites the slow way: jobs failed, a
human investigated, a ticket crawled to resolution.
:class:`AutoValidator` is the lesson applied — immediately after a
Pacman install (and on a short cadence afterwards) it runs the full
verification battery and *fixes what scripts can fix* (clears
misconfiguration, restarts dead services), escalating only what needs a
human.  The ablation bench measures the payoff as time-to-stable-site
and jobs saved from misconfiguration failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple

from ..middleware.pacman import site_checks
from ..middleware.vdt import REQUIRED_PACKAGES
from ..services import down_roles
from ..sim.engine import Engine
from ..sim.units import MINUTE


@dataclass
class ValidationReport:
    """One automated validation pass over one site."""

    time: float
    site: str
    problems_found: Tuple[str, ...]
    auto_fixed: Tuple[str, ...]
    escalated: Tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.problems_found


class AutoValidator:
    """The §8 automated test-and-tune loop."""

    def __init__(
        self,
        engine: Engine,
        sites: Iterable,
        interval: float = 30 * MINUTE,
        fix_time: float = 5 * MINUTE,
        required_packages: Optional[List[str]] = None,
        escalate=None,
    ) -> None:
        self.engine = engine
        self.sites = list(sites)
        self.interval = interval
        self.fix_time = fix_time
        self.required_packages = required_packages or list(REQUIRED_PACKAGES)
        #: Optional callback(site_name, problems) for human escalation
        #: (e.g. wired to the trouble-ticket system).
        self.escalate = escalate
        self.reports: List[ValidationReport] = []
        self.fixes_applied = 0
        self.escalations = 0
        self.process = engine.process(self._run(), name="auto-validator")

    # -- one pass ------------------------------------------------------------
    def validate_one(self, site):
        """Generator: validate a site, auto-fixing what scripts can.

        Problems are listed in the §5.1 battery's order (missing
        packages, misconfiguration, missing core services), then the dead
        core services.  Auto-fixable: the misconfiguration flag and dead
        services (restart).  Escalated: missing packages and services.
        """
        down = down_roles(site)
        # (problem, fix) pairs; a fix of None escalates.  Restarts go
        # through the lifecycle so the repair closes the service's ledger
        # outage instead of hiding it.
        checks = site_checks(site, self.required_packages)
        checks.extend(
            (f"{role} not responding",
             partial(site.services[role].restore, note="auto-validator restart"))
            for role in down
        )
        fixed: List[str] = []
        escalated: List[str] = []
        for problem, fix in checks:
            if fix is None:
                escalated.append(problem)
                continue
            yield self.engine.timeout(self.fix_time)
            fix()
            fixed.append(problem)
        if escalated and self.escalate is not None:
            self.escalate(site.name, escalated)
        self.fixes_applied += len(fixed)
        self.escalations += len(escalated)
        report = ValidationReport(
            time=self.engine.now,
            site=site.name,
            problems_found=tuple(problem for problem, _fix in checks),
            auto_fixed=tuple(fixed),
            escalated=tuple(escalated),
        )
        self.reports.append(report)
        return report

    def _run(self):
        while True:
            for site in self.sites:
                yield from self.validate_one(site)
            yield self.engine.timeout(self.interval)

    # -- metrics ----------------------------------------------------------------
    def time_to_stable(self, site_name: str) -> float:
        """Time of the first clean report for a site (-1 if never)."""
        for report in self.reports:
            if report.site == site_name and report.clean:
                return report.time
        return -1.0

    def stable_sites(self) -> List[str]:
        """Sites whose most recent report was clean."""
        latest: Dict[str, ValidationReport] = {}
        for report in self.reports:
            latest[report.site] = report
        return sorted(
            name for name, report in latest.items() if report.clean
        )
