"""Usage and job-execution policies (§5, §5.4, §8).

"An acceptable use policy modeled after that used by the LCG was
adopted" (§5.4), per-site batch policies were configured for each VO
(§5), and §8 lists as lessons both "tools should be deployed and
analyses done to check that the current Grid3 job policies are being
properly enforced" and "sites should publish more information about job
execution and resource usage policies".

:class:`SitePolicy` is the published policy; :func:`audit_policy` is the
§8-requested enforcement checker, run over the ACDC job records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..monitoring.acdc import ACDCDatabase
from ..sim.units import HOUR


@dataclass(frozen=True)
class SitePolicy:
    """One site's published job-execution policy (§8's ask)."""

    site: str
    max_walltime: float
    allowed_vos: Tuple[str, ...]
    #: Cap on simultaneously running jobs per VO (0 = uncapped).
    max_running_per_vo: int = 0

    def admits(self, vo: str, walltime_request: float) -> bool:
        """Whether a job passes this policy at submit time."""
        if self.allowed_vos and vo not in self.allowed_vos:
            return False
        return walltime_request <= self.max_walltime


def policy_for_site(site, vos: Iterable[str]) -> SitePolicy:
    """Derive the published policy from a live site's configuration."""
    return SitePolicy(
        site=site.name,
        max_walltime=site.config.max_walltime,
        allowed_vos=tuple(sorted(vos)),
    )


@dataclass(frozen=True)
class PolicyViolation:
    """One detected enforcement failure."""

    site: str
    vo: str
    kind: str
    detail: str


def audit_policy(
    database: ACDCDatabase,
    policies: Dict[str, SitePolicy],
) -> List[PolicyViolation]:
    """The §8 enforcement audit: check every completed job against its
    site's published policy.

    Detects: disallowed-VO executions, and walltime overruns beyond the
    published limit (jobs the batch system should have killed sooner).
    """
    violations: List[PolicyViolation] = []
    for record in database.records():
        policy = policies.get(record.site)
        if policy is None:
            continue
        if policy.allowed_vos and record.vo not in policy.allowed_vos:
            violations.append(
                PolicyViolation(record.site, record.vo, "vo-not-allowed",
                                f"job {record.job_id} ran for disallowed VO")
            )
        # Tolerance: one scheduler tick beyond the published limit.
        if record.runtime > policy.max_walltime * 1.01:
            violations.append(
                PolicyViolation(
                    record.site, record.vo, "walltime-overrun",
                    f"job {record.job_id} ran {record.runtime/HOUR:.1f}h "
                    f"(limit {policy.max_walltime/HOUR:.1f}h)",
                )
            )
    return violations
