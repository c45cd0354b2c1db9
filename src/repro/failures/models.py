"""Failure models: the empirical Grid3 failure classes as parameters.

§6.1: "Approximately 90% of failures were due to site problems: disk
filling errors, gatekeeper overloading, or network interruptions.  For
example, we did not handle ACDC's nightly roll over of worker nodes
gracefully."  §6.2: "more frequently a disk would fill up or a service
would fail and all jobs submitted to a site would die."

Disk-full and gatekeeper overload *emerge* from the substrate (bounded
SEs, the §6.4 load model); this module parameterises the externally
injected classes: service crashes, network interruptions, node
failures, and the ACDC nightly rollover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..sim.units import DAY, HOUR, MINUTE


@dataclass(frozen=True)
class FailureProfile:
    """Per-site stochastic failure rates (mean interarrival times).

    ``None`` disables a class.  Defaults are calibrated so a ~30-day
    full-mix run lands near the paper's observed per-application failure
    rates (~30 % overall, ~90 % of failures site-caused) once combined
    with the emergent disk-full/overload classes.
    """

    #: Mean time between site-service crashes (gridftp, gatekeeper, or
    #: the batch system).  GridFTP/gatekeeper outages fail only the jobs
    #: that *touch* them while down; a batch-system crash kills every
    #: running job at the site — §6.2's "all jobs submitted to a site
    #: would die" class.
    service_failure_interval: Optional[float] = 5 * DAY
    #: Relative likelihood that a service crash is the batch system
    #: (the job-group-killing kind) vs a data/submission service.
    batch_crash_weight: float = 0.25
    #: How long a crashed service stays down before ops restart it.
    service_repair_time: float = 4 * HOUR
    #: Mean time between WAN/access-link interruptions per site.
    network_interruption_interval: Optional[float] = 10 * DAY
    #: Interruption duration.
    network_outage_duration: float = 30 * MINUTE
    #: Per-node mean time between hardware failures.  A site's failure
    #: rate scales with its node count, so per-*job* mortality is
    #: invariant under catalog scaling.
    node_mtbf: Optional[float] = 250 * DAY
    #: Node repair time.
    node_repair_time: float = 12 * HOUR
    #: Sites with a nightly maintenance rollover: name -> fraction of
    #: nodes rebooted.  The paper's example is ACDC at Buffalo.
    nightly_rollover: Dict[str, float] = field(
        default_factory=lambda: {"UB_ACDC": 0.25}
    )
    #: Local hour (0-23) the rollover runs.
    rollover_hour: int = 3

    @classmethod
    def disabled(cls) -> "FailureProfile":
        """A profile with every injected class off (for clean baselines)."""
        return cls(
            service_failure_interval=None,
            network_interruption_interval=None,
            node_mtbf=None,
            nightly_rollover={},
        )

    @classmethod
    def early(cls) -> "FailureProfile":
        """The October/November shake-out rates behind §6.1's ~30 %
        ATLAS failure observation: services flapping, rollover not yet
        handled, frequent link trouble."""
        return cls(
            service_failure_interval=2 * DAY,
            batch_crash_weight=0.4,
            network_interruption_interval=5 * DAY,
            node_mtbf=120 * DAY,
            nightly_rollover={"UB_ACDC": 0.35},
        )

    @classmethod
    def calm(cls) -> "FailureProfile":
        """Post-stabilisation rates (§7: 'Once a site becomes stable, it
        usually remains so except for hardware problems')."""
        return cls(
            service_failure_interval=30 * DAY,
            network_interruption_interval=45 * DAY,
            node_mtbf=500 * DAY,
            nightly_rollover={"UB_ACDC": 0.25},
        )


class FailureSchedule:
    """Time-varying failure regimes — the paper's stabilisation arc.

    §7: "We added applications and sites continuously throughout SC2003
    ... Once a site becomes stable, it usually remains so except for
    hardware problems.  The infrastructure has been stable since
    November."  A schedule is an ordered list of (switch_time, profile)
    pairs; the profile in force at any instant is the last one whose
    switch time has passed.
    """

    def __init__(self, eras) -> None:
        eras = sorted(eras, key=lambda pair: pair[0])
        if not eras:
            raise ValueError("schedule needs at least one era")
        if eras[0][0] > 0:
            raise ValueError("first era must start at (or before) t=0")
        self.eras = eras

    def at(self, time: float) -> FailureProfile:
        """The profile in force at ``time``."""
        current = self.eras[0][1]
        for switch, profile in self.eras:
            if time >= switch:
                current = profile
            else:
                break
        return current

    def next_switch_after(self, time: float) -> Optional[float]:
        """The next era boundary strictly after ``time`` (None if last)."""
        for switch, _profile in self.eras:
            if switch > time:
                return switch
        return None

    @classmethod
    def paper_timeline(cls, stabilize_day: float = 50.0) -> "FailureSchedule":
        """The Grid3 arc: §6.1's rough October/November shake-out, then
        the §7 stable regime (default switch ~mid-December, day 50 of
        the Table 1 window)."""
        return cls([
            (0.0, FailureProfile.early()),
            (stabilize_day * DAY, FailureProfile.calm()),
        ])
