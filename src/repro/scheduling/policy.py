"""Per-site usage policies and submission-side admission control (§5, §7).

Grid3's defining constraint was multi-VO resource sharing: more than
60 % of CPUs came from shared, non-dedicated facilities (§7), and "at
each site ... appropriate policies were implemented at each local batch
scheduler" (§5) to say which VOs could run and how much.  The seed
reproduction modelled none of that — a single greedy VO could starve
the other five.

This module is the policy half of the fair-share scheduling layer:

* :class:`UsagePolicy` — one site's *published* policy: a VO
  allow-list, per-VO shares of the site's concurrent submission slots,
  and a max-runtime class.  Attached to every
  :class:`~repro.fabric.site.Site` as ``site.usage_policy`` (passive:
  publication alone changes nothing).
* :func:`paper_policies` — the policy set reconstructed for the
  27-site catalog: Tier1 archives prioritise their owner VO, dedicated
  facilities welcome guests at half share, shared facilities cap
  everyone; a couple of sites carry real VO allow-lists.
* :class:`PolicyEngine` — the *enforcement* side, used by Condor-G
  when ``Grid3Config.fair_share`` is on: policy-rejected matches are
  never submitted, and per-(site, VO) share slots throttle over-share
  VOs **before** the per-site throttle.  Publishes ``sched.policy.*``
  metrics and tracks the peak concurrency per (site, VO) so the cap
  invariant is testable.

Everything here is deterministic — no RNG draws — so building (or even
attaching) policies perturbs no stream; with ``fair_share=False`` a
same-seed run is byte-identical to a build without this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.results import ReportRecord
from ..monitoring.core import MetricSample, MetricStore, make_tags
from ..sim.engine import Engine
from ..sim.resources import Resource
from ..sim.units import HOUR

#: Max-runtime classes a site's policy advertises (§6.4 criterion 3 as
#: a published class instead of a bare number).
RUNTIME_CLASSES: Dict[str, float] = {
    "short": 24 * HOUR,
    "production": 96 * HOUR,
    "long": float("inf"),
}


def runtime_class_for(max_walltime: float) -> str:
    """The class label a site with this batch walltime limit publishes."""
    if max_walltime <= RUNTIME_CLASSES["short"]:
        return "short"
    if max_walltime <= RUNTIME_CLASSES["production"]:
        return "production"
    return "long"


@dataclass(frozen=True)
class UsagePolicy(ReportRecord):
    """One site's published usage policy.

    ``share_caps`` maps a VO to the fraction of the site's concurrent
    submission slots it may hold at once (the submission-side proxy for
    a CPU share); VOs not listed get ``default_share_cap``.  An empty
    ``allowed_vos`` means every VO is welcome.
    """

    site: str
    allowed_vos: Tuple[str, ...] = ()
    share_caps: Tuple[Tuple[str, float], ...] = ()
    default_share_cap: float = 1.0
    runtime_class: str = "long"
    max_walltime: float = RUNTIME_CLASSES["production"]

    def admits(self, vo: str, walltime_request: float) -> bool:
        """Whether a job from ``vo`` passes this policy at match time."""
        if self.allowed_vos and vo not in self.allowed_vos:
            return False
        return walltime_request <= self.max_walltime

    def rejection_reason(self, vo: str, walltime_request: float) -> Optional[str]:
        """Why a job is rejected ("vo-not-allowed" | "runtime-class"),
        or None when admitted."""
        if self.allowed_vos and vo not in self.allowed_vos:
            return "vo-not-allowed"
        if walltime_request > self.max_walltime:
            return "runtime-class"
        return None

    def share_cap(self, vo: str) -> float:
        """The fraction of concurrent slots ``vo`` may occupy."""
        for name, cap in self.share_caps:
            if name == vo:
                return cap
        return self.default_share_cap

    def max_running(self, vo: str, slots: int) -> int:
        """Concurrent-slot cap for ``vo`` given ``slots`` total (>= 1)."""
        return max(1, int(math.ceil(self.share_cap(vo) * max(1, slots))))


#: Sites with genuine VO allow-lists in the reconstructed policy set
#: (every other site admits all six VOs).
RESTRICTED_SITES: Dict[str, Tuple[str, ...]] = {
    # The Korean CMS site ran CMS production plus iVDGL exerciser probes.
    "KNU_Grid3": ("uscms", "ivdgl"),
    # The Milwaukee LIGO cluster admitted LIGO plus the catch-all VOs.
    "UWM_LIGO": ("ligo", "ivdgl", "usatlas"),
}


def policy_for_spec(spec, vos: Iterable[str]) -> UsagePolicy:
    """The reconstructed paper policy for one catalog SiteSpec.

    Deterministic rules consistent with §5/§7:

    * Tier1 archives: owner VO uncapped, guests at a quarter share;
    * dedicated VO facilities: owner uncapped, guests at half share;
    * shared facilities: owner at three quarters, guests at half (the
      site's own users still run local load outside Grid3);
    * a few sites carry explicit VO allow-lists
      (:data:`RESTRICTED_SITES`).
    """
    vos = tuple(sorted(vos))
    if spec.tier1:
        guest_cap, owner_cap = 0.25, 1.0
    elif not spec.shared:
        guest_cap, owner_cap = 0.5, 1.0
    else:
        guest_cap, owner_cap = 0.5, 0.75
    caps = tuple(
        (vo, owner_cap if vo == spec.owner_vo else guest_cap) for vo in vos
    )
    return UsagePolicy(
        site=spec.name,
        allowed_vos=RESTRICTED_SITES.get(spec.name, ()),
        share_caps=caps,
        default_share_cap=guest_cap,
        runtime_class=runtime_class_for(spec.max_walltime_hours * HOUR),
        max_walltime=spec.max_walltime_hours * HOUR,
    )


def paper_policies(specs, vos: Iterable[str]) -> Dict[str, UsagePolicy]:
    """The reconstructed per-site policy set for a (scaled) catalog."""
    return {spec.name: policy_for_spec(spec, vos) for spec in specs}


@dataclass(frozen=True)
class PolicyRejectRow(ReportRecord):
    """One (site, vo, reason) cell of the policy-rejection report."""

    site: str
    vo: str
    reason: str
    count: int


@dataclass(frozen=True)
class ShareCapRow(ReportRecord):
    """Peak concurrency vs cap for one (site, vo) share slot."""

    site: str
    vo: str
    cap: int
    peak: int


class PolicyEngine:
    """Runtime admission control over a policy set.

    One engine is shared by every VO's Condor-G submit host.  For each
    (site, VO) it lazily builds a :class:`~repro.sim.resources.Resource`
    sized to the policy's share cap of the site's submission slots;
    Condor-G acquires a share token *before* the per-site throttle, so
    an over-share VO queues here while other VOs' slots stay free.
    """

    def __init__(
        self,
        engine: Engine,
        policies: Dict[str, UsagePolicy],
        slots_per_site: int = 100,
        store: Optional[MetricStore] = None,
    ) -> None:
        self.engine = engine
        self.policies = policies
        self.slots_per_site = max(1, int(slots_per_site))
        #: ``sched.policy.*`` metrics land here.
        self.store = store if store is not None else MetricStore(max_samples=100_000)
        self._shares: Dict[Tuple[str, str], Resource] = {}
        self._caps: Dict[Tuple[str, str], int] = {}
        self._running: Dict[Tuple[str, str], int] = {}
        self._peak: Dict[Tuple[str, str], int] = {}
        self._rejects: Dict[Tuple[str, str, str], int] = {}

    # -- admission ------------------------------------------------------
    def admits(self, site_name: str, vo: str, walltime_request: float) -> bool:
        """Policy check at match time; rejections are counted and
        published (``sched.policy.rejects``), never submitted."""
        policy = self.policies.get(site_name)
        if policy is None:
            return True
        reason = policy.rejection_reason(vo, walltime_request)
        if reason is None:
            return True
        key = (site_name, vo, reason)
        self._rejects[key] = self._rejects.get(key, 0) + 1
        self.store.append(MetricSample(
            self.engine.now, "sched.policy.rejects",
            float(self._rejects[key]),
            make_tags(site=site_name, vo=vo, reason=reason),
        ))
        return False

    # -- share slots ----------------------------------------------------
    def cap_for(self, site_name: str, vo: str) -> int:
        """The concurrent-slot cap this engine enforces for (site, vo)."""
        key = (site_name, vo)
        cap = self._caps.get(key)
        if cap is None:
            policy = self.policies.get(site_name)
            cap = (
                policy.max_running(vo, self.slots_per_site)
                if policy is not None else self.slots_per_site
            )
            self._caps[key] = cap
        return cap

    def share_resource(self, site_name: str, vo: str) -> Resource:
        """The FIFO share slot pool for (site, vo), built on first use."""
        key = (site_name, vo)
        res = self._shares.get(key)
        if res is None:
            res = Resource(self.engine, capacity=self.cap_for(site_name, vo))
            self._shares[key] = res
        return res

    def note_start(self, site_name: str, vo: str) -> None:
        """Bookkeeping on share-token acquisition (cap-invariant data)."""
        key = (site_name, vo)
        running = self._running.get(key, 0) + 1
        self._running[key] = running
        if running > self._peak.get(key, 0):
            self._peak[key] = running
        self.store.append(MetricSample(
            self.engine.now, "sched.share.running", float(running),
            make_tags(site=site_name, vo=vo),
        ))

    def note_finish(self, site_name: str, vo: str) -> None:
        key = (site_name, vo)
        self._running[key] = max(0, self._running.get(key, 0) - 1)

    # -- reports --------------------------------------------------------
    def reject_rows(self) -> List[PolicyRejectRow]:
        """Policy rejections by (site, vo, reason), sorted."""
        return [
            PolicyRejectRow(site=s, vo=v, reason=r, count=c)
            for (s, v, r), c in sorted(self._rejects.items())
        ]

    def share_rows(self) -> List[ShareCapRow]:
        """Peak-vs-cap rows for every share slot ever used, sorted."""
        return [
            ShareCapRow(site=s, vo=v, cap=self._caps[(s, v)],
                        peak=self._peak.get((s, v), 0))
            for (s, v) in sorted(self._shares)
        ]

    def cap_violations(self) -> List[ShareCapRow]:
        """Share rows whose observed peak exceeded the cap (must always
        be empty — the property the tests pin)."""
        return [row for row in self.share_rows() if row.peak > row.cap]
