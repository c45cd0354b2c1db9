"""Requirement-driven site selection (§6.4).

The paper lists the four requirements that "drove how users selected
sites":

  1. Internet connectivity of compute nodes;
  2. Availability of required disk space;
  3. Maximum allowable runtime;
  4. Gatekeeper network bandwidth capacity.

plus two observed behaviours: "applications tend to favor the resources
provided within their VO" and "application demonstrators tended to have
'favorite' Grid3 resources and submitted more computational jobs to
them."  :class:`SiteSelector` implements all six: hard filters for the
four requirements, then a score with VO-affinity and favourite-site
stickiness terms.

One selection is one pass over the admissible sites: the per-job terms
(data intensity, favourites, fair-share factor) are computed once, the
per-site jitter is one vector draw, and :meth:`SiteSelector.select`
takes the argmax, sorting only when it explores.  Each GIIS record's
own terms are derived once per record object, not once per job.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.job import JobSpec
from ..middleware.mds import GIIS
from ..sim.rng import RngRegistry


def _best_first(pair: Tuple[float, str]) -> Tuple[float, str]:
    """Sort key for ``(score, site)``: highest score, then site name."""
    return (-pair[0], pair[1])


class SiteSelector:
    """Ranks Grid3 sites for a job spec using MDS information."""

    def __init__(
        self,
        giis: GIIS,
        rng: RngRegistry,
        vo_affinity_weight: float = 1.8,
        favorite_weight: float = 1.5,
        bandwidth_weight: float = 1.0,
        free_cpu_weight: float = 2.0,
        jitter: float = 1.0,
        exploration: float = 0.07,
        fairshare=None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.giis = giis
        self.rng = rng
        #: Optional :class:`~repro.scheduling.fairshare.FairShareLedger`.
        #: When set, the free-CPU term is scaled by the submitting VO's
        #: priority factor: under-served VOs chase free capacity harder,
        #: over-served VOs fall back on affinity and favourites.
        self.fairshare = fairshare
        self.clock = clock
        self.vo_affinity_weight = vo_affinity_weight
        self.favorite_weight = favorite_weight
        self.bandwidth_weight = bandwidth_weight
        self.free_cpu_weight = free_cpu_weight
        self.jitter = jitter
        #: Fraction of selections that pick a random admissible site —
        #: users occasionally try unfamiliar resources, which is how the
        #: Table 1 "Grid3 Sites Used" counts got as wide as they did
        #: despite strong favourite-site concentration.
        self.exploration = exploration
        #: (vo, user) -> {site: submissions so far}; drives stickiness.
        self._favorites: Dict[Tuple[str, str], Dict[str, int]] = {}
        #: site -> the last record read and its terms; see :meth:`_derive`.
        self._held: Dict[object, tuple] = {}

    def _derive(self, rec: Dict[str, object]) -> tuple:
        """Derive and hold the selection terms of one GIIS record:
        ``(rec, outbound, se_free, max_walltime, bw_term, free_frac,
        wait_term, owner_vo, site)``.

        A GRIS refresh publishes a new dict only when a value moved, so
        the terms held for a site are current while ``held[0] is rec``.
        """
        total = max(1, int(rec.get("total_cpus", 1)))
        # Criterion 4: prefer high-bandwidth gatekeepers, log-scaled
        # (100 Mbit vs 1 Gbit matters; 1 Gbit vs 1.1 Gbit doesn't).
        bandwidth = max(1.0, float(rec.get("access_bandwidth", 1.0)))
        held = (
            rec,
            rec.get("outbound_connectivity"),
            float(rec.get("se_free", 0.0)),
            float(rec.get("max_walltime", 0.0)),
            math.log10(bandwidth) / 9.0,  # ~[0.7, 1] over real links
            int(rec.get("free_cpus", 0)) / total,
            # §8 "Job Resource Requirements": a published wait estimate
            # costs a point per hour of expected queueing.
            min(2.0, float(rec.get("estimated_wait", 0.0)) / 3600.0),
            rec.get("owner_vo"),
            str(rec["site"]),
        )
        self._held[rec["site"]] = held
        return held

    def candidates(self, spec: JobSpec, exclude: Sequence[str] = ()) -> List[Dict[str, object]]:
        """Indexed site records that pass the §6.4 requirement filters,
        minus the ``exclude`` sites, in the GIIS's held index order:
        O(indexed sites) per selection."""
        excluded = set(exclude)
        outbound = spec.requires_outbound
        footprint = spec.local_disk_footprint
        walltime = spec.walltime_request
        held = self._held
        admitted = []
        for rec in self.giis.active_records():
            name = rec["site"]
            terms = held.get(name)
            if terms is None or terms[0] is not rec:
                terms = self._derive(rec)
            if (name not in excluded
                    # Criterion 1: outbound connectivity.
                    and (not outbound or terms[1])
                    # Criterion 2: disk space for the job's footprint.
                    and terms[2] >= footprint
                    # Criterion 3: the walltime request must fit the site limit.
                    and walltime <= terms[3]):
                admitted.append(rec)
        return admitted

    def _scored(self, spec: JobSpec, exclude: Sequence[str]) -> List[Tuple[float, str]]:
        """``(score, site)`` for every candidate, in candidate order."""
        records = self.candidates(spec, exclude)
        if not records:
            return []
        # Data-heavy jobs weigh bandwidth more.
        data_intensity = 1.0 if spec.input_bytes + spec.output_bytes > 1e9 else 0.3
        free_weight = self.free_cpu_weight
        if self.fairshare is not None:
            # Asked only when there are candidates: the call decays the
            # ledger's usage to ``now``, which later floats depend on.
            now = self.clock() if self.clock is not None else 0.0
            free_weight *= self.fairshare.priority_factor(spec.vo, now)
        vo = spec.vo
        favs = self._favorites.get((vo, spec.user), {})
        fav_total = sum(favs.values())
        jitter = self.rng.uniforms("matchmaker.jitter", 0.0, self.jitter, len(records))
        held = self._held
        scored = []
        for rec, noise in zip(records, jitter):
            terms = held.get(rec["site"])
            if terms is None or terms[0] is not rec:
                terms = self._derive(rec)
            _rec, _out, _se, _wall, bw_term, free_frac, wait_term, owner_vo, site = terms
            score = self.bandwidth_weight * bw_term * data_intensity
            score += free_weight * free_frac
            score -= wait_term
            if owner_vo == vo:
                score += self.vo_affinity_weight
            count = favs.get(site, 0)
            if count:
                score += self.favorite_weight * (count / fav_total)
            scored.append((score + noise, site))
        return scored

    def rank(self, spec: JobSpec, exclude: Sequence[str] = ()) -> List[str]:
        """Admissible sites, best first."""
        return [site for _s, site in sorted(self._scored(spec, exclude), key=_best_first)]

    def select(self, spec: JobSpec, exclude: Sequence[str] = ()) -> Optional[str]:
        """The best admissible site, or None when nothing qualifies.

        With probability ``exploration`` a uniformly random admissible
        site is returned instead of the top-ranked one.
        """
        scored = self._scored(spec, exclude)
        if not scored:
            return None
        if len(scored) > 1 and self.rng.bernoulli("matchmaker.explore", self.exploration):
            # The pick indexes the ranked list, so only this branch sorts.
            ranked = [site for _s, site in sorted(scored, key=_best_first)]
            return self.rng.choice("matchmaker.explore.pick", ranked)
        return min(scored, key=_best_first)[1]

    def record_use(self, vo: str, user: str, site: str) -> None:
        """Feed the favourite-site stickiness (call on each submission)."""
        favs = self._favorites.setdefault((vo, user), {})
        favs[site] = favs.get(site, 0) + 1


class RandomSelector:
    """Baseline for the matchmaking ablation: any indexed site, uniformly,
    ignoring all §6.4 requirements."""

    def __init__(self, giis: GIIS, rng: RngRegistry) -> None:
        self.giis = giis
        self.rng = rng

    def rank(self, spec: JobSpec, exclude: Sequence[str] = ()) -> List[str]:
        excluded = set(exclude)
        names = [
            str(rec["site"])
            for rec in self.giis.active_records()
            if rec["site"] not in excluded
        ]
        return self.rng.shuffled("random-selector", names)

    def select(self, spec: JobSpec, exclude: Sequence[str] = ()) -> Optional[str]:
        ranked = self.rank(spec, exclude)
        return ranked[0] if ranked else None

    def record_use(self, vo: str, user: str, site: str) -> None:
        """No stickiness in the baseline."""
