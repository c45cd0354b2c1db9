"""The Site Status Catalog (§5.2).

"The Site Status Catalog periodically tests all sites and stores some
critical information centrally.  A web interface provides a list of all
Grid3 sites, their location on a map, their status, and other important
information."

Each probe runs the §5.1 verification checks (services up, configuration
sane, disk not full) and records PASS/FAIL history per site, from which
the catalog derives availability statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..services import CORE_ROLES, down_roles
from ..sim.engine import Engine
from ..sim.units import HOUR


@dataclass(frozen=True)
class ProbeResult:
    """One verification pass against one site."""

    time: float
    site: str
    ok: bool
    problems: Tuple[str, ...] = ()


def probe_site(now: float, site) -> ProbeResult:
    """The verification test battery for one site."""
    problems: List[str] = []
    down = down_roles(site)
    problems.extend(
        f"{role} unreachable" for role in CORE_ROLES
        if role in down or role not in site.services
    )
    if site.misconfigured:
        problems.append("configuration check failed")
    if site.storage.free <= 0:
        problems.append("storage element full")
    return ProbeResult(now, site.name, ok=not problems, problems=tuple(problems))


class SiteStatusCatalog:
    """Periodic prober + status page."""

    def __init__(
        self,
        engine: Engine,
        sites: Iterable,
        probe_interval: float = 1 * HOUR,
    ) -> None:
        self.engine = engine
        self.sites = list(sites)
        self.probe_interval = probe_interval
        self._history: Dict[str, List[ProbeResult]] = {s.name: [] for s in self.sites}
        self.process = engine.process(self._run(), name="site-status-catalog")

    def probe_all(self) -> List[ProbeResult]:
        """One verification sweep over every site."""
        results = []
        for site in self.sites:
            result = probe_site(self.engine.now, site)
            self._history[site.name].append(result)
            results.append(result)
        return results

    def _run(self):
        while True:
            yield self.engine.timeout(self.probe_interval)
            self.probe_all()

    # -- the status page ------------------------------------------------------
    def current_status(self, site_name: str) -> Optional[ProbeResult]:
        """The most recent probe for a site (None before first probe)."""
        history = self._history.get(site_name, [])
        return history[-1] if history else None

    def status_page(self) -> List[Tuple[str, str, Tuple[str, ...]]]:
        """(site, "PASS"/"FAIL"/"UNKNOWN", problems) rows, sorted."""
        rows = []
        for site in sorted(self._history):
            latest = self.current_status(site)
            if latest is None:
                rows.append((site, "UNKNOWN", ()))
            else:
                rows.append((site, "PASS" if latest.ok else "FAIL", latest.problems))
        return rows

    def availability(self, site_name: str) -> float:
        """Fraction of probes that passed (0 with no history)."""
        history = self._history.get(site_name, [])
        if not history:
            return 0.0
        return sum(r.ok for r in history) / len(history)

    def passing_sites(self) -> List[str]:
        """Sites whose latest probe passed."""
        return [
            name for name in sorted(self._history)
            if (latest := self.current_status(name)) is not None and latest.ok
        ]
