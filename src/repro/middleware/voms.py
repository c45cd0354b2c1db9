"""Virtual Organization Membership Service (EDG VOMS), §5.3.

"To simplify user access to Grid3 resources and reduce the burden on
grid facility administrators, we deployed EDG's Virtual Organization
Management System (VOMS).  We also used group accounts at sites, with a
naming convention for each VO."

One :class:`VOMSServer` per VO holds the membership database; the
:func:`generate_gridmap` function models the EDG script that contacts
every VO's VOMS server and rewrites a site's grid-map file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..errors import ServiceUnavailableError
from ..services import GridService
from ..sim.engine import Engine
from .gsi import Certificate, CertificateAuthority, GridMapFile, Proxy


@dataclass
class VOUser:
    """A registered VO member."""

    name: str
    dn: str
    vo: str
    #: "admin" users are the ~10 % of users who are application
    #: administrators performing most job submissions (§7).
    role: str = "user"
    certificate: Optional[Certificate] = None


class VOMSServer(GridService):
    """Membership database for one VO.

    Central services can be down; §5.4's support model makes VO
    organisations responsible for their own VOMS — hence the
    GridService lifecycle and its downtime ledger.
    """

    def __init__(self, engine: Engine, vo: str, ca: CertificateAuthority) -> None:
        super().__init__(role="voms", owner=vo, engine=engine)
        self.vo = vo
        self.ca = ca
        self._members: Dict[str, VOUser] = {}

    def __len__(self) -> int:
        return len(self._members)

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out["members"] = float(len(self._members))
        out["admins"] = float(len(self.admins()))
        return out

    def register(self, name: str, role: str = "user") -> VOUser:
        """Add a member, issuing them a certificate.  Idempotent by name."""
        existing = self._members.get(name)
        if existing is not None:
            return existing
        dn = f"/DC=org/DC=grid3/O={self.vo}/CN={name}"
        user = VOUser(name=name, dn=dn, vo=self.vo, role=role,
                      certificate=self.ca.issue(dn))
        self._members[name] = user
        return user

    def remove(self, name: str) -> None:
        """Remove a member if present."""
        self._members.pop(name, None)

    def members(self) -> List[VOUser]:
        """All registered members."""
        return list(self._members.values())

    def admins(self) -> List[VOUser]:
        """Members with the application-administrator role."""
        return [u for u in self._members.values() if u.role == "admin"]

    def member(self, name: str) -> VOUser:
        """Look up a member by name (KeyError if absent)."""
        return self._members[name]

    def proxy_for(self, name: str, lifetime: float = 12 * 3600.0) -> Proxy:
        """Create a fresh proxy for a member (the user's grid-proxy-init)."""
        user = self._members[name]
        assert user.certificate is not None
        return self.ca.make_proxy(user.certificate, lifetime)

    def dns(self) -> List[str]:
        """All member DNs — what the gridmap generation script pulls."""
        self.require_available("gridmap pull")
        return [u.dn for u in self._members.values()]


def generate_gridmap(
    site,  # repro.fabric.Site; untyped to avoid a cycle
    voms_servers: Iterable[VOMSServer],
) -> GridMapFile:
    """The EDG gridmap script: pull every VO's DNs, map to group accounts.

    A VO whose VOMS server is unreachable simply contributes no entries —
    its users lose access until the next regeneration, exactly the
    operational behaviour the paper's support model implies.
    """
    gridmap = GridMapFile()
    for server in voms_servers:
        account = site.add_account(server.vo)
        try:
            dns = server.dns()
        except ServiceUnavailableError:
            continue
        for dn in dns:
            gridmap.add(dn, account)
    return gridmap


def refresh_site_gridmaps(sites: Iterable, voms_servers: List[VOMSServer]) -> None:
    """Regenerate every site's grid-map (the periodic cron the real Grid3
    ran).  Attaches the map as the site service ``"gridmap"``."""
    for site in sites:
        site.attach_service("gridmap", generate_gridmap(site, voms_servers))
