"""Grid Security Infrastructure: certificates, proxies, grid-map files.

§5.1: the Grid3 installation included "The Globus Toolkit's Grid
security infrastructure (GSI)".  §5.3: "We generated the local grid-map
files that map user identities presented in X509 certificates to local
accounts by calling an EDG script to contact each VO's VOMS server."

This is a *behavioural* model: we track distinguished names, issuers,
validity windows and the DN→account mapping — enough to reproduce the
operational failure modes (expired proxies, unmapped users) without any
actual cryptography.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import AuthenticationError, AuthorizationError
from ..sim.engine import Engine
from ..sim.units import HOUR


@dataclass(frozen=True)
class Certificate:
    """A long-lived X.509-style identity credential."""

    subject: str        # distinguished name, e.g. "/DC=org/DC=doegrids/CN=Jane Doe"
    issuer: str         # CA name
    not_after: float    # sim-time expiry

    def valid_at(self, now: float) -> bool:
        """Whether the credential is within its validity window."""
        return now <= self.not_after


@dataclass(frozen=True)
class Proxy:
    """A short-lived delegated credential derived from a certificate.

    Real Grid3 proxies defaulted to 12 hours; long production jobs
    outliving their proxy was a real operational failure mode.
    """

    certificate: Certificate
    not_after: float

    @property
    def subject(self) -> str:
        """The owning identity's DN."""
        return self.certificate.subject

    def valid_at(self, now: float) -> bool:
        """Proxy and its signing certificate must both be unexpired."""
        return now <= self.not_after and self.certificate.valid_at(now)


class CertificateAuthority:
    """Issues certificates; gatekeepers trust a configured CA set."""

    def __init__(self, name: str, engine: Engine, cert_lifetime: float = 365 * 24 * HOUR) -> None:
        self.name = name
        self.engine = engine
        self.cert_lifetime = cert_lifetime
        self.issued: List[Certificate] = []

    def issue(self, subject: str) -> Certificate:
        """Issue a certificate for ``subject`` valid from now."""
        cert = Certificate(
            subject=subject,
            issuer=self.name,
            not_after=self.engine.now + self.cert_lifetime,
        )
        self.issued.append(cert)
        return cert

    def make_proxy(self, cert: Certificate, lifetime: float = 12 * HOUR) -> Proxy:
        """Create a delegated proxy (default 12 h, the Globus default)."""
        return Proxy(certificate=cert, not_after=self.engine.now + lifetime)


class GridMapFile:
    """The per-site DN → local account map (§5.3).

    Regenerated periodically from the VOMS servers; a stale map is one of
    the "account privileges" deployment problems §6.3 mentions.
    """

    def __init__(self) -> None:
        self._map: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, dn: str) -> bool:
        return dn in self._map

    def add(self, dn: str, account: str) -> None:
        """Map a DN to a local (group) account."""
        self._map[dn] = account

    def remove(self, dn: str) -> None:
        """Drop a mapping if present."""
        self._map.pop(dn, None)

    def account_for(self, dn: str) -> str:
        """The local account for ``dn``; raises AuthorizationError if
        unmapped."""
        try:
            return self._map[dn]
        except KeyError:
            raise AuthorizationError(f"no grid-map entry for {dn!r}") from None

    def entries(self) -> Dict[str, str]:
        """Snapshot of all mappings."""
        return dict(self._map)


class Authenticator:
    """GSI authentication as performed by a gatekeeper.

    Checks, in order: proxy validity (expiry), issuer trust, grid-map
    membership.  Returns the mapped local account on success.
    """

    def __init__(self, engine: Engine, trusted_cas: List[str], gridmap: GridMapFile) -> None:
        self.engine = engine
        self.trusted_cas = set(trusted_cas)
        self.gridmap = gridmap
        #: Counters for the troubleshooting reports (§8 asks for better
        #: accounting APIs — we provide them natively).
        self.accepted = 0
        self.rejected = 0

    def authenticate(self, proxy: Proxy) -> str:
        """Validate ``proxy`` and return the mapped local account.

        Raises :class:`AuthenticationError` for expired/untrusted
        credentials and :class:`AuthorizationError` for unmapped DNs.
        """
        now = self.engine.now
        if not proxy.valid_at(now):
            self.rejected += 1
            raise AuthenticationError(f"expired credential for {proxy.subject!r}")
        if proxy.certificate.issuer not in self.trusted_cas:
            self.rejected += 1
            raise AuthenticationError(
                f"untrusted CA {proxy.certificate.issuer!r} for {proxy.subject!r}"
            )
        try:
            account = self.gridmap.account_for(proxy.subject)
        except AuthorizationError:
            self.rejected += 1
            raise
        self.accepted += 1
        return account
