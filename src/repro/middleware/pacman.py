"""Pacman packaging and the site installation pipeline (§5.1).

"Procedures for installation, configuration, post-installation testing,
and certification of the basic middleware services were devised and
documented.  The Pacman packaging and configuration tool was used
extensively to facilitate the process."

A :class:`Package` declares dependencies and an optional ``configure``
payload run against the site at install time (this is how the VDT
meta-package attaches services).  :class:`PacmanCache` is the central
package repository hosted at the iGOC.  :func:`install` is a simulation
process: dependency resolution is topological, each package costs
install time, and a per-site misconfiguration probability reproduces the
§6.2 failure class ("jobs often failed due to site configuration
problems") — a misconfigured install *succeeds* but leaves
``site.misconfigured`` set until post-install validation, the iGOC team
or the auto-validator clears it.  Installed packages live in one place,
``site.installed_packages`` (name -> version).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import PackagingError
from ..services import CORE_ROLES
from ..sim.engine import Engine
from ..sim.rng import RngRegistry
from ..sim.units import MINUTE


@dataclass
class Package:
    """A Pacman package: name, dependencies, install cost, payload."""

    name: str
    version: str = "1.0"
    depends: List[str] = field(default_factory=list)
    #: Simulated wall-clock install duration.
    install_time: float = 5 * MINUTE
    #: Optional hook run against the Site at install time.
    configure: Optional[Callable] = None


class PacmanCache:
    """The central package repository (hosted at the iGOC, §5.4)."""

    def __init__(self) -> None:
        self._packages: Dict[str, Package] = {}
        self.fetches = 0

    def publish(self, package: Package) -> None:
        """Add/replace a package in the cache."""
        self._packages[package.name] = package

    def fetch(self, name: str) -> Package:
        """Retrieve a package; unknown names raise PackagingError."""
        try:
            pkg = self._packages[name]
        except KeyError:
            raise PackagingError(f"package {name!r} not in cache") from None
        self.fetches += 1
        return pkg

    def names(self) -> List[str]:
        """All published package names."""
        return sorted(self._packages)


def resolve(cache: PacmanCache, name: str) -> List[Package]:
    """Topologically ordered transitive dependency closure of ``name``.

    Dependencies come before dependents; cycles raise PackagingError.
    """
    order: List[Package] = []
    seen: Set[str] = set()
    visiting: Set[str] = set()

    def visit(pkg_name: str) -> None:
        if pkg_name in seen:
            return
        if pkg_name in visiting:
            raise PackagingError(f"dependency cycle through {pkg_name!r}")
        visiting.add(pkg_name)
        pkg = cache.fetch(pkg_name)
        for dep in pkg.depends:
            visit(dep)
        visiting.discard(pkg_name)
        seen.add(pkg_name)
        order.append(pkg)

    visit(name)
    return order


def installed_version(site, name: str) -> Optional[str]:
    """The installed version of a package at a site (None if absent)."""
    return site.installed_packages.get(name)


def install(
    engine: Engine,
    cache: PacmanCache,
    site,
    name: str,
    rng: Optional[RngRegistry] = None,
    misconfig_probability: float = 0.0,
):
    """Simulation process: install ``name`` (plus deps) onto ``site``.

    Yields install-time timeouts per package; returns the list of
    package names newly installed.  With probability
    ``misconfig_probability`` the site ends up silently misconfigured
    (``site.misconfigured`` is set) — post-install validation
    (:func:`validate_site`) or the Site Status Catalog discovers it later.
    """
    installed: List[str] = []
    for pkg in resolve(cache, name):
        if site.installed_packages.get(pkg.name) == pkg.version:
            continue  # already at this version
        yield engine.timeout(pkg.install_time)
        if pkg.configure is not None:
            pkg.configure(site)
        site.installed_packages[pkg.name] = pkg.version
        installed.append(pkg.name)
    if rng is not None and misconfig_probability > 0:
        if rng.bernoulli(f"pacman.misconfig.{site.name}", misconfig_probability):
            site.misconfigured = True
    return installed


def site_checks(
    site, required_packages: Iterable[str]
) -> List[Tuple[str, Optional[Callable[[], None]]]]:
    """The §5.1 post-installation checks that fail at ``site``, in order:
    missing packages, misconfiguration, missing core services.

    Each is ``(problem, fix)``: ``fix`` clears the problem in place, or
    is None when only a human can (a package or service is missing).
    """
    def reconfigure() -> None:
        site.misconfigured = False

    checks: List[Tuple[str, Optional[Callable[[], None]]]] = [
        (f"missing package {pkg}", None) for pkg in required_packages
        if pkg not in site.installed_packages
    ]
    if site.misconfigured:
        checks.append(("site misconfigured (bad paths/environment)",
                       reconfigure))
    checks.extend(
        (f"missing service {role}", None) for role in CORE_ROLES
        if role not in site.services
    )
    return checks


def validate_site(site, required_packages: Iterable[str]) -> List[str]:
    """Post-installation testing (§5.1): returns a list of problems.

    Empty list means the site passes certification.
    """
    return [problem for problem, _fix in site_checks(site, required_packages)]
