"""A Grid3 site: cluster + storage + access links + configuration.

§5 of the paper: "each resource (compute, storage, application, site,
user) was logically associated with a VO.  At each site, a core set of
grid middleware services with VO-specific configuration and additions
were installed."  :class:`Site` is the passive container those services
attach to; the builder in :mod:`repro.grid3` wires gatekeepers, GridFTP
servers, information providers and monitors onto it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim.engine import Engine
from ..sim.units import GB, HOUR, MBPS, TB
from .cluster import Cluster
from .network import Network
from .storage import StorageElement


@dataclass
class SiteConfig:
    """GLUE-schema-style site attributes (§5.1).

    The paper notes Grid3 added "information providers ... for site
    configuration parameters such as application installation areas,
    temporary working directories, storage element locations, and VDT
    software installation locations" — these are exactly the fields the
    MDS information service publishes for this site.
    """

    app_dir: str = "/grid3/app"
    tmp_dir: str = "/grid3/tmp"
    data_dir: str = "/grid3/data"
    vdt_location: str = "/grid3/vdt"
    #: §6.4 criterion 3: batch-enforced maximum job walltime (seconds).
    max_walltime: float = 72 * HOUR
    #: §6.4 criterion 1: can worker nodes reach the public internet?
    outbound_connectivity: bool = True
    #: Local batch flavour: "condor" | "pbs" | "lsf" (§5).
    batch_system: str = "condor"


class Site:
    """One Grid3 execution/storage site.

    A site has no operational status of its own: it is as healthy as
    its services (see :func:`repro.services.down_roles`), its
    configuration flag and its storage.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        institution: str,
        owner_vo: str,
        nodes: int,
        cpus_per_node: int,
        disk_capacity: float,
        network: Network,
        access_bandwidth: float = 100 * MBPS,
        config: Optional[SiteConfig] = None,
        shared: bool = True,
        tier1: bool = False,
        cpu_speed: float = 1.0,
    ) -> None:
        self.engine = engine
        self.name = name
        self.institution = institution
        #: The VO that owns/operates the site (resources are shared
        #: across all six VOs regardless — that is the point of Grid3).
        self.owner_vo = owner_vo
        #: >60 % of Grid3 CPUs came from shared, non-dedicated facilities
        #: (§7); shared sites run local (non-grid) load too.
        self.shared = shared
        #: BNL (ATLAS) and FNAL (CMS) are archival Tier1 centres.
        self.tier1 = tier1
        #: Relative CPU speed vs the 2 GHz reference machine (§4.5);
        #: compute wall-clock scales inversely.
        self.cpu_speed = cpu_speed
        self.config = config or SiteConfig()

        self.cluster = Cluster(engine, name, nodes, cpus_per_node)
        self.storage = StorageElement(engine, f"{name}-se", disk_capacity)
        self.network = network
        #: Access pipes; GridFTP routes traverse these.
        self.uplink = network.add_link(f"{name}-up", access_bandwidth)
        self.downlink = network.add_link(f"{name}-down", access_bandwidth)

        #: VO -> unix group account name (§5.3: "group accounts at sites,
        #: with a naming convention for each VO").
        self.accounts: Dict[str, str] = {}
        #: Installed packages (middleware + applications): name ->
        #: version, so re-publishing a package at a new version makes
        #: Pacman upgrade it.
        self.installed_packages: Dict[str, str] = {}
        #: Left set by an install that succeeded but misconfigured the
        #: site (§6.2); cleared by an operator or the auto-validator.
        self.misconfigured = False
        #: Attached services, keyed by role ("gatekeeper", "gridftp",
        #: "gris", "ganglia", ...); populated by the grid builder.
        self.services: Dict[str, object] = {}
        #: Calls of :meth:`attach_service` so far: a reader that caches
        #: what ``services`` holds rebuilds when this moves.
        self.attachments = 0
        #: Published usage policy (§5): which VOs may run here and at
        #: what share.  Set by the grid builder from the policy set;
        #: publication alone is passive — enforcement happens in the
        #: scheduling layer only when ``Grid3Config.fair_share`` is on.
        self.usage_policy = None

    # -- convenience -----------------------------------------------------
    @property
    def cpus(self) -> int:
        """Total CPU count at the site."""
        return self.cluster.total_cpus

    @property
    def access_bandwidth(self) -> float:
        """Nominal access-link bandwidth — §6.4 selection criterion 4."""
        return self.uplink.nominal_bandwidth

    def add_account(self, vo: str) -> str:
        """Create the VO's group account (idempotent)."""
        account = self.accounts.get(vo)
        if account is None:
            account = f"grid-{vo.lower()}"
            self.accounts[vo] = account
        return account

    def service(self, role: str):
        """Look up an attached service; KeyError if absent."""
        return self.services[role]

    def attach_service(self, role: str, service: object) -> None:
        """Register a service under ``role`` (gatekeeper, gridftp, ...)."""
        self.services[role] = service
        self.attachments += 1

    def route_to(self, other: "Site") -> List[str]:
        """Link names a transfer from this site to ``other`` traverses.

        With a wired backbone (:func:`repro.fabric.topology.wire_backbone`)
        inter-region routes additionally cross the regional trunk.
        """
        middle: List[str] = []
        if getattr(self.network, "backbone_enabled", False):
            from .topology import backbone_route
            middle = backbone_route(
                getattr(self, "region", None),
                getattr(other, "region", None),
                self.network,
            )
        return [self.uplink.name, *middle, other.downlink.name]

    def __repr__(self) -> str:
        return f"<Site {self.name} ({self.owner_vo}) {self.cpus} cpus>"
