"""Grid middleware behavioural models: GSI, GRAM, GridFTP, RLS, MDS,
VOMS, Pacman/VDT, SRM."""

from .gram import (
    DEFAULT_OVERLOAD_THRESHOLD,
    LOAD_PER_MANAGED_JOB,
    SUBMISSION_SPIKE_LOAD,
    Gatekeeper,
    attach_gatekeeper,
)
from .gridftp import GridFTPServer, attach_gridftp, transfer
from .gsi import (
    Authenticator,
    Certificate,
    CertificateAuthority,
    GridMapFile,
    Proxy,
)
from .mds import GIIS, GRIS, build_mds_hierarchy, glue_record
from .pacman import (
    Package,
    PacmanCache,
    install,
    resolve,
    validate_site,
)
from .rls import LocalReplicaCatalog, Replica, ReplicaLocationIndex
from .srm import SRMService, attach_srm
from .vdt import GRID3_SITE_PACKAGE, REQUIRED_PACKAGES, vdt_package_set
from .voms import VOMSServer, VOUser, generate_gridmap, refresh_site_gridmaps

__all__ = [
    "Authenticator",
    "Certificate",
    "CertificateAuthority",
    "DEFAULT_OVERLOAD_THRESHOLD",
    "GIIS",
    "GRID3_SITE_PACKAGE",
    "GRIS",
    "Gatekeeper",
    "GridFTPServer",
    "GridMapFile",
    "LOAD_PER_MANAGED_JOB",
    "LocalReplicaCatalog",
    "Package",
    "PacmanCache",
    "Proxy",
    "REQUIRED_PACKAGES",
    "Replica",
    "ReplicaLocationIndex",
    "SRMService",
    "SUBMISSION_SPIKE_LOAD",
    "VOMSServer",
    "VOUser",
    "attach_gatekeeper",
    "attach_gridftp",
    "attach_srm",
    "build_mds_hierarchy",
    "generate_gridmap",
    "glue_record",
    "install",
    "refresh_site_gridmaps",
    "resolve",
    "transfer",
    "validate_site",
    "vdt_package_set",
]
