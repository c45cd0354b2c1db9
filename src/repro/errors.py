"""The Grid3 error taxonomy.

Section 6.1 of the paper attributes ~90 % of job failures to *site*
problems — "disk filling errors, gatekeeper overloading, or network
interruptions" — with the remainder application-caused.  Every failure
the simulation can produce is an instance of one of these classes, so the
analysis layer can reproduce the paper's failure breakdowns by type.
"""

from __future__ import annotations


class GridError(Exception):
    """Base class for everything that can go wrong on Grid3."""

    #: Coarse category used by the failure-analysis reports: "site",
    #: "application", or "infrastructure".
    category = "infrastructure"


# --- site-caused failures (the paper's dominant class, §6.1) ------------
class SiteError(GridError):
    """A failure attributable to the execution site."""

    category = "site"


class StorageFullError(SiteError):
    """A disk/storage element had no room (the 'disk filling' class)."""


class GatekeeperOverloadError(SiteError):
    """The gatekeeper shed load or timed out under submission pressure."""


class NetworkInterruptionError(SiteError):
    """A WAN/access-link interruption broke a transfer or callback."""


class NodeFailureError(SiteError):
    """A worker node died or was rolled over while the job ran (§6.1:
    'we did not handle ACDC's nightly roll over of worker nodes')."""


class SiteMisconfigurationError(SiteError):
    """Site configuration problem (§6.2: 'jobs often failed due to site
    configuration problems')."""


class ServiceFailureError(SiteError):
    """A site service crashed, killing jobs in groups (§6.2: 'a service
    would fail and all jobs submitted to a site would die')."""


class WalltimeExceededError(SiteError):
    """The batch system killed the job at its walltime limit (§6.4
    criterion 3)."""


# --- application-caused failures -----------------------------------------
class ApplicationError(GridError):
    """The application itself failed (bad data, code bug, ...)."""

    category = "application"


# --- middleware / protocol errors ---------------------------------------
class AuthenticationError(GridError):
    """GSI authentication / gridmap lookup failed."""


class AuthorizationError(GridError):
    """Authenticated identity not authorised for the request."""


class SubmissionError(GridError):
    """GRAM job submission was rejected."""


class TransferError(GridError):
    """A GridFTP transfer failed outright."""


class ReplicaNotFoundError(GridError):
    """RLS had no replica for the requested logical file."""


class ServiceUnavailableError(SiteError):
    """A service was down when contacted.  In practice the services jobs
    touch (gatekeeper, GridFTP, GRIS) are site services, so this counts
    toward the paper's dominant site-failure class."""


class PackagingError(GridError):
    """Pacman installation / dependency resolution failed."""


class ReservationError(GridError):
    """SRM space reservation could not be satisfied."""


class ConfigurationError(GridError):
    """A :class:`~repro.core.grid3.Grid3Config` failed validation: an
    unknown knob, an out-of-range value, or contradictory settings."""
