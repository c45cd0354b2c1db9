"""Scheduling: local batch systems, Condor-G/DAGMan, site selection,
usage policies, and grid-wide fair-share."""

from .batch import BatchScheduler, default_runner
from .condorg import CondorG, GridJobHandle
from .dagman import DAGMan, DagmanRun
from .fairshare import DEFAULT_HALF_LIFE, FairShareLedger, FairShareStatus
from .flavors import (
    FLAVOURS,
    CondorScheduler,
    LSFScheduler,
    PBSScheduler,
    make_scheduler,
)
from .localload import LocalLoadGenerator, add_local_load
from .matchmaking import RandomSelector, SiteSelector
from .policy import (
    PolicyEngine,
    PolicyRejectRow,
    ShareCapRow,
    UsagePolicy,
    paper_policies,
)

__all__ = [
    "BatchScheduler",
    "CondorG",
    "CondorScheduler",
    "DAGMan",
    "DEFAULT_HALF_LIFE",
    "DagmanRun",
    "FLAVOURS",
    "FairShareLedger",
    "FairShareStatus",
    "GridJobHandle",
    "LSFScheduler",
    "LocalLoadGenerator",
    "PBSScheduler",
    "PolicyEngine",
    "PolicyRejectRow",
    "RandomSelector",
    "ShareCapRow",
    "SiteSelector",
    "UsagePolicy",
    "add_local_load",
    "default_runner",
    "make_scheduler",
    "paper_policies",
]
