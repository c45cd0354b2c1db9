"""The Grid3 monitoring framework (Figure 1): producers, intermediaries,
consumers — Ganglia, MonALISA, ACDC, the Site Status Catalog, MDViewer."""

from .acdc import ACDCDatabase, ACDCJobMonitor, JobRecord
from .core import (
    MetricSample,
    MetricStore,
    PeriodicProducer,
    make_tags,
)
from .ganglia import GangliaAgent, GangliaWeb
from .mdviewer import MDViewer
from .monalisa import MonALISAAgent, MonALISARepository
from .progress import ProgressEvent, ProgressMeter, render_progress_line, slice_times
from .prometheus import grid_exposition, render_flat, render_line, render_store
from .rrd import RoundRobinDatabase
from .servicehealth import ServiceHealthAgent
from .sitecatalog import ProbeResult, SiteStatusCatalog, probe_site
from .statusmap import SITE_LOCATIONS, render_status_map, status_map_for_catalog
from .transfers import TransferEntry, TransferLedger

__all__ = [
    "ACDCDatabase",
    "ACDCJobMonitor",
    "GangliaAgent",
    "GangliaWeb",
    "JobRecord",
    "MDViewer",
    "MetricSample",
    "MetricStore",
    "MonALISAAgent",
    "MonALISARepository",
    "PeriodicProducer",
    "ProbeResult",
    "ProgressEvent",
    "ProgressMeter",
    "RoundRobinDatabase",
    "SITE_LOCATIONS",
    "ServiceHealthAgent",
    "render_status_map",
    "status_map_for_catalog",
    "SiteStatusCatalog",
    "TransferEntry",
    "TransferLedger",
    "grid_exposition",
    "make_tags",
    "probe_site",
    "render_flat",
    "render_line",
    "render_progress_line",
    "render_store",
    "slice_times",
]
