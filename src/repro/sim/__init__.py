"""Discrete-event simulation kernel for the Grid3 reproduction.

Everything in :mod:`repro` runs on this kernel: a deterministic event
calendar (:class:`~repro.sim.engine.Engine`, an urgent FIFO plus a time
wheel), generator-based processes, shared resources, item stores, named
RNG streams, and calendar helpers.
"""

from .calendar import GRID3_EPOCH, SC2003_START, SimCalendar
from .engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .resources import Container, ContainerError, Request, Resource
from .rng import RngRegistry
from .store import PriorityStore, Store
from .units import (
    BPS,
    DAY,
    GB,
    GBPS,
    HOUR,
    KB,
    MB,
    MBPS,
    MINUTE,
    SECOND,
    TB,
    WEEK,
    bytes_to_gb,
    bytes_to_tb,
    fmt_bytes,
    fmt_duration,
    seconds_to_days,
    seconds_to_hours,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "ContainerError",
    "Engine",
    "Event",
    "GRID3_EPOCH",
    "Interrupt",
    "PriorityStore",
    "Process",
    "Request",
    "Resource",
    "RngRegistry",
    "SC2003_START",
    "SimCalendar",
    "SimulationError",
    "Store",
    "Timeout",
    "BPS",
    "DAY",
    "GB",
    "GBPS",
    "HOUR",
    "KB",
    "MB",
    "MBPS",
    "MINUTE",
    "SECOND",
    "TB",
    "WEEK",
    "bytes_to_gb",
    "bytes_to_tb",
    "fmt_bytes",
    "fmt_duration",
    "seconds_to_days",
    "seconds_to_hours",
]
