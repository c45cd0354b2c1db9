"""Discrete-event simulation kernel for the Grid3 reproduction.

Everything in :mod:`repro` runs on this kernel: a deterministic event
calendar (:class:`~repro.sim.engine.Engine`, an urgent FIFO plus one
``(time, seq)`` heap), generator-based processes, shared resources,
named RNG streams, and calendar helpers.
"""

from .calendar import GRID3_EPOCH, SC2003_START, SimCalendar
from .engine import (
    AnyOf,
    Engine,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .resources import Request, Resource
from .rng import RngRegistry
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
    "AnyOf",
    "Engine",
    "Event",
    "GRID3_EPOCH",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "RngRegistry",
    "SC2003_START",
    "SimCalendar",
    "SimulationError",
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
