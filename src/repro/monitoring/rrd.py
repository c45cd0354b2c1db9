"""A round-robin time-series database.

§5.2: "The MonALISA central repository collects its information in a
central server at the iGOC, storing it in a round robin-like database."
Fixed-width bins, a fixed retention ring, and a consolidation function —
old data ages out instead of growing without bound, exactly the
trade-off the real repository made.

A database holds N series that are always written at the same instant
(a MonALISA sensor group), so they share one bin index: a row write
computes one bin, appends to one list of retained bin indices and
appends one value to each series' column of first values.  The rarer
further rows of a bin sit in a dict keyed by bin index.  Each series
is read through its :class:`RRDSeries` handle, which answers exactly
as a database of that series alone would; a one-series database is
just the N = 1 case.

Ints and floats are not tracked by the garbage collector, so a
database owns the same handful of GC-tracked objects however many bins
it retains; a bin kept as an ``(index, [values])`` tuple would cost
two, and a wide run retains hundreds of thousands of bins.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_CONSOLIDATORS = {
    "avg": lambda values: sum(values) / len(values),
    "max": max,
    "min": min,
    "sum": sum,
    "last": lambda values: values[-1],
}


class RoundRobinDatabase:
    """Fixed-capacity binned time series over one shared bin index."""

    def __init__(self, bin_width: float, capacity: int, consolidation: str = "avg") -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if consolidation not in _CONSOLIDATORS:
            raise ValueError(f"unknown consolidation {consolidation!r}")
        self.bin_width = bin_width
        self.capacity = capacity
        self.consolidation = consolidation
        self._fn: Callable = _CONSOLIDATORS[consolidation]
        #: Retained bin indices, ascending.
        self._idx: List[int] = []
        #: One column per series: each retained bin's first value.
        self._first: List[List[float]] = []
        #: bin index -> the bin's later rows, in arrival order.
        self._more: Dict[int, List[Tuple[float, ...]]] = {}
        #: Rows written, and rows dropped as older than the retention;
        #: every series saw (and lost) each of them.
        self.samples_seen = 0
        self.samples_dropped = 0

    def add_series(self) -> "RRDSeries":
        """A new series and its read handle; every series is added
        before the first row."""
        if self.samples_seen:
            raise ValueError("series are added before the first row")
        self._first.append([])
        return RRDSeries(self, len(self._first) - 1)

    def write(self, time: float, values: Sequence[float]) -> None:
        """Add one row, a value per series in add order.  Out-of-retention
        (too old) rows are dropped and counted, never retro-inserted."""
        columns = self._first
        if len(values) != len(columns):
            raise ValueError(f"row of {len(values)} values for {len(columns)} series")
        self.samples_seen += 1
        idx = int(time // self.bin_width)
        bins = self._idx
        if not bins or bins[-1] < idx:
            bins.append(idx)
            for column, value in zip(columns, values):
                column.append(value)
        elif idx < bins[0]:
            self.samples_dropped += 1
            return
        else:
            # The current bin, or a rare out-of-order arrival into an
            # older retained one or into a gap between two.
            pos = bisect.bisect_left(bins, idx)
            if bins[pos] == idx:
                self._more.setdefault(idx, []).append(tuple(values))
                return
            bins.insert(pos, idx)
            for column, value in zip(columns, values):
                column.insert(pos, value)
        if len(bins) > self.capacity:
            self._more.pop(bins.pop(0), None)
            for column in columns:
                del column[0]

    @property
    def span(self) -> float:
        """Seconds of history currently retained."""
        idx = self._idx
        return (idx[-1] - idx[0] + 1) * self.bin_width if idx else 0.0

    def __len__(self) -> int:
        return len(self._idx)


class RRDSeries:
    """Read handle on one series of a :class:`RoundRobinDatabase`."""

    __slots__ = ("database", "_column")

    def __init__(self, database: RoundRobinDatabase, column: int) -> None:
        self.database = database
        self._column = column

    def series(self) -> List[Tuple[float, float]]:
        """Retained (bin start time, consolidated value) pairs."""
        db = self.database
        fn, width, more, column = db._fn, db.bin_width, db._more, self._column
        return [(idx * width,
                 fn([first, *(row[column] for row in more[idx])] if idx in more else [first]))
                for idx, first in zip(db._idx, db._first[column])]

    def value_at(self, time: float) -> Optional[float]:
        """Consolidated value of the bin containing ``time``, or None."""
        db = self.database
        idx = int(time // db.bin_width)
        pos = bisect.bisect_left(db._idx, idx)
        if pos == len(db._idx) or db._idx[pos] != idx:
            return None
        column = self._column
        return db._fn([db._first[column][pos], *(row[column] for row in db._more.get(idx, ()))])

    @property
    def samples_seen(self) -> int:
        return self.database.samples_seen

    @property
    def samples_dropped(self) -> int:
        return self.database.samples_dropped
