"""A round-robin time-series database.

§5.2: "The MonALISA central repository collects its information in a
central server at the iGOC, storing it in a round robin-like database."
Fixed-width bins, a fixed retention ring, and a consolidation function —
old data ages out instead of growing without bound, exactly the
trade-off the real repository made.

The ring is kept as columns: one list of retained bin indices, one of
each bin's first value, and a dict of the rarer further values keyed by
bin index.  Ints and floats are not tracked by the garbage collector,
so a database owns the same handful of GC-tracked objects however many
bins it retains; a bin kept as an ``(index, [values])`` tuple would
cost two, and a wide run retains hundreds of thousands of bins.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Tuple

_CONSOLIDATORS = {
    "avg": lambda values: sum(values) / len(values),
    "max": max,
    "min": min,
    "sum": sum,
    "last": lambda values: values[-1],
}


class RoundRobinDatabase:
    """Fixed-capacity binned time series."""

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
        #: Retained bin indices, ascending, and each bin's first value.
        self._idx: List[int] = []
        self._first: List[float] = []
        #: bin index -> the bin's later values, in arrival order.
        self._more: Dict[int, List[float]] = {}
        self.samples_seen = 0
        self.samples_dropped = 0

    def update(self, time: float, value: float) -> None:
        """Add an observation.  Out-of-retention (too old) samples are
        dropped and counted, never retro-inserted."""
        self.samples_seen += 1
        idx = int(time // self.bin_width)
        bins = self._idx
        if not bins or bins[-1] < idx:
            bins.append(idx)
            self._first.append(value)
        elif idx < bins[0]:
            self.samples_dropped += 1
            return
        else:
            # The current bin, or a rare out-of-order arrival into an
            # older retained one or into a gap between two.
            pos = bisect.bisect_left(bins, idx)
            if bins[pos] == idx:
                self._more.setdefault(idx, []).append(value)
                return
            bins.insert(pos, idx)
            self._first.insert(pos, value)
        if len(bins) > self.capacity:
            self._more.pop(bins.pop(0), None)
            self._first.pop(0)

    def series(self) -> List[Tuple[float, float]]:
        """Retained (bin start time, consolidated value) pairs."""
        fn, width, more = self._fn, self.bin_width, self._more
        return [(idx * width, fn([first, *more[idx]] if idx in more else [first]))
                for idx, first in zip(self._idx, self._first)]

    def value_at(self, time: float) -> Optional[float]:
        """Consolidated value of the bin containing ``time`` (None if
        absent/aged out)."""
        idx = int(time // self.bin_width)
        pos = bisect.bisect_left(self._idx, idx)
        if pos == len(self._idx) or self._idx[pos] != idx:
            return None
        return self._fn([self._first[pos], *self._more.get(idx, ())])

    @property
    def span(self) -> float:
        """Seconds of history currently retained."""
        if not self._idx:
            return 0.0
        return (self._idx[-1] - self._idx[0] + 1) * self.bin_width

    def __len__(self) -> int:
        return len(self._idx)
