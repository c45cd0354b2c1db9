"""Wall time rescaled to a reference host speed.

A shared virtual machine does not run at one speed: a 2-vCPU VM was
measured switching between two speeds about 1.5x apart, in spells of
half a second to ten seconds, and a whole run can fall in either.  So
the benchmark does not report raw wall time for CPU-bound work.  It
runs a fixed pure-Python probe right before and right after each timed
piece of work, and rescales the piece's wall time by how long the probe
took next to it::

    seconds = wall * REFERENCE_S / mean(probe before, probe after)

The result is the piece's time on a host that runs the probe in
REFERENCE_S: a program change that makes the piece 10 % faster makes
the rescaled time 10 % lower, while a host that slows down both the
piece and the probe leaves it where it was.  The probe does the kind of
work the simulation does (objects, dicts, a heap, float arithmetic) and
is part of the benchmark, not of the program.

Use::

    ref = ReferenceClock()
    ref.start()
    piece_one()
    first = ref.lap()      # rescaled seconds of piece_one
    piece_two()
    second = ref.lap()     # of piece_two (the probes do not count)
"""

from __future__ import annotations

import gc
import heapq
import time

#: Wall time of one probe on a quiet 2-vCPU x86-64 VM with CPython
#: 3.11; it only fixes the scale of the rescaled seconds.
REFERENCE_S = 0.0017
PROBE_ITEMS = 2000

clock = time.perf_counter


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight


def _probe_work() -> float:
    counts: dict = {}
    heap: list = []
    total = 0.0
    for i in range(PROBE_ITEMS):
        item = _Item(i, i * 0.5)
        slot = i % 61
        counts[slot] = counts.get(slot, 0) + item.key
        heapq.heappush(heap, (item.weight * 1.3 % 17.0, i))
        if len(heap) > 32:
            total += heapq.heappop(heap)[0]
    return total + sum(sorted(counts.values())[:5])


def probe() -> float:
    """Wall time of one run of the probe.

    The collector is off meanwhile: the probe frees everything it makes
    by reference counting, and a collection it set off would walk the
    caller's heap, which differs from one process to the next.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = clock()
        _probe_work()
        return clock() - began
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Times consecutive pieces of work in rescaled seconds."""

    def __init__(self) -> None:
        self.before = 0.0
        self.began = 0.0
        #: Raw wall time and speed factor of the last lap.
        self.raw = 0.0
        self.factor = 1.0

    def start(self) -> None:
        """Probe, then start timing the next piece."""
        self.before = probe()
        self.began = clock()

    def lap(self) -> float:
        """Rescaled seconds since ``start`` or the last ``lap``; starts
        timing the next piece."""
        self.raw = clock() - self.began
        after = probe()
        self.factor = REFERENCE_S / ((self.before + after) / 2.0)
        self.before = after
        self.began = clock()
        return self.raw * self.factor
