"""Bucket-calendar ("time wheel") for the simulation kernel.

The kernel's scheduled-occurrence population is dominated by dense
bands of short timeouts (heartbeats, poll loops, queue waits) that
frequently collide on the exact same firing instant.  A classic binary
heap pays ``O(log n)`` per event and carries a per-entry sequence key
just to keep same-instant ties in insertion order.

:class:`TimeWheel` replaces that with a calendar of *exact-time
buckets*:

* ``buckets`` maps each distinct pending fire time (a float) to the
  list of events scheduled for that instant, in insertion order.
* ``times`` is a small heap of the distinct pending times only.

Scheduling an event whose fire time already has a bucket is an O(1)
``list.append``; only the *first* event at a new time pays the heap
push.  Because a Python list preserves insertion order, same-instant
ties need no sequence numbers at all — the bucket *is* the tie-break —
and the engine claims a whole bucket with a single clock store, then
dispatches its entries in order.  Far-future (and even ``inf``) times need no special casing:
they are just buckets that sort late in ``times``, so the heap doubles
as the fallback calendar for sparse long-range events.

Ordering contract (relied on by the engine's determinism guarantee):
events scheduled for the same instant fire in insertion order, and the
engine drains its urgent FIFO (triggered events, which are always
scheduled for the *current* instant) before opening the next bucket —
together this reproduces exactly the old heap's
``(time, priority, insertion-seq)`` order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Dict, List, Tuple

_INF = float("inf")


class TimeWheel:
    """Exact-time bucket calendar: ``{fire_time: [event, ...]}`` plus a
    heap of the distinct pending times."""

    __slots__ = ("buckets", "times")

    def __init__(self) -> None:
        self.buckets: Dict[float, List[Any]] = {}
        self.times: List[float] = []

    def schedule(self, time: float, event: Any) -> None:
        """Add ``event`` to the bucket for ``time`` (creating it, and
        registering the time in the heap, if this is the first event at
        that instant)."""
        bucket = self.buckets.get(time)
        if bucket is None:
            self.buckets[time] = [event]
            heappush(self.times, time)
        else:
            bucket.append(event)

    def peek(self) -> float:
        """Earliest pending time, or ``inf`` when empty."""
        return self.times[0] if self.times else _INF

    def pop(self) -> Tuple[float, List[Any]]:
        """Remove and return ``(time, bucket)`` for the earliest time.

        The bucket is detached: an event scheduled for the same float
        time *during* dispatch lands in a fresh bucket (correctly after
        every already-scheduled event at that instant).
        """
        time = heappop(self.times)
        return time, self.buckets.pop(time)

    def __len__(self) -> int:
        return sum(len(b) for b in self.buckets.values())

    def __bool__(self) -> bool:
        return bool(self.times)

    def __repr__(self) -> str:
        return f"<TimeWheel {len(self.times)} times / {len(self)} events>"
