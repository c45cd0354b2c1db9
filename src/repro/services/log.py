"""Bounded structured service logs with stable cursors.

Grid3 services kept logs that monitoring agents tailed (the MonALISA
GRAM-log sensor).  The seed code
hand-capped plain lists in each service (``if len(log) > N: del
log[:N//2]``), which silently breaks any consumer holding a list index
across an eviction.  :class:`ServiceLog` centralises the ring-buffer
logic and gives every entry a stable **absolute sequence number**, so a
tailer's cursor survives eviction: :meth:`since` returns exactly the
entries appended after the cursor, however many were evicted meanwhile.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Any, List, Optional, Tuple


class ServiceLog:
    """A bounded FIFO of structured log entries.

    Writers :meth:`append`; log tailers read with the cursor-stable
    :meth:`since` (``since(0)`` reads every retained entry), and
    ``len`` counts the retained entries.
    """

    __slots__ = ("_entries", "_capacity", "_seq0")

    def __init__(self, capacity: Optional[int] = 10_000) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("capacity cannot be negative")
        self._entries: deque = deque()
        self._capacity = capacity
        self._seq0 = 0  # absolute sequence number of _entries[0]

    def append(self, entry: Any) -> int:
        """Add one entry, evicting the oldest past ``capacity``; returns
        its absolute sequence number."""
        entries = self._entries
        seq = self._seq0 + len(entries)
        entries.append(entry)
        if self._capacity is not None and len(entries) > self._capacity:
            entries.popleft()
            self._seq0 += 1
        return seq

    def __len__(self) -> int:
        return len(self._entries)

    def since(self, cursor: int) -> Tuple[List[Any], int]:
        """Entries with sequence number >= ``cursor`` and the new cursor.

        Entries already evicted are simply gone (the tailer was too
        slow); the returned cursor is one past the newest entry, so the
        next call resumes where this one left off.
        """
        skip = max(0, cursor - self._seq0)
        entries = list(islice(self._entries, skip, None))
        return entries, self._seq0 + len(self._entries)
