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
from typing import Any, Iterable, Iterator, List, Optional, Tuple, Union


class ServiceLog:
    """A bounded FIFO of structured log entries.

    List-compatible surface (``append``/``extend``/``len``/iteration/
    indexing and slicing over the *retained* window) plus the
    cursor-stable :meth:`since` API for log tailers.
    """

    __slots__ = ("_entries", "_capacity", "_seq0")

    def __init__(self, capacity: Optional[int] = 10_000) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("capacity cannot be negative")
        self._entries: deque = deque()
        self._capacity = capacity
        self._seq0 = 0  # absolute sequence number of _entries[0]

    # -- capacity ---------------------------------------------------------
    @property
    def capacity(self) -> Optional[int]:
        """Retained-entry bound (None = unbounded)."""
        return self._capacity

    # -- list surface -----------------------------------------------------
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

    def extend(self, entries: Iterable[Any]) -> None:
        for entry in entries:
            self.append(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._entries)

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if isinstance(index, slice):
            return list(self._entries)[index]
        return self._entries[index]

    # -- cursor API -------------------------------------------------------
    @property
    def first_seq(self) -> int:
        """Absolute sequence number of the oldest retained entry."""
        return self._seq0

    @property
    def end_seq(self) -> int:
        """One past the newest entry — the cursor for "read everything"."""
        return self._seq0 + len(self._entries)

    def since(self, cursor: int) -> Tuple[List[Any], int]:
        """Entries with sequence number >= ``cursor`` and the new cursor.

        Entries already evicted are simply gone (the tailer was too
        slow); the returned cursor always equals :attr:`end_seq`, so the
        next call resumes where this one left off.
        """
        skip = max(0, cursor - self._seq0)
        entries = list(islice(self._entries, skip, None))
        return entries, self._seq0 + len(self._entries)

    def tail(self, n: int) -> List[Any]:
        """The newest ``n`` retained entries, oldest first."""
        if n <= 0:
            return []
        return list(self._entries)[-n:]

    def __repr__(self) -> str:
        cap = "∞" if self._capacity is None else self._capacity
        return f"<ServiceLog {len(self._entries)}/{cap} seq0={self._seq0}>"
