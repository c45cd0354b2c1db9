"""Shared-resource primitives built on the event kernel.

:class:`Resource` models a fixed number of identical slots (CPUs in a
cluster, GridFTP server connections, gatekeeper jobmanager slots).  It
hands out :class:`Request` events that processes ``yield`` on.
"""

from __future__ import annotations

import heapq
from typing import List

from .engine import Engine, Event


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    The event fires when the slot is granted.  Lower ``priority`` wins;
    ties break FIFO.
    """

    __slots__ = ("resource", "priority", "key")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.engine)
        self.resource = resource
        self.priority = priority
        resource._seq += 1
        self.key = (priority, resource._seq)
        resource._admit(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request (granted requests must release)."""
        self.resource._cancel(self)


class Resource:
    """``capacity`` identical slots with a priority waiting queue."""

    def __init__(self, engine: Engine, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self._capacity = int(capacity)
        self._in_use = 0
        self._queue: List = []  # heap of (key, Request)
        self._seq = 0

    # -- introspection ----------------------------------------------------
    @property
    def capacity(self) -> int:
        """Total slot count."""
        return self._capacity

    @property
    def in_use(self) -> int:
        """Currently granted slots."""
        return self._in_use

    @property
    def available(self) -> int:
        """Free slots."""
        return self._capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Requests waiting for a slot."""
        return len(self._queue)

    # -- protocol ---------------------------------------------------------
    def request(self, priority: int = 0) -> Request:
        """Claim a slot.  Yield the returned event to wait for the grant."""
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Return a granted slot.  Wakes the highest-priority waiter."""
        if not request.triggered:
            raise RuntimeError("cannot release an ungranted request; cancel() it")
        self._in_use -= 1
        self._dispatch()

    def resize(self, new_capacity: int) -> None:
        """Change capacity (sites add/withdraw nodes, §7).  Shrinking below
        current use is allowed; excess drains as jobs finish."""
        if new_capacity < 0:
            raise ValueError("capacity cannot be negative")
        self._capacity = int(new_capacity)
        self._dispatch()

    # -- internals ----------------------------------------------------------
    def _admit(self, request: Request) -> None:
        heapq.heappush(self._queue, (request.key, request))
        self._dispatch()

    def _cancel(self, request: Request) -> None:
        if request.triggered:
            raise RuntimeError("request already granted; release() instead")
        # Lazy deletion: mark by failing silently and skip at dispatch.
        request._ok = False
        request._value = RuntimeError("cancelled")
        request._defused = True

    def _dispatch(self) -> None:
        while self._queue and self._in_use < self._capacity:
            _key, request = heapq.heappop(self._queue)
            if request.triggered:  # cancelled entry
                continue
            self._in_use += 1
            request.succeed(self)
