"""The progress transport: worker pipe sender, server-side log, SSE.

Three pieces move a :class:`~repro.monitoring.progress.ProgressEvent`
from a simulation running in a worker *process* to an HTTP client:

* :class:`ProgressSender` lives in the worker.  ``emit()`` never
  blocks the simulation: events land in a small coalescing buffer and
  a daemon thread drains it into the multiprocessing pipe.  Under a
  slow reader the buffer coalesces — consecutive ``tick`` events
  collapse to the newest one; lifecycle events (``phase``/``end``)
  are never dropped — so a stalled consumer costs the run nothing but
  staler ticks.  ``close()`` ends the stream with
  :data:`END_OF_STREAM`, which is how the server's reader knows the
  run is over: pipe EOF never arrives while another forked process
  (e.g. a pool worker) still holds a copy of the write end.
* :class:`ProgressLog` lives on the server's RunRecord.  The queue's
  reader thread appends events; any number of SSE streams and
  ``?since=`` pollers read it concurrently.  Events carry the
  emitter's deterministic ``seq``, so streamed and polled views agree
  positionally by construction.
* :func:`sse_format` renders one event as a Server-Sent-Events frame
  (``id:`` carries the seq, so ``Last-Event-ID`` reconnects resume).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Dict, List, Optional, Tuple

#: Worker-side buffer bound: past this, tick coalescing kicks in.
SENDER_BUFFER = 256
#: Server-side retained events per run.  4096 far exceeds the default
#: 32-slice emission (~35 events); the bound is a safety net against a
#: pathological emitter, not a working limit.
LOG_BOUND = 4096
#: The last message on every progress pipe: no events follow it.
END_OF_STREAM = "end-of-stream"


class ProgressSender:
    """Worker-side, non-blocking, coalescing pipe writer.

    ``emit(event_dict)`` appends to a bounded deque and returns; a
    daemon thread performs the (potentially blocking) ``conn.send``
    calls.  When the buffer is full and the incoming event is a
    ``tick``, it *replaces* the newest buffered tick (keeping the
    freshest snapshot) instead of growing; lifecycle events always
    enqueue.  A broken pipe (the parent died) silences the sender
    rather than killing the simulation.
    """

    def __init__(self, conn, buffer: int = SENDER_BUFFER) -> None:
        self._conn = conn
        self._buffer = buffer
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._closed = False
        self._broken = False
        self.sent = 0
        self.coalesced = 0
        self._thread = threading.Thread(
            target=self._pump, name="progress-sender", daemon=True
        )
        self._thread.start()

    def emit(self, event) -> None:
        """Queue one event (a ProgressEvent or its plain dict); never
        blocks, never raises into the simulation."""
        payload = event if isinstance(event, dict) else event.as_dict()
        with self._lock:
            if self._closed:
                return
            if (len(self._queue) >= self._buffer
                    and payload.get("kind") == "tick"):
                # Coalesce: the newest buffered tick is superseded.
                for i in range(len(self._queue) - 1, -1, -1):
                    if self._queue[i].get("kind") == "tick":
                        del self._queue[i]
                        self.coalesced += 1
                        break
            self._queue.append(payload)
        self._wake.set()

    def _pump(self) -> None:
        while True:
            self._wake.wait()
            with self._lock:
                if self._queue:
                    payload = self._queue.popleft()
                elif self._closed:
                    payload = END_OF_STREAM
                else:
                    self._wake.clear()
                    continue
            if not self._broken:
                try:
                    self._conn.send(payload)
                    self.sent += 1
                except (BrokenPipeError, OSError, ValueError):
                    self._broken = True
            if payload is END_OF_STREAM:
                return

    def close(self, timeout: float = 5.0) -> None:
        """Flush the buffer, send :data:`END_OF_STREAM`, stop the pump,
        and close the worker's pipe end."""
        with self._lock:
            self._closed = True
        self._wake.set()
        self._thread.join(timeout=timeout)
        try:
            self._conn.close()
        except OSError:
            pass


class ProgressLog:
    """Server-side, bounded, seq-ordered event log for one run.

    Appends come from the queue's reader thread; reads come from any
    number of HTTP handler threads.  ``since(seq)`` returns events with
    ``seq > seq`` (delta polling); ``wait_for(seq)`` blocks until a
    newer event arrives or the log closes (SSE streaming).  The log
    closes when the run reaches a terminal state — after the reader
    drained the pipe — so a stream sees every event before its ``end``.
    """

    def __init__(self, bound: int = LOG_BOUND) -> None:
        self._events: List[Dict[str, object]] = []
        self._bound = bound
        self._cond = threading.Condition()
        self.closed = False
        #: Events discarded by the bound (0 in any sane run).
        self.dropped = 0

    def append(self, event: Dict[str, object]) -> None:
        with self._cond:
            if len(self._events) >= self._bound:
                self._events.pop(0)
                self.dropped += 1
            self._events.append(event)
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._events)

    @property
    def last_seq(self) -> int:
        """The newest event's seq (-1 when empty)."""
        with self._cond:
            if not self._events:
                return -1
            return int(self._events[-1]["seq"])  # type: ignore[arg-type]

    def last(self) -> Optional[Dict[str, object]]:
        """The newest event (None when empty) — the gauge snapshot."""
        with self._cond:
            return self._events[-1] if self._events else None

    def since(self, seq: int) -> Tuple[List[Dict[str, object]], bool]:
        """``(events with seq > seq, closed)`` — the delta-poll read."""
        with self._cond:
            out = [e for e in self._events
                   if int(e["seq"]) > seq]  # type: ignore[arg-type]
            return out, self.closed

    def wait_for(
        self, seq: int, timeout: float = 10.0
    ) -> Tuple[List[Dict[str, object]], bool]:
        """Like :meth:`since`, but blocks up to ``timeout`` for news.

        Returns as soon as an event newer than ``seq`` exists or the
        log closes; on timeout returns ``([], closed)``.
        """
        deadline = None
        with self._cond:
            while True:
                out = [e for e in self._events
                       if int(e["seq"]) > seq]  # type: ignore[arg-type]
                if out or self.closed:
                    return out, self.closed
                if deadline is None:
                    import time as _time
                    deadline = _time.monotonic() + timeout
                    remaining = timeout
                else:
                    import time as _time
                    remaining = deadline - _time.monotonic()
                if remaining <= 0:
                    return [], self.closed
                self._cond.wait(remaining)


def sse_format(event: Dict[str, object]) -> bytes:
    """One event as an SSE frame: id carries the deterministic seq."""
    data = json.dumps(event, sort_keys=True)
    return (
        f"id: {event.get('seq', 0)}\n"
        f"event: {event.get('kind', 'tick')}\n"
        f"data: {data}\n\n"
    ).encode("utf-8")


def sse_end_frame() -> bytes:
    """The terminal frame a finished stream sends before EOF.

    Deliberately ``eof``, not ``end``: ``end`` is a ProgressEvent
    *kind* (the run's final snapshot, which is real data), while this
    sentinel only means "the log is closed, no more frames follow".
    """
    return b"event: eof\ndata: {}\n\n"


def parse_sse_stream(chunks) -> "Tuple[List[Dict[str, object]], bool]":
    """Parse SSE bytes into ``(events, saw_end)`` — the client half,
    used by ``repro top`` and the tests.  ``chunks`` is an iterable of
    byte strings (e.g. a streaming response read in pieces)."""
    events: List[Dict[str, object]] = []
    saw_end = False
    buffer = b""
    for chunk in chunks:
        buffer += chunk
        while b"\n\n" in buffer:
            frame, buffer = buffer.split(b"\n\n", 1)
            kind, data = None, None
            for line in frame.split(b"\n"):
                if line.startswith(b"event:"):
                    kind = line[6:].strip().decode()
                elif line.startswith(b"data:"):
                    data = line[5:].strip()
            if kind == "eof":
                saw_end = True
            elif data:
                try:
                    events.append(json.loads(data))
                except json.JSONDecodeError:
                    pass
    return events, saw_end


def iter_sse_events(response, timeout_events: Optional[int] = None):
    """Yield parsed event dicts from a live SSE HTTP response as they
    arrive; stops at the ``end`` frame, EOF, or after
    ``timeout_events`` events.  The streaming client primitive behind
    ``repro top``."""
    buffer = b""
    yielded = 0
    while True:
        chunk = response.read1(65536) if hasattr(response, "read1") \
            else response.read(65536)
        if not chunk:
            return
        buffer += chunk
        while b"\n\n" in buffer:
            frame, buffer = buffer.split(b"\n\n", 1)
            kind, data = None, None
            for line in frame.split(b"\n"):
                if line.startswith(b"event:"):
                    kind = line[6:].strip().decode()
                elif line.startswith(b"data:"):
                    data = line[5:].strip()
            if kind == "eof":
                return
            if data:
                try:
                    yield json.loads(data)
                except json.JSONDecodeError:
                    continue
                yielded += 1
                if timeout_events is not None and yielded >= timeout_events:
                    return
