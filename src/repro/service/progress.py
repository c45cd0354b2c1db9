"""The progress transport: worker pipe sender, server-side log, SSE.

Three pieces move a :class:`~repro.monitoring.progress.ProgressEvent`
from a simulation running in a worker *process* to an HTTP client:

* :class:`ProgressSender` lives in the worker.  ``emit()`` sends each
  event straight down the multiprocessing pipe.  A run emits
  ``DEFAULT_SLICES + 3`` events of about 200 pickled bytes each, far
  below the pipe buffer, and the queue's reader thread drains the pipe
  as they arrive, so a send does not block the simulation.
  ``close()`` ends the stream with :data:`END_OF_STREAM`, which is how
  the server's reader knows the run is over: pipe EOF never arrives
  while another forked process (e.g. a pool worker) still holds a copy
  of the write end.
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
import time
from typing import Dict, List, Optional, Tuple

#: Server-side retained events per run.  4096 far exceeds the default
#: 32-slice emission (~35 events); the bound is a safety net against a
#: pathological emitter, not a working limit.
LOG_BOUND = 4096
#: The last message on every progress pipe: no events follow it.
END_OF_STREAM = "end-of-stream"


class ProgressSender:
    """Worker-side pipe writer.

    ``emit`` sends one event dict synchronously.  A broken pipe (the
    parent died) silences the sender rather than killing the
    simulation.
    """

    def __init__(self, conn) -> None:
        self._conn = conn
        self._broken = False

    def emit(self, payload) -> None:
        """Send one event dict; never raises into the simulation."""
        if self._broken:
            return
        try:
            self._conn.send(payload)
        except (OSError, ValueError):
            self._broken = True

    def close(self) -> None:
        """Send :data:`END_OF_STREAM` and close the worker's pipe end."""
        self.emit(END_OF_STREAM)
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
                    deadline = time.monotonic() + timeout
                    remaining = timeout
                else:
                    remaining = deadline - time.monotonic()
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


def _sse_events(chunks):
    """The SSE frame parser: yield each frame's event dict from an
    iterable of byte strings, then ``None`` for the ``eof`` frame (and
    stop there).  Frames without a parsable dict (keepalive comments)
    yield nothing."""
    buffer = b""
    for chunk in chunks:
        buffer += chunk
        while b"\n\n" in buffer:
            frame, buffer = buffer.split(b"\n\n", 1)
            kind, data = None, None
            for line in frame.split(b"\n"):
                if line.startswith(b"event:"):
                    kind = line[6:].strip()
                elif line.startswith(b"data:"):
                    data = line[5:].strip()
            if kind == b"eof":
                yield None
                return
            if data:
                try:
                    event = json.loads(data)
                except json.JSONDecodeError:
                    continue
                if isinstance(event, dict):
                    yield event


def parse_sse_stream(chunks) -> "Tuple[List[Dict[str, object]], bool]":
    """Parse a whole SSE byte stream into ``(events, saw_end)``.
    ``chunks`` is an iterable of byte strings (e.g. a streaming
    response read in pieces)."""
    events = list(_sse_events(chunks))
    saw_end = bool(events) and events[-1] is None
    if saw_end:
        events.pop()
    return events, saw_end


def iter_sse_events(response):
    """Yield parsed event dicts from a live SSE HTTP response as they
    arrive; stops at the ``eof`` frame or at EOF.  The streaming client
    primitive behind ``repro top``."""
    read = getattr(response, "read1", response.read)
    for event in _sse_events(iter(lambda: read(65536), b"")):
        if event is None:
            return
        yield event
