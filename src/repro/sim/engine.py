"""The discrete-event simulation core.

This is a calendar + generator-process kernel, written from scratch for
this reproduction (the project depends only on numpy).  The
design mirrors the well-known process-interaction style:

* :class:`Engine` owns the clock and the pending-event calendar.
* :class:`Event` is a one-shot occurrence that processes can wait on.
* :class:`Process` wraps a Python generator; every value the generator
  yields must be an :class:`Event`, and the process resumes when that
  event fires (receiving the event's value, or having the event's
  exception thrown into it).
* :class:`AnyOf` waits on the first of several events.

Pending work lives in two structures:

* an **urgent FIFO** of triggered events (``succeed``/``fail``,
  interrupts, process initialisation) — these are always scheduled for
  the *current* instant, so a plain deque preserves both time order and
  insertion order with no keys at all;
* one **heap** of ``(time, seq, event)`` for scheduled occurrences
  (timeouts), where ``seq`` is a creation counter that breaks
  same-instant ties in insertion order.

:meth:`Engine.step` is the only dispatch path: :meth:`Engine.run` is a
loop over it.

Determinism: urgent entries fire before timed entries at the same
instant, and each lane preserves insertion order, which is the classic
``(time, priority, insertion-seq)`` heap order — so repeated runs with
the same seeds are bit-identical.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import (
    Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple,
)

PENDING = object()


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class SimulationError(RuntimeError):
    """An unhandled failure escaped a process and reached the engine."""


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when
    :meth:`succeed`/:meth:`fail` is called (its callbacks are then
    scheduled to run at the current instant), and is *processed* once the
    callbacks have run.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_processed", "_defused")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._processed = False
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if self._value is PENDING:
            raise RuntimeError("event value not yet available")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        engine = self.engine
        engine._urgent.append((engine._now, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        engine = self.engine
        engine._urgent.append((engine._now, self))
        return self

    # -- internals ----------------------------------------------------------
    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        for callback in callbacks or ():
            callback(self)
        if self._ok is False and not self._defused:
            raise SimulationError(
                f"unhandled failure in {self!r}: {self._value!r}"
            ) from self._value

    def __repr__(self) -> str:
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` sim-seconds.

    This is the kernel's dominant allocation (every sleep, queue poll,
    and monitoring tick is one), so construction skips the
    ``super().__init__`` chain; the timeout goes straight onto the
    engine's timed heap.  The delay must be a non-negative number
    (``inf`` is allowed; NaN is not).
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._defused = False
        self.delay = delay
        heappush(engine._timed, (engine._now + delay, next(engine._seq), self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Internal: kicks a freshly created process on the next step."""

    __slots__ = ()

    def __init__(self, engine: "Engine", process: "Process") -> None:
        self.engine = engine
        self.callbacks = [process]
        self._value = None
        self._ok = True
        self._processed = False
        self._defused = False
        engine._urgent.append((engine._now, self))


class Process(Event):
    """A running generator.  The event fires when the generator finishes.

    The generator's ``return`` value becomes the event's value; an
    uncaught exception becomes the event's failure.
    """

    __slots__ = ("generator", "name", "_target", "_gen_send", "_gen_throw")

    def __init__(self, engine: "Engine", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Parking appends the process itself to an event's callback
        # list (it is callable, below); _resume drives the generator
        # through these prebound send/throw.
        self._gen_send = generator.send
        self._gen_throw = generator.throw
        self._target: Optional[Event] = Initialize(engine, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a dead process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt dead process {self.name!r}")
        if self._target is self:
            raise RuntimeError("a process cannot interrupt itself synchronously")
        interrupt_event = Event(self.engine)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self)
        engine = self.engine
        engine._urgent.append((engine._now, interrupt_event))

    def _resume(self, event: Event) -> None:
        if self._value is not PENDING:
            # An interrupt raced with normal completion at the same
            # instant; the process already finished, nothing to deliver.
            return
        # Detach from the event we were waiting on (relevant for
        # interrupts, which bypass the waited-on event).
        target = self._target
        if target is not None and target is not event and target.callbacks is not None:
            try:
                target.callbacks.remove(self)
            except ValueError:
                pass
        self._target = None
        engine = self.engine
        engine._active_process = self
        send = self._gen_send
        throw = self._gen_throw
        try:
            while True:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = throw(event._value)
                if next_event.__class__ is not Timeout and not isinstance(
                    next_event, Event
                ):
                    raise TypeError(
                        f"process {self.name!r} yielded non-event {next_event!r}"
                    )
                callbacks = next_event.callbacks
                if callbacks is not None:
                    # Event still pending or triggered-but-unprocessed:
                    # park until it fires.
                    callbacks.append(self)
                    self._target = next_event
                    break
                # Event already processed: feed its outcome straight back
                # into the generator on this same stack frame.
                event = next_event
        except StopIteration as stop:
            self.succeed(stop.value)
        except BaseException as exc:  # noqa: BLE001 - becomes the failure value
            self.fail(exc)
        finally:
            engine._active_process = None

    #: Parked processes sit directly in event callback lists; the
    #: generic dispatch path simply calls them.
    __call__ = _resume

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else ("ok" if self._ok else "failed")
        return f"<Process {self.name!r} {state}>"


class AnyOf(Event):
    """Fires when the *first* component event triggers (success or failure
    mirrored).  With no components it fires at once with value ``{}``."""

    __slots__ = ("events",)

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self.events = list(events)
        for ev in self.events:
            if ev.engine is not engine:
                raise ValueError("cannot mix events from different engines")
        if not self.events:
            self._ok = True
            self._value = {}
            engine._urgent.append((engine._now, self))
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if event._ok:
            self.succeed(event)
        else:
            event._defused = True
            self.fail(event._value)


class Engine:
    """The simulation engine: clock, urgent FIFO, and timed heap.

    Every urgent entry is scheduled for the instant it was pushed, so
    the deque is monotone in time and always due no later than the
    heap's head.
    """

    # Slots for the per-event-hot attributes; __dict__ stays so
    # instrumentation can replace step() on the instance (the Tracer).
    __slots__ = (
        "_now", "_urgent", "_timed", "_seq", "_active_process",
        "__dict__", "__weakref__",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._urgent: Deque[Tuple[float, Event]] = deque()
        self._timed: List[Tuple[float, int, Event]] = []
        self._seq = count()
        self._active_process: Optional[Process] = None
        #: Lifetime count of dispatched events, one per successful
        #: step().  The scale benchmarks divide this by wall time for
        #: events/s.
        self.dispatched = 0

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds since the epoch."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event factories ------------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name)

    # -- execution --------------------------------------------------------------
    def step(self) -> bool:
        """Process one event.  Returns False if nothing is pending.

        The urgent FIFO goes first (always due at the current instant),
        then the earliest timed entry.
        """
        if self._urgent:
            time, event = self._urgent.popleft()
        elif self._timed:
            time, _seq, event = heappop(self._timed)
            if time < self._now:
                raise SimulationError("event scheduled in the past")
        else:
            return False
        self._now = time
        self.dispatched += 1
        event._process()
        return True

    def peek(self) -> float:
        """Time of the next pending event, or ``float('inf')``."""
        if self._urgent:
            return self._urgent[0][0]
        if self._timed:
            return self._timed[0][0]
        return float("inf")

    def peek_event(self) -> Optional[Event]:
        """The next event :meth:`step` would dispatch, or ``None``.

        Used by instrumentation (e.g. the Tracer) that wants to
        describe the upcoming event before it runs.
        """
        if self._urgent:
            return self._urgent[0][1]
        if self._timed:
            return self._timed[0][2]
        return None

    def run(self, until: Optional[float] = None) -> None:
        """Run until nothing is pending or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly that
        time even if no event falls on it.  Every event goes through
        :meth:`step`, so instrumentation that replaces ``step`` on the
        instance (e.g. the Tracer) sees every dispatch.
        """
        if until is None:
            while self.step():
                pass
            return
        if until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        while self.peek() <= until and self.step():
            pass
        self._now = max(self._now, until)

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: run a single process to completion, return its value."""
        proc = self.process(generator, name)
        while proc.is_alive:
            if not self.step():
                raise SimulationError(
                    f"deadlock: process {proc.name!r} never finished"
                )
        if not proc.ok:
            raise proc.value
        return proc.value
