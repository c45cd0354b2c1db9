"""The bounded job queue and its out-of-process worker pool.

Submissions land in a bounded pending list; ``workers`` dispatcher
threads pull from it and run each simulation **out of process** on a
:class:`~concurrent.futures.ProcessPoolExecutor` (the same fan-out
substrate the lab's :func:`~repro.lab.run_experiment` uses — a Grid3
run is CPU-bound, so it must not share the server's GIL).  Only plain
data crosses the boundary: the picklable :class:`~repro.Grid3Config`
goes out, the JSON-able report payload comes back.

Dispatch order is pluggable: with an
:class:`~repro.service.admission.AdmissionPolicy` the next run is the
fair-share pick (lane first, then the least-recently-greedy client);
without one, strict FIFO — byte-for-byte the pre-admission behaviour.

The queue enforces the service's backpressure contract: when
``depth`` submissions are already queued or running, further submits
raise :class:`QueueFullError` (the app maps it to 429) instead of
buffering without bound.  ``shutdown(drain=True)`` stops intake, lets
every queued run finish, then tears the pool down.  Runs still queued
when the drain window closes are **not dropped**: each is handed to
``on_interrupted`` so the (now durable) registry records it as
``interrupted`` and a restart can resubmit it.

A worker process that dies (:class:`BrokenProcessPool`) fails only the
run it was executing: the queue replaces the broken pool with a fresh
one from ``pool_factory``, so later runs execute normally.
"""

from __future__ import annotations

import inspect
import multiprocessing as _mp
import threading
import traceback
from concurrent.futures import Executor, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional

from ..core.grid3 import Grid3, Grid3Config
from ..errors import GridError
from .progress import END_OF_STREAM, ProgressSender
from .reports import collect_reports, summarize_run
from .store import RunRecord


class QueueFullError(GridError):
    """The bounded queue is at depth; the submission was rejected."""


def execute_run(config: Grid3Config, progress=None) -> Dict[str, object]:
    """Worker body: one full simulation -> its servable payload.

    Module-level (and taking only picklable arguments) so it crosses
    the process boundary; runs in a pool worker, never in the server
    process.  ``progress``, when given, is the write end of a
    multiprocessing pipe: the run streams
    :class:`~repro.monitoring.progress.ProgressEvent` dicts through a
    non-blocking coalescing :class:`ProgressSender`, so a slow (or
    absent) reader never stalls the simulation.

    The payload also carries ``metrics_text`` — the grid's full
    Prometheus exposition rendered here, in the worker, so the server
    can serve a finished run's metrics without ever holding the grid.
    """
    from ..monitoring.prometheus import grid_exposition

    sender = ProgressSender(progress) if progress is not None else None
    last: Dict[str, object] = {}

    def emit(event) -> None:
        payload = event.as_dict()
        last.clear()
        last.update(payload)
        sender.emit(payload)  # type: ignore[union-attr]

    try:
        grid = Grid3(config)
        grid.run_full(progress=emit if sender is not None else None)
        return {
            "reports": collect_reports(grid),
            "summary": summarize_run(grid),
            "metrics_text": grid_exposition(grid, progress=last or None),
        }
    finally:
        if sender is not None:
            sender.close()


def _accepts_progress(runner: Callable) -> bool:
    """Can ``runner`` take a second (progress) argument?

    Decided per call via the signature, because tests inject one-arg
    runners (and swap them in after construction); those keep the plain
    single-argument submit path.
    """
    try:
        parameters = inspect.signature(runner).parameters
    except (TypeError, ValueError):
        return False
    positional = [
        p for p in parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    if any(p.kind == p.VAR_POSITIONAL for p in parameters.values()):
        return True
    return len(positional) >= 2 or "progress" in parameters


class JobQueue:
    """Bounded pending list + dispatcher threads + process worker pool."""

    def __init__(
        self,
        workers: int = 2,
        depth: int = 64,
        runner: Callable[[Grid3Config], Dict[str, object]] = execute_run,
        pool_factory: Optional[Callable[[int], Executor]] = None,
        on_start: Optional[Callable[[RunRecord], None]] = None,
        on_done: Optional[Callable[[RunRecord, Dict[str, object]], None]] = None,
        on_error: Optional[Callable[[RunRecord, str], None]] = None,
        on_interrupted: Optional[Callable[[RunRecord], None]] = None,
        admission=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.workers = workers
        self.max_depth = depth
        self._runner = runner
        self._on_start = on_start
        self._on_done = on_done
        self._on_error = on_error
        self._on_interrupted = on_interrupted
        #: The dispatch-order policy (None = FIFO).
        self.admission = admission
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: Submission-ordered runs awaiting a dispatcher.
        self._queue: List[RunRecord] = []
        self._stop = threading.Event()
        self._accepting = True
        self._pending = 0     # queued + running
        self._busy = 0        # dispatcher threads mid-run
        #: Simulations actually executed (the dedup proof: duplicates
        #: never increment this).
        self.executed = 0
        self.failed = 0
        #: Submissions bounced by the depth bound.
        self.rejected = 0
        if pool_factory is None:
            pool_factory = lambda n: ProcessPoolExecutor(max_workers=n)  # noqa: E731
        self._pool_factory = pool_factory
        self._pool: Executor = pool_factory(workers)
        self._threads = [
            threading.Thread(target=self._loop, name=f"svc-dispatch-{i}",
                             daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- intake ---------------------------------------------------------------
    def submit(self, record: RunRecord) -> None:
        """Enqueue one run; raises :class:`QueueFullError` at the bound."""
        with self._cond:
            if not self._accepting:
                raise QueueFullError("service is shutting down")
            if self._pending >= self.max_depth:
                self.rejected += 1
                raise QueueFullError(
                    f"job queue is full ({self.max_depth} runs queued or "
                    f"running); retry later"
                )
            self._pending += 1
            self._queue.append(record)
            self._cond.notify()

    def pending_records(self) -> List[RunRecord]:
        """Snapshot of runs queued but not yet dispatched (submission
        order) — the admission metrics read this."""
        with self._lock:
            return list(self._queue)

    # -- dispatch -------------------------------------------------------------
    def _take(self) -> Optional[RunRecord]:
        """Block for the next record per the admission order (None on
        stop)."""
        with self._cond:
            while not self._queue:
                if self._stop.is_set():
                    return None
                self._cond.wait(timeout=0.1)
            if self._stop.is_set():
                return None  # leave leftovers for shutdown's interrupt pass
            if self.admission is not None:
                record = self.admission.select(self._queue)
                if record is None:  # defensive: policy declined
                    record = self._queue[0]
                self._queue.remove(record)
            else:
                record = self._queue.pop(0)
            return record

    def _loop(self) -> None:
        while not self._stop.is_set():
            record = self._take()
            if record is None:
                continue
            try:
                self._run_one(record)
            finally:
                with self._lock:
                    self._pending -= 1

    def _run_one(self, record: RunRecord) -> None:
        with self._lock:
            self._busy += 1
            pool = self._pool
        wconn = None
        reader: Optional[threading.Thread] = None
        try:
            if self._on_start is not None:
                self._on_start(record)
            log = getattr(record, "progress", None)
            if log is not None and _accepts_progress(self._runner):
                # One pipe per run: the worker's ProgressSender writes,
                # this reader thread pumps events into the record's log
                # until the sender's END_OF_STREAM.  Connection objects
                # cross ProcessPoolExecutor's submit boundary via fd
                # duplication (ForkingPickler).
                rconn, wconn = _mp.Pipe(duplex=False)
                reader = threading.Thread(
                    target=self._pump_progress, args=(rconn, log),
                    name=f"progress-{record.run_id}", daemon=True,
                )
                reader.start()
                future = pool.submit(self._runner, record.config, wconn)
            else:
                future = pool.submit(self._runner, record.config)
            payload = future.result()
            if reader is not None:
                reader.join(timeout=10.0)
            with self._lock:
                self.executed += 1
            if self._on_done is not None:
                self._on_done(record, payload)
        except Exception as exc:  # noqa: BLE001 - surfaced on the record
            with self._lock:
                self.executed += 1
                self.failed += 1
                if isinstance(exc, BrokenProcessPool) and self._pool is pool:
                    # A worker died; every later submit to this pool
                    # would fail too, so replace it.
                    pool.shutdown(wait=False, cancel_futures=True)
                    self._pool = self._pool_factory(self.workers)
            detail = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            if self._on_error is not None:
                self._on_error(record, detail)
        finally:
            if wconn is not None:
                if reader.is_alive():
                    # The run ended without its sender's END_OF_STREAM
                    # (it failed, or its worker died): end it here.
                    try:
                        wconn.send(END_OF_STREAM)
                    except OSError:
                        pass
                wconn.close()
                reader.join(timeout=5.0)
            with self._lock:
                self._busy -= 1

    @staticmethod
    def _pump_progress(rconn, log) -> None:
        """Reader-thread body: drain the pipe into the run's log until
        END_OF_STREAM (or EOF)."""
        try:
            while True:
                try:
                    event = rconn.recv()
                except (EOFError, OSError):
                    return
                if event == END_OF_STREAM:
                    return
                if isinstance(event, dict):
                    log.append(event)
        finally:
            try:
                rconn.close()
            except OSError:
                pass

    # -- observability --------------------------------------------------------
    @property
    def depth(self) -> int:
        """Runs queued or running right now."""
        with self._lock:
            return self._pending

    @property
    def busy(self) -> int:
        """Dispatcher threads currently driving a simulation."""
        with self._lock:
            return self._busy

    def utilization(self) -> float:
        """Busy workers as a fraction of the pool."""
        return self.busy / float(self.workers)

    def stats(self) -> Dict[str, float]:
        """The ``service.queue.*`` / ``service.workers.*`` snapshot."""
        with self._lock:
            return {
                "depth": self._pending,
                "max_depth": self.max_depth,
                "busy": self._busy,
                "workers": self.workers,
                "utilization": self._busy / float(self.workers),
                "executed": self.executed,
                "failed": self.failed,
                "rejected": self.rejected,
            }

    # -- lifecycle ------------------------------------------------------------
    def drain(self, timeout: float = 300.0) -> bool:
        """Block until everything queued or running has finished.

        Returns False if ``timeout`` elapsed first.
        """
        deadline = threading.Event()
        waited = 0.0
        step = 0.05
        while waited < timeout:
            with self._lock:
                if self._pending == 0 and self._busy == 0:
                    return True
            deadline.wait(step)
            waited += step
        with self._lock:
            return self._pending == 0 and self._busy == 0

    def shutdown(self, drain: bool = True, timeout: float = 300.0) -> bool:
        """Stop intake, optionally drain, stop threads, kill the pool.

        Runs still *queued* (never dispatched) when the window closes
        are handed to ``on_interrupted`` — with a durable registry that
        persists them as resubmittable instead of dropping them.
        Returns True if every accepted run completed before teardown.
        """
        with self._cond:
            self._accepting = False
        drained = self.drain(timeout) if drain else False
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
        # Persist (don't drop) whatever never got dispatched.
        with self._cond:
            leftovers = list(self._queue)
            self._queue.clear()
            self._pending -= len(leftovers)
        for record in leftovers:
            if self._on_interrupted is not None:
                self._on_interrupted(record)
        self._pool.shutdown(wait=False, cancel_futures=True)
        return drained and not leftovers
