"""JobQueue dispatch, backpressure, failure accounting, and drain."""

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Grid3Config
from repro.service import JobQueue, QueueFullError
from repro.service.progress import ProgressSender
from repro.service.store import RunStore


def make_queue(runner, workers=1, depth=4, **hooks):
    """An in-process queue (thread pool) so tests stay fast and hermetic."""
    return JobQueue(
        workers=workers, depth=depth, runner=runner,
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        **hooks,
    )


def test_queue_runs_jobs_and_fires_hooks():
    store = RunStore()
    done = []
    queue = make_queue(
        lambda config: {"seed": config.seed},
        on_start=store.mark_running,
        on_done=lambda record, payload: done.append((record.run_id, payload)),
    )
    try:
        record = store.create("d1", Grid3Config(seed=9))
        queue.submit(record)
        assert queue.drain(timeout=10.0)
        assert done == [(1, {"seed": 9})]
        assert record.started_at is not None
        assert queue.stats()["executed"] == 1
        assert queue.stats()["failed"] == 0
    finally:
        queue.shutdown()


def test_queue_failure_path_surfaces_error():
    store = RunStore()
    errors = []

    def boom(config):
        raise RuntimeError("sim exploded")

    queue = make_queue(
        boom, on_error=lambda record, detail: errors.append(detail),
    )
    try:
        queue.submit(store.create("d1", Grid3Config()))
        assert queue.drain(timeout=10.0)
        assert errors and "sim exploded" in errors[0]
        stats = queue.stats()
        # Failures still count as executions (the dedup-proof metric is
        # "simulations attempted", not "simulations that succeeded").
        assert stats["executed"] == 1 and stats["failed"] == 1
    finally:
        queue.shutdown()


def test_queue_depth_bound_rejects_with_queue_full():
    store = RunStore()
    release = threading.Event()
    queue = make_queue(lambda config: release.wait(10.0), workers=1, depth=2)
    try:
        queue.submit(store.create("d1", Grid3Config(seed=1)))
        queue.submit(store.create("d2", Grid3Config(seed=2)))
        with pytest.raises(QueueFullError, match="full"):
            queue.submit(store.create("d3", Grid3Config(seed=3)))
        assert queue.stats()["rejected"] == 1
        assert queue.depth == 2
    finally:
        release.set()
        queue.shutdown()


def test_queue_shutdown_drains_accepted_work():
    store = RunStore()
    finished = []
    gate = threading.Event()

    def slow(config):
        gate.wait(10.0)
        finished.append(config.seed)
        return {}

    queue = make_queue(slow, workers=1, depth=4)
    queue.submit(store.create("d1", Grid3Config(seed=1)))
    queue.submit(store.create("d2", Grid3Config(seed=2)))
    gate.set()
    assert queue.shutdown(drain=True, timeout=10.0)
    assert sorted(finished) == [1, 2]
    # Intake is closed after shutdown.
    with pytest.raises(QueueFullError, match="shutting down"):
        queue.submit(store.create("d3", Grid3Config(seed=3)))


def test_queue_utilization_reflects_busy_workers():
    release = threading.Event()
    started = threading.Event()

    def hold(config):
        started.set()
        release.wait(10.0)
        return {}

    store = RunStore()
    queue = make_queue(hold, workers=2, depth=4)
    try:
        queue.submit(store.create("d1", Grid3Config()))
        assert started.wait(5.0)
        assert queue.busy == 1
        assert queue.utilization() == pytest.approx(0.5)
    finally:
        release.set()
        queue.shutdown()


def test_queue_validates_construction():
    with pytest.raises(ValueError):
        make_queue(lambda c: {}, workers=0)
    with pytest.raises(ValueError):
        make_queue(lambda c: {}, depth=0)


# -- out-of-process workers ---------------------------------------------------
# Module-level runners, so they cross the process-pool boundary.

def _streaming_runner(config, progress):
    """Streams two events, then exits the worker for ``seed=13``."""
    sender = ProgressSender(progress)
    sender.emit({"seq": 0, "kind": "phase", "phase": "sim"})
    sender.emit({"seq": 1, "kind": "tick", "phase": "sim"})
    if config.seed == 13:
        os._exit(1)
    sender.close()
    return {"seed": config.seed}


def _process_queue(store):
    return JobQueue(
        workers=1, depth=4, runner=_streaming_runner,
        on_start=store.mark_running,
        on_done=lambda record, payload: store.mark_done(record, payload, 0),
        on_error=store.mark_failed,
    )


def test_first_run_on_fresh_process_queue_does_not_wait_for_pipe_eof():
    """The worker forked by the first submit inherits that run's pipe,
    so EOF never reaches the progress reader; the sender's end-of-stream
    message must end the run, well inside the reader's 10 s / 5 s join
    timeouts."""
    store = RunStore()
    queue = _process_queue(store)
    try:
        record = store.create("d1", Grid3Config(seed=5))
        start = time.monotonic()
        queue.submit(record)
        assert record.progress.wait_for(1, timeout=30.0)[1]  # log closed
        assert time.monotonic() - start < 3.0
        assert record.state == "done"
        assert [e["seq"] for e in record.progress.since(-1)[0]] == [0, 1]
    finally:
        queue.shutdown()


def test_dead_worker_fails_only_its_run_and_the_pool_is_rebuilt():
    store = RunStore()
    queue = _process_queue(store)
    try:
        doomed = store.create("d1", Grid3Config(seed=13))
        queue.submit(doomed)
        assert queue.drain(timeout=30.0)
        assert doomed.state == "failed"
        assert "BrokenProcessPool" in doomed.error
        survivor = store.create("d2", Grid3Config(seed=2))
        queue.submit(survivor)
        assert queue.drain(timeout=30.0)
        assert survivor.state == "done"
        assert survivor.payload == {"seed": 2}
        stats = queue.stats()
        assert stats["executed"] == 2 and stats["failed"] == 1
    finally:
        queue.shutdown()
