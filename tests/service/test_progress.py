"""Unit tests for the progress transport: sender, log, SSE framing."""

import threading
import time

import pytest

from repro.monitoring.progress import (
    ProgressMeter,
    render_progress_line,
    slice_times,
)
from repro.service.progress import (
    END_OF_STREAM,
    ProgressLog,
    ProgressSender,
    parse_sse_stream,
    sse_end_frame,
    sse_format,
)


def tick(seq, kind="tick"):
    return {"seq": seq, "kind": kind, "phase": "sim", "frac": seq / 10.0}


# -- slice_times ------------------------------------------------------------

def test_slice_times_end_exactly_on_duration():
    horizons = slice_times(86400.0, 32)
    assert len(horizons) == 32
    assert horizons[-1] == 86400.0
    assert horizons == sorted(horizons)
    with pytest.raises(ValueError):
        slice_times(10.0, 0)


def test_render_progress_line_is_wire_data_driven():
    line = render_progress_line(
        {"frac": 0.5, "phase": "sim", "sim_time": 43200.0, "events": 1234,
         "jobs_submitted": 10, "jobs_completed": 7, "jobs_failed": 1,
         "tickets_open": 2})
    assert "50%" in line and "sim" in line and "1,234" in line
    # Partial dicts (old servers, keepalives) render without raising.
    assert render_progress_line({})


# -- ProgressSender ---------------------------------------------------------

class _SlowConn:
    """A pipe write end whose reader never drains fast."""

    def __init__(self, delay=0.0):
        self.sent = []
        self.delay = delay
        self.closed = False

    def send(self, payload):
        if self.delay:
            time.sleep(self.delay)
        self.sent.append(payload)

    def close(self):
        self.closed = True


class _BrokenConn(_SlowConn):
    def send(self, payload):
        raise BrokenPipeError("reader is gone")


def test_sender_delivers_in_order_and_closes_conn():
    conn = _SlowConn()
    sender = ProgressSender(conn)
    for i in range(20):
        sender.emit(tick(i))
    sender.close()
    # The stream ends with exactly one END_OF_STREAM, after every event.
    *events, last = conn.sent
    assert last == END_OF_STREAM
    assert [e["seq"] for e in events] == list(range(20))
    assert conn.closed and sender.coalesced == 0


def test_sender_coalesces_ticks_under_slow_reader():
    conn = _SlowConn(delay=0.02)
    sender = ProgressSender(conn, buffer=4)
    sender.emit(tick(0, kind="phase"))
    for i in range(1, 40):
        sender.emit(tick(i))
    sender.emit(tick(40, kind="end"))
    sender.close(timeout=10.0)
    *events, last = conn.sent
    assert last == END_OF_STREAM
    seqs = [e["seq"] for e in events]
    # Some ticks were superseded, none reordered, lifecycle survived.
    assert sender.coalesced > 0
    assert seqs == sorted(seqs)
    assert events[0]["kind"] == "phase"
    assert events[-1]["kind"] == "end"
    assert len(events) == 41 - sender.coalesced


def test_sender_emit_never_blocks_on_slow_reader():
    conn = _SlowConn(delay=0.05)
    sender = ProgressSender(conn, buffer=2)
    start = time.monotonic()
    for i in range(100):
        sender.emit(tick(i))
    elapsed = time.monotonic() - start
    sender.close(timeout=10.0)
    # 100 emits against a reader that takes 5s to drain 100 events:
    # emit() must have returned immediately every time.
    assert elapsed < 0.5


def test_sender_survives_broken_pipe():
    conn = _BrokenConn()
    sender = ProgressSender(conn)
    for i in range(5):
        sender.emit(tick(i))
    sender.close()  # must not raise
    assert conn.closed


# -- ProgressLog ------------------------------------------------------------

def test_log_since_and_last_seq():
    log = ProgressLog()
    assert log.last_seq == -1 and log.last() is None
    for i in range(5):
        log.append(tick(i))
    events, closed = log.since(1)
    assert [e["seq"] for e in events] == [2, 3, 4]
    assert not closed
    assert log.last_seq == 4 and log.last()["seq"] == 4
    log.close()
    assert log.since(10) == ([], True)


def test_log_wait_for_blocks_until_news_or_close():
    log = ProgressLog()
    got = {}

    def consumer():
        got["events"], got["closed"] = log.wait_for(-1, timeout=10.0)

    thread = threading.Thread(target=consumer)
    thread.start()
    time.sleep(0.05)
    log.append(tick(0))
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert [e["seq"] for e in got["events"]] == [0]

    # A waiter past the end wakes on close with no events.
    def tail_consumer():
        got["tail"] = log.wait_for(0, timeout=10.0)

    thread = threading.Thread(target=tail_consumer)
    thread.start()
    time.sleep(0.05)
    log.close()
    thread.join(timeout=5.0)
    assert got["tail"] == ([], True)


def test_log_bound_drops_oldest():
    log = ProgressLog(bound=3)
    for i in range(5):
        log.append(tick(i))
    events, _ = log.since(-1)
    assert [e["seq"] for e in events] == [2, 3, 4]
    assert log.dropped == 2


# -- SSE framing ------------------------------------------------------------

def test_sse_round_trip():
    frames = b"".join(
        [sse_format(tick(i)) for i in range(3)] + [sse_end_frame()]
    )
    # id: carries the seq for Last-Event-ID reconnects.
    assert b"id: 2\n" in frames
    events, saw_end = parse_sse_stream([frames[:17], frames[17:]])
    assert [e["seq"] for e in events] == [0, 1, 2]
    assert saw_end


def test_parse_sse_ignores_keepalive_comments():
    chunks = [sse_format(tick(0)), b": keepalive\n\n", sse_end_frame()]
    events, saw_end = parse_sse_stream(chunks)
    assert len(events) == 1 and saw_end


# -- ProgressMeter seq determinism -----------------------------------------

def test_meter_seq_is_deterministic_for_same_config():
    from repro.core.grid3 import Grid3, Grid3Config

    def run():
        events = []
        grid = Grid3(Grid3Config(scale=3000.0, duration_days=0.05,
                                 apps=["exerciser"], seed=7))
        grid.run_full(progress=lambda e: events.append(e))
        return events

    a, b = run(), run()
    assert [e.seq for e in a] == list(range(len(a)))
    assert [(e.seq, e.kind, e.sim_time, e.events) for e in a] == \
           [(e.seq, e.kind, e.sim_time, e.events) for e in b]
    assert a[0].kind == "phase" and a[-1].kind == "end"
    assert a[-1].frac == 1.0


def test_progress_observed_run_is_byte_identical():
    """The zero-perturbation contract: a progress-observed (sliced) run
    produces byte-for-byte the reports of a silent one, and the alerts
    knob off means no monitor exists to perturb anything."""
    import json

    from repro import Grid3, Grid3Config, collect_reports
    config = dict(scale=3000.0, duration_days=0.05, apps=["exerciser"],
                  tracing=True, seed=7)
    silent = Grid3(Grid3Config(**config))
    silent.run_full()
    observed = Grid3(Grid3Config(**config))
    observed.run_full(progress=lambda e: None, progress_slices=13)
    assert silent.alert_monitor is None

    def report_bytes(grid):
        return json.dumps(collect_reports(grid), sort_keys=True,
                          default=repr)

    assert report_bytes(silent) == report_bytes(observed)
    assert silent.engine.dispatched == observed.engine.dispatched
    assert silent.engine.now == observed.engine.now


def test_meter_slices_control_emission_count():
    from repro.core.grid3 import Grid3, Grid3Config
    events = []
    grid = Grid3(Grid3Config(scale=3000.0, duration_days=0.05,
                             apps=["exerciser"], seed=7))
    grid.run_full(progress=lambda e: events.append(e), progress_slices=8)
    # 2 phase events + 8 ticks + 1 end, regardless of sim content.
    assert len(events) == 11
    assert ProgressMeter(grid, lambda e: None).slices == 32  # default
