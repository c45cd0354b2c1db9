"""Tests for the kernel tracer."""

import pytest

from repro.sim import Engine
from repro.sim.tracing import Tracer


def test_tracer_records_processes_and_timeouts():
    eng = Engine()
    tracer = Tracer(eng)

    def worker():
        yield eng.timeout(5.0)
        yield eng.timeout(3.0)

    eng.process(worker(), name="worker-1")
    eng.run()
    kinds = [e.kind for e in tracer.entries]
    assert "timeout" in kinds
    assert "process-ok" in kinds
    done = tracer.matching("worker-1")
    assert done and done[-1].time == 8.0


def test_tracer_records_failures():
    eng = Engine()
    tracer = Tracer(eng)

    def crasher():
        yield eng.timeout(1.0)
        raise ValueError("boom")

    def guard():
        try:
            yield eng.process(crasher(), name="crasher")
        except ValueError:
            pass

    eng.process(guard(), name="guard")
    eng.run()
    failed = [e for e in tracer.entries if e.kind == "process-failed"]
    assert any("crasher" in e.label for e in failed)


def test_tracer_ring_is_bounded():
    eng = Engine()
    tracer = Tracer(eng, capacity=10)

    def tick(i):
        yield eng.timeout(float(i))

    for i in range(50):
        eng.process(tick(i))
    eng.run()
    assert len(tracer.entries) == 10
    assert tracer.events_seen > 10


def test_tracer_detach_restores_engine():
    eng = Engine()
    tracer = Tracer(eng)
    tracer.detach()
    before = len(tracer.entries)

    def worker():
        yield eng.timeout(1.0)

    eng.process(worker())
    eng.run()
    assert len(tracer.entries) == before
    tracer.detach()  # idempotent


def test_tracer_render_and_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Tracer(eng, capacity=0)
    tracer = Tracer(eng)

    def worker():
        yield eng.timeout(2.5)

    eng.process(worker(), name="render-me")
    eng.run()
    text = tracer.render_tail(5)
    assert "render-me" in text
    assert "2.500" in text


def test_traced_run_matches_untraced():
    """Tracing must not perturb simulation outcomes, nor the dispatched
    count (which includes process completions fired mid-bucket)."""

    def scenario(trace):
        eng = Engine()
        tracer = Tracer(eng) if trace else None
        results = []

        def worker(i):
            yield eng.timeout(float(i % 7))
            results.append((eng.now, i))

        for i in range(100):
            eng.process(worker(i))
        eng.run()
        return results, eng.dispatched

    assert scenario(False) == scenario(True)


def test_entries_carry_stable_sequence_numbers():
    eng = Engine()
    tracer = Tracer(eng, capacity=5)

    def tick(i):
        yield eng.timeout(float(i))

    for i in range(20):
        eng.process(tick(i))
    eng.run()
    seqs = [e.seq for e in tracer.entries]
    # Consecutive absolute positions ending at the last event processed.
    assert seqs == list(range(tracer.events_seen - 5, tracer.events_seen))
    assert tracer.dropped == tracer.events_seen - 5


def test_render_tail_reports_ring_drop_after_wraparound():
    eng = Engine()
    tracer = Tracer(eng, capacity=4)

    def tick(i):
        yield eng.timeout(float(i))

    for i in range(12):
        eng.process(tick(i))
    eng.run()
    text = tracer.render_tail(10)
    first = text.splitlines()[0]
    assert f"{tracer.dropped} earlier entries dropped" in first
    assert "capacity 4" in first
    # Sequence numbers render, making the gap visible.
    assert f"#{tracer.entries[0].seq}" in text


def test_render_tail_has_no_drop_header_before_wraparound():
    eng = Engine()
    tracer = Tracer(eng, capacity=100)

    def worker():
        yield eng.timeout(1.0)

    eng.process(worker(), name="w")
    eng.run()
    assert "dropped" not in tracer.render_tail(5)


def test_span_source_labels_entries():
    eng = Engine()
    active = {"label": ""}
    tracer = Tracer(eng, span_source=lambda: active["label"])

    def worker():
        active["label"] = "job-42/compute"
        yield eng.timeout(2.0)
        active["label"] = ""
        yield eng.timeout(1.0)

    eng.process(worker(), name="worker")
    eng.run()
    spanned = tracer.in_span("job-42")
    assert spanned and all(e.span == "job-42/compute" for e in spanned)
    assert "[job-42/compute]" in tracer.render_tail(10)
    # Entries outside the span stay unlabelled.
    assert any(e.span == "" for e in tracer.entries)


def test_kernel_tracer_bridges_to_job_tracer():
    """span_source=JobTracer.current_label ties kernel events to the
    innermost open job span."""
    from repro.trace import JobTracer

    eng = Engine()
    jt = JobTracer(eng)
    tracer = Tracer(eng, span_source=jt.current_label)

    def lifecycle():
        root = jt.start_trace("job-7", kind="job")
        compute = root.child("compute", phase="compute")
        yield eng.timeout(4.0)
        compute.finish()
        jt.finalize(root, "ok")
        yield eng.timeout(1.0)

    eng.process(lifecycle(), name="lifecycle")
    eng.run()
    assert tracer.in_span("compute")
    assert tracer.entries[-1].span == ""  # trace closed before last event


def test_tail_is_a_suffix_view():
    eng = Engine()
    tracer = Tracer(eng, capacity=50)

    def tick(i):
        yield eng.timeout(float(i))

    for i in range(10):
        eng.process(tick(i))
    eng.run()
    assert tracer.tail(3) == list(tracer.entries)[-3:]
    assert tracer.tail(999) == list(tracer.entries)


def test_grid_exposition_identical_with_and_without_tracer():
    """A same-seed Grid3 run with a Tracer attached renders the same
    dispatched count and the same Prometheus exposition bytes."""
    from repro import Grid3, Grid3Config
    from repro.monitoring.prometheus import grid_exposition

    def run(trace):
        grid = Grid3(Grid3Config(seed=7, scale=400, duration_days=2))
        if trace:
            Tracer(grid.engine, capacity=16)
        grid.run_full()
        return grid.engine.dispatched, grid_exposition(grid)

    plain, traced = run(False), run(True)
    assert plain[0] > 0
    assert plain == traced
