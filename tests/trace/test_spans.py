"""Unit tests for the span primitives: Span, SpanStore, JobTracer."""

import pytest

from repro.sim import Engine
from repro.trace import (
    NULL_SPAN,
    NULL_TRACER,
    JobTracer,
    Span,
    SpanStore,
)


def make_tracer(max_traces: int = 100):
    engine = Engine()
    return engine, JobTracer(engine, max_traces=max_traces)


def test_span_tree_building_and_timing():
    engine, tracer = make_tracer()
    root = tracer.start_trace("job-1", kind="job", vo="uscms")
    engine._now = 10.0
    child = root.child("queue", phase="queue", site="FNAL_CMS")
    assert child.open and child.duration == -1.0
    engine._now = 25.0
    child.finish()
    assert child.end == 25.0 and child.duration == 15.0
    assert child.parent_id == root.span_id
    assert child.trace_id == root.trace_id
    assert root.children == [child]
    assert list(root.walk()) == [root, child]


def test_finish_is_idempotent():
    engine, tracer = make_tracer()
    root = tracer.start_trace("job")
    engine._now = 5.0
    root.finish("ok")
    engine._now = 50.0
    root.finish("error")  # ignored: already closed
    assert root.end == 5.0 and root.status == "ok"


def test_open_child_finds_most_recent_open_match():
    _engine, tracer = make_tracer()
    root = tracer.start_trace("job")
    first = root.child("queue")
    first.finish()
    second = root.child("queue")
    assert root.open_child("queue") is second
    second.finish()
    assert root.open_child("queue") is None


def test_close_subtree_closes_descendants_with_status():
    engine, tracer = make_tracer()
    root = tracer.start_trace("job")
    attempt = root.child("attempt-1", phase="attempt")
    stage = attempt.child("stage-in", phase="stage-in")
    engine._now = 42.0
    attempt.close_subtree("error")
    assert stage.end == 42.0 and stage.status == "error"
    assert attempt.end == 42.0 and attempt.status == "error"
    assert root.open  # siblings/ancestors untouched


def test_null_span_absorbs_everything_and_is_falsy():
    assert not NULL_SPAN
    assert NULL_SPAN.child("x") is NULL_SPAN
    assert NULL_SPAN.open_child("x") is None
    assert NULL_SPAN.finish("error") is NULL_SPAN
    assert NULL_SPAN.annotate(a=1) is NULL_SPAN
    assert list(NULL_SPAN.walk()) == []
    NULL_SPAN.close_subtree("error")  # no-op, no raise


def test_null_tracer_is_inert():
    assert not NULL_TRACER.enabled
    assert NULL_TRACER.store is None
    assert NULL_TRACER.start_trace("x") is NULL_SPAN
    NULL_TRACER.bind_job(1, NULL_SPAN)
    NULL_TRACER.finalize(NULL_SPAN)


def test_store_bounds_whole_traces_fifo():
    engine, tracer = make_tracer(max_traces=3)
    roots = [tracer.start_trace(f"job-{i}") for i in range(5)]
    store = tracer.store
    assert len(store) == 3
    assert store.evicted == 2
    assert store.get(roots[0].trace_id) is None
    assert store.get(roots[4].trace_id) is roots[4]
    # Oldest-first ordering of the retained traces.
    assert [r.name for r in store.roots()] == ["job-2", "job-3", "job-4"]


def test_store_job_binding_and_eviction_cleanup():
    _engine, tracer = make_tracer(max_traces=2)
    first = tracer.start_trace("a")
    tracer.bind_job(101, first)
    assert tracer.store.trace_for_job(101) is first
    assert tracer.store.jobs_for(first.trace_id) == (101,)
    tracer.start_trace("b")
    tracer.start_trace("c")  # evicts "a"
    assert tracer.store.trace_for_job(101) is None
    assert tracer.store.job_ids() == []


def test_store_validates_bound():
    with pytest.raises(ValueError):
        SpanStore(max_traces=0)


def test_finalize_closes_open_spans_and_publishes_metrics():
    engine, tracer = make_tracer()
    root = tracer.start_trace("job-x", kind="job", vo="usatlas")
    attempt = root.child("attempt-1", phase="attempt")
    attempt.child("queue", phase="queue")
    engine._now = 60.0
    tracer.finalize(root, "error")
    assert all(not s.open for s in root.walk())
    makespans = tracer.metrics.query("trace.makespan")
    assert len(makespans) == 1 and makespans[0].value == 60.0
    assert dict(makespans[0].tags)["vo"] == "usatlas"
    # queue phase published too
    assert tracer.metrics.query("trace.phase.queue")


def test_finalize_non_job_traces_publishes_nothing():
    engine, tracer = make_tracer()
    root = tracer.start_trace("transfer", kind="transfer")
    engine._now = 5.0
    tracer.finalize(root, "ok")
    assert tracer._metrics is None  # sink never even created


def test_ids_are_deterministic():
    def build():
        _engine, tracer = make_tracer()
        ids = []
        for i in range(3):
            root = tracer.start_trace(f"j{i}")
            child = root.child("queue")
            child.finish()
            ids.append((root.trace_id, root.span_id, child.span_id))
        return ids

    assert build() == build()
