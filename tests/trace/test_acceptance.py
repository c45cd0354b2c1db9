"""Acceptance tests for the tracing pipeline's determinism contract.

Three guarantees from the issue:

* tracing disabled -> a same-seed run is byte-identical to an untraced
  build (spans cost nothing they didn't opt into);
* tracing enabled  -> the simulation outcome is *still* byte-identical
  (spans are passive: no events, no RNG draws, no ordering changes);
* every completed job yields one rooted span tree whose phase durations
  sum to its observed makespan.
"""

import pytest

from repro import Grid3, Grid3Config
from repro.analysis import export_database
from repro.trace import PHASES, job_breakdown, to_jsonl


def run_once(seed: int = 7, tracing: bool = False):
    grid = Grid3(Grid3Config(
        seed=seed, scale=600.0, duration_days=2.0, apps=["exerciser"],
        tracing=tracing,
    ))
    grid.run_full()
    return grid


def test_tracing_disabled_matches_untraced_run():
    assert export_database(run_once().acdc_db) \
        == export_database(run_once().acdc_db)


def test_tracing_enabled_does_not_perturb_the_simulation():
    untraced = export_database(run_once(tracing=False).acdc_db)
    traced = export_database(run_once(tracing=True).acdc_db)
    assert untraced == traced


def test_span_dump_is_deterministic_across_same_seed_runs():
    first = to_jsonl(run_once(tracing=True).tracer.store.roots())
    second = to_jsonl(run_once(tracing=True).tracer.store.roots())
    assert first  # spans were recorded
    assert first == second


def test_every_job_yields_one_rooted_tree_summing_to_makespan():
    grid = run_once(tracing=True)
    store = grid.tracer.store
    roots = [r for r in store.roots() if r.attrs.get("kind") == "job"]
    assert roots, "traced run recorded no job traces"
    for root in roots:
        # Single rooted tree: a root has no parent, every other span
        # links to an in-tree parent, and the trace is fully closed.
        assert root.parent_id is None
        span_ids = {s.span_id for s in root.walk()}
        for span in root.walk():
            if span is not root:
                assert span.parent_id in span_ids
            assert span.end >= 0, f"open span {span.name} after finalize"
        b = job_breakdown(root)
        assert sum(b[p] for p in PHASES) == pytest.approx(b["makespan"])


def test_traces_bind_execution_side_job_ids():
    grid = run_once(tracing=True)
    store = grid.tracer.store
    db_ids = {r.job_id for r in grid.acdc_db.records()}
    bound = set(store.job_ids())
    assert bound, "no execution-side job ids bound"
    assert bound <= db_ids
    some_id = next(iter(bound))
    root = store.trace_for_job(some_id)
    assert root is not None and root.attrs.get("kind") == "job"


def test_trace_metrics_published_per_vo():
    grid = run_once(tracing=True)
    metrics = grid.monitors["trace"]
    samples = metrics.query("trace.makespan")
    assert samples
    assert all(dict(s.tags).get("vo") for s in samples)


def test_disabled_tracer_records_nothing():
    grid = run_once(tracing=False)
    assert not grid.tracer.enabled
    assert grid.tracer.store is None
    assert "trace" not in grid.monitors
