"""Trace-backed troubleshooting queries surfaced via grid.troubleshooting(),
and the job-id join answered by the grid's span store."""

from repro import Grid3, Grid3Config
from repro.trace import PHASES


def traced_grid():
    grid = Grid3(Grid3Config(
        seed=7, scale=600.0, duration_days=2.0, apps=["exerciser"],
        tracing=True,
    ))
    grid.run_full()
    return grid


def test_slowest_jobs_ranked_and_linked():
    ops = traced_grid().troubleshooting()
    rows = ops.slowest_jobs(5)
    assert rows
    makespans = [r.makespan for r in rows]
    assert makespans == sorted(makespans, reverse=True)
    for row in rows:
        assert row.critical_phase in PHASES
        assert row.vo
        # the §8 submit-side <-> execution-side link
        assert all(isinstance(j, int) for j in row.job_ids)


def test_phase_breakdown_all_and_per_vo():
    ops = traced_grid().troubleshooting()
    agg = ops.phase_breakdown()
    assert agg["jobs"] > 0
    assert abs(sum(agg["share"][p] for p in PHASES) - 1.0) < 1e-9
    vo = ops.slowest_jobs(1)[0].vo
    per_vo = ops.phase_breakdown(vo=vo)
    assert 0 < per_vo["jobs"] <= agg["jobs"]
    assert per_vo["vo"] == vo


def test_trace_for_job_joins_execution_side_id():
    store = traced_grid().tracer.store
    job_id = store.job_ids()[0]
    root = store.trace_for_job(job_id)
    assert root is not None
    assert job_id in store.jobs_for(root.trace_id)


def test_trace_queries_degrade_gracefully_without_tracing():
    grid = Grid3(Grid3Config(
        seed=7, scale=800.0, duration_days=1.0, apps=["exerciser"],
    ))
    grid.run_full()
    ops = grid.troubleshooting()
    assert ops.slowest_jobs() == []
    assert ops.phase_breakdown() == {}
    assert grid.tracer.store is None
