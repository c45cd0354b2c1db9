"""Determinism of the kernel.

Same seeds must give bit-identical runs — both at the raw-engine level
and through a full Grid3 window (same ``acdc_db`` contents).
"""

from dataclasses import replace

from repro import Grid3, Grid3Config
from repro.failures import FailureProfile
from repro.sim import Engine


def _engine_trace():
    """A mixed workload exercising timeouts, same-instant ties,
    events, and interrupts; returns the observed (time, token) trace."""
    eng = Engine()
    trace = []

    def ticker(label, period):
        while eng.now < 50.0:
            yield eng.timeout(period)
            trace.append((eng.now, label))

    def waiter(ev):
        value = yield ev
        trace.append((eng.now, f"woke:{value}"))

    def poker(ev):
        yield eng.timeout(7.0)
        ev.succeed("poked")

    ev = eng.event()
    eng.process(ticker("a", 1.0))
    eng.process(ticker("b", 1.0))   # same-instant ties with "a"
    eng.process(ticker("c", 2.5))
    eng.process(waiter(ev))
    eng.process(poker(ev))

    def interruptee():
        try:
            yield eng.timeout(1000.0)
        except BaseException as exc:  # noqa: BLE001
            trace.append((eng.now, f"int:{type(exc).__name__}"))

    victim = eng.process(interruptee())

    def interrupter():
        yield eng.timeout(13.0)
        victim.interrupt("now")

    eng.process(interrupter())
    eng.run(until=60.0)
    return trace


def test_engine_trace_is_reproducible():
    first = _engine_trace()
    assert first  # the workload actually produced events
    for _ in range(3):
        assert _engine_trace() == first


def test_same_seed_grid_runs_bit_identical():
    """Two full Grid3 windows with the same seed: every ACDC job record
    (ids, timestamps, outcomes) must match exactly."""

    def run():
        grid = Grid3(Grid3Config(
            seed=42, scale=600, duration_days=2,
            failures=FailureProfile.early(),
        ))
        grid.run_full()
        return grid

    a, b = run(), run()
    recs_a, recs_b = a.acdc_db.records(), b.acdc_db.records()
    assert len(recs_a) == len(recs_b) and len(recs_a) > 0
    # job_id comes from a process-global counter (monotone across Grid3
    # instances), so compare ids relative to each run's first id and
    # everything else verbatim.
    base_a = min(r.job_id for r in recs_a)
    base_b = min(r.job_id for r in recs_b)
    norm_a = [replace(r, job_id=r.job_id - base_a) for r in recs_a]
    norm_b = [replace(r, job_id=r.job_id - base_b) for r in recs_b]
    assert norm_a == norm_b
    assert a.acdc_db.success_rate() == b.acdc_db.success_rate()
    assert a.acdc_db.total_cpu_days() == b.acdc_db.total_cpu_days()


def test_different_seed_diverges():
    """Sanity: the determinism test would be vacuous if the workload
    ignored its seed."""

    def run(seed):
        grid = Grid3(Grid3Config(seed=seed, scale=600, duration_days=2))
        grid.run_full()
        recs = grid.acdc_db.records()
        base = min(r.job_id for r in recs)
        return [replace(r, job_id=r.job_id - base) for r in recs]

    assert run(1) != run(2)
