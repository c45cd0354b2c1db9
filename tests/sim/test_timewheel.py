"""The time-wheel calendar must be order-identical to a pure heap.

The kernel replaced its (time, priority, seq) heap with exact-time
buckets plus an urgent FIFO.  These tests pin the ordering contract:

* same-instant timeouts fire in creation order;
* triggered events (urgent lane) beat timeouts at the same instant;
* a randomized workload at pinned seeds fires in exactly the order a
  reference (stable-sorted) schedule predicts;
* cancel/defuse shapes — orphaned timeouts parked in wheel slots after
  an interrupt — stay no-ops;
* a full 7-day grid run is same-seed byte-identical.
"""

import random
from dataclasses import replace

from repro import Grid3, Grid3Config
from repro.failures import FailureProfile
from repro.sim import Engine
from repro.sim.engine import Timeout
from repro.sim.timewheel import TimeWheel


# -- TimeWheel unit behavior --------------------------------------------------

def test_wheel_same_time_preserves_insertion_order():
    wheel = TimeWheel()
    for i in range(5):
        wheel.schedule(3.0, f"e{i}")
    wheel.schedule(1.0, "early")
    assert wheel.peek() == 1.0
    assert len(wheel) == 6
    t, bucket = wheel.pop()
    assert (t, bucket) == (1.0, ["early"])
    t, bucket = wheel.pop()
    assert t == 3.0
    assert bucket == [f"e{i}" for i in range(5)]
    assert not wheel


def test_wheel_popped_bucket_is_detached():
    """An event scheduled for the same instant *during* dispatch must
    land in a fresh bucket, not the already-claimed one."""
    wheel = TimeWheel()
    wheel.schedule(2.0, "a")
    t, claimed = wheel.pop()
    wheel.schedule(2.0, "b")
    assert claimed == ["a"]
    assert wheel.pop() == (2.0, ["b"])


def test_wheel_handles_far_future_and_inf():
    wheel = TimeWheel()
    wheel.schedule(float("inf"), "never")
    wheel.schedule(1e12, "far")
    wheel.schedule(0.5, "soon")
    assert [wheel.pop()[0] for _ in range(3)] == [0.5, 1e12, float("inf")]
    assert wheel.peek() == float("inf") and not wheel


# -- order equivalence with a reference schedule ------------------------------

def _reference_order(ops):
    """Stable sort by fire time = exactly what the old heap produced for
    NORMAL-priority entries (seq broke ties in insertion order)."""
    return [label for _t, label in sorted(
        ((t, label) for t, label in ops), key=lambda p: p[0]
    )]


def test_random_timeout_schedule_fires_in_reference_order():
    """Property: at pinned seeds, N timeouts with random (often
    colliding) delays fire in exactly the stable (time, creation-order)
    sequence."""
    for seed in (1, 7, 1234, 987654):
        rng = random.Random(seed)
        eng = Engine()
        fired = []
        ops = []

        def spawn(label, delay, eng=eng, fired=fired):
            def waiter():
                yield eng.timeout(delay)
                fired.append(label)
            eng.process(waiter())

        for i in range(300):
            # Coarse grid forces heavy same-instant collisions.
            delay = rng.choice((0.0, 0.5, 1.0, 1.0, 2.5, 7.0, 1e6))
            label = f"t{i}"
            ops.append((delay, label))
            spawn(label, delay)
        eng.run(until=1e7)
        assert fired == _reference_order(ops)


def test_urgent_beats_timeout_at_same_instant():
    """succeed() at time T must wake its waiter before a timeout
    scheduled for T fires — the old URGENT/NORMAL priority contract."""
    eng = Engine()
    order = []
    gate = eng.event()

    def sleeper():
        yield eng.timeout(5.0)
        order.append("timeout@5")

    def waiter():
        yield gate
        order.append("urgent@5")

    def poker():
        yield eng.timeout(5.0)
        gate.succeed()

    eng.process(sleeper())
    eng.process(waiter())
    # poker's timeout is created *after* sleeper's, so it fires second;
    # the succeed it performs still beats any *later* same-instant
    # timeout and runs before the clock advances.
    eng.process(poker())

    def late_sleeper():
        yield eng.timeout(5.0)
        order.append("late-timeout@5")

    eng.process(late_sleeper())
    eng.run()
    assert order == ["timeout@5", "urgent@5", "late-timeout@5"]


def test_mixed_workload_trace_stable_across_runs():
    """The determinism suite's mixed workload, 5x: identical traces."""

    def one_trace():
        eng = Engine()
        trace = []

        def ticker(label, period):
            while eng.now < 30.0:
                yield eng.timeout(period)
                trace.append((eng.now, label))

        ev = eng.event()

        def waiter():
            value = yield ev
            trace.append((eng.now, f"woke:{value}"))

        def poker():
            yield eng.timeout(4.0)
            ev.succeed("hi")

        eng.process(ticker("a", 1.0))
        eng.process(ticker("b", 1.0))
        eng.process(ticker("c", 0.25))
        eng.process(waiter())
        eng.process(poker())
        eng.run(until=40.0)
        return trace

    first = one_trace()
    assert first
    for _ in range(4):
        assert one_trace() == first


# -- cancelled / orphaned entries in wheel slots ------------------------------

def test_interrupt_orphans_timeout_in_wheel_as_noop():
    """Interrupting a sleeper leaves its timeout parked in a wheel
    bucket with no callbacks; reaching its instant must be a no-op."""
    eng = Engine()
    seen = []

    def sleeper():
        try:
            yield eng.timeout(10.0)
            seen.append("slept")
        except BaseException:  # noqa: BLE001
            seen.append("interrupted")

    victim = eng.process(sleeper())

    def interrupter():
        yield eng.timeout(1.0)
        victim.interrupt("go away")

    eng.process(interrupter())
    eng.run(until=5.0)
    assert seen == ["interrupted"]
    # The orphan is still parked at t=10 in the wheel.
    assert eng.peek() == 10.0
    eng.run(until=20.0)
    assert seen == ["interrupted"]
    assert eng.peek() == float("inf")


def test_interrupted_then_new_timeouts_stay_deterministic():
    """Fresh timeouts after an orphaned one must not perturb ordering."""

    def one_trace():
        eng = Engine()
        out = []

        def sleeper():
            try:
                yield eng.timeout(50.0)
            except BaseException:  # noqa: BLE001
                out.append((eng.now, "int"))
            # Keep going with fresh timeouts.
            for i in range(5):
                yield eng.timeout(1.0)
                out.append((eng.now, f"tick{i}"))

        victim = eng.process(sleeper())

        def interrupter():
            yield eng.timeout(3.0)
            victim.interrupt()

        def bystander():
            while eng.now < 60.0:
                yield eng.timeout(2.0)
                out.append((eng.now, "by"))

        eng.process(interrupter())
        eng.process(bystander())
        eng.run(until=70.0)
        return out

    first = one_trace()
    assert ("int" in {label for _t, label in first})
    for _ in range(3):
        assert one_trace() == first


def test_step_and_run_interleave_on_same_bucket():
    """step() consuming half a bucket, then run() finishing it, must
    dispatch every entry exactly once in order."""
    eng = Engine()
    fired = []
    for i in range(6):
        def waiter(i=i):
            yield eng.timeout(2.0)
            fired.append(i)
        eng.process(waiter())
    # Consume process initializations plus the first few bucket entries.
    while len(fired) < 2:
        assert eng.step()
    assert fired == [0, 1]
    eng.run()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_defused_failure_in_urgent_lane_does_not_crash():
    eng = Engine()
    ev = eng.event()
    ev.defuse()
    ev.fail(RuntimeError("boom"))
    eng.run()  # defused: must not raise
    assert ev.processed and not ev.ok


# -- full-system byte identity ------------------------------------------------

def test_grid_7day_same_seed_byte_identical():
    """Two full 7-day windows, same seed: every ACDC record identical."""

    def run():
        grid = Grid3(Grid3Config(
            seed=2003, scale=400, duration_days=7,
            failures=FailureProfile.early(),
        ))
        grid.run_full()
        recs = grid.acdc_db.records()
        base = min(r.job_id for r in recs)
        return [replace(r, job_id=r.job_id - base) for r in recs]

    a, b = run(), run()
    assert len(a) > 0
    assert a == b


def test_timeout_repr_and_delay_survive_pooling():
    eng = Engine()
    collected = []

    def sleeper():
        yield eng.timeout(1.5)
        collected.append(eng.timeout(2.5))

    eng.process(sleeper())
    eng.run(until=1.0)
    eng.run(until=10.0)
    (t,) = collected
    assert isinstance(t, Timeout)
    assert t.delay == 2.5
    assert "2.5" in repr(t)
