"""The kernel's calendar fires events in ``(time, priority, seq)`` order.

Triggered events wait in an urgent FIFO and timeouts in one
``(time, seq)`` heap.  These tests pin the ordering contract:

* same-instant timeouts fire in creation order, including ones created
  while that instant is being dispatched;
* triggered events (urgent lane) beat timeouts at the same instant;
* a randomized workload at pinned seeds fires in exactly the order a
  reference (stable-sorted) schedule predicts;
* far-future and infinite delays sort last;
* cancel/defuse shapes — orphaned timeouts left pending after an
  interrupt — stay no-ops;
* a full 7-day grid run is same-seed byte-identical.
"""

import random
from dataclasses import replace

from repro import Grid3, Grid3Config
from repro.failures import FailureProfile
from repro.sim import Engine
from repro.sim.engine import Timeout


# -- same-instant and long-range order ----------------------------------------

def test_timeout_created_during_dispatch_fires_after_pending_same_instant():
    """A timeout(0) created while an event at instant T is being
    dispatched fires after every event already pending at T."""
    eng = Engine()
    order = []

    def first():
        yield eng.timeout(2.0)
        order.append("a")
        yield eng.timeout(0)
        order.append("zero")

    def other(tag):
        yield eng.timeout(2.0)
        order.append(tag)

    eng.process(first())
    eng.process(other("b"))
    eng.process(other("c"))
    eng.run()
    assert order == ["a", "b", "c", "zero"]
    assert eng.now == 2.0


def test_far_future_and_inf_timeouts_fire_in_time_order():
    eng = Engine()
    fired = []

    def waiter(delay):
        yield eng.timeout(delay)
        fired.append(delay)

    for delay in (float("inf"), 1e12, 0.5):
        eng.process(waiter(delay))
    eng.run(until=1e13)
    assert fired == [0.5, 1e12]
    pending = eng.peek_event()
    assert isinstance(pending, Timeout) and pending.delay == float("inf")
    assert eng.peek() == float("inf")
    eng.run()
    assert fired == [0.5, 1e12, float("inf")]


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


# -- cancelled / orphaned timeouts --------------------------------------------

def test_interrupt_orphans_timeout_in_wheel_as_noop():
    """Interrupting a sleeper leaves its timeout pending with no
    callbacks; reaching its instant must be a no-op."""
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
    # The orphan is still pending at t=10.
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
    """step() consuming half of one instant's timeouts, then run()
    finishing them, must dispatch every entry exactly once in order."""
    eng = Engine()
    fired = []
    for i in range(6):
        def waiter(i=i):
            yield eng.timeout(2.0)
            fired.append(i)
        eng.process(waiter())
    # Consume process initializations plus the first few timeouts.
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
