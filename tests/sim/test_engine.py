"""Unit tests for the DES kernel: events, processes, conditions, clock."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_timeout_advances_clock():
    eng = Engine()
    log = []

    def proc():
        yield eng.timeout(5.0)
        log.append(eng.now)
        yield eng.timeout(2.5)
        log.append(eng.now)

    eng.process(proc())
    eng.run()
    assert log == [5.0, 7.5]


def test_timeout_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_timeout_nan_delay_rejected():
    """A NaN delay would drag the clock through NaN, where no past-time
    check can catch it; an infinite delay stays legal."""
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(float("nan"))
    assert eng.peek() == float("inf")
    eng.timeout(float("inf"))
    assert eng.peek() == float("inf")


def test_dispatched_counts_one_per_step():
    """Three timeouts for the same instant raise ``dispatched`` by one
    per step, not by three on the first."""
    eng = Engine()
    for _ in range(3):
        eng.timeout(2.0)
    for expected in (1, 2, 3):
        assert eng.step()
        assert eng.dispatched == expected
    assert not eng.step()
    assert eng.dispatched == 3


def test_timeout_carries_value():
    eng = Engine()
    got = []

    def proc():
        value = yield eng.timeout(1.0, value="payload")
        got.append(value)

    eng.process(proc())
    eng.run()
    assert got == ["payload"]


def test_process_return_value():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)
        return 42

    assert eng.run_process(proc()) == 42


def test_run_until_stops_and_advances_clock():
    eng = Engine()
    fired = []

    def proc():
        yield eng.timeout(10.0)
        fired.append(eng.now)

    eng.process(proc())
    eng.run(until=4.0)
    assert eng.now == 4.0
    assert fired == []
    eng.run(until=20.0)
    assert fired == [10.0]
    assert eng.now == 20.0


def test_run_until_past_raises():
    eng = Engine()
    eng.run(until=5.0)
    with pytest.raises(ValueError):
        eng.run(until=1.0)


def test_same_time_events_fire_in_fifo_order():
    eng = Engine()
    order = []

    def proc(tag):
        yield eng.timeout(1.0)
        order.append(tag)

    for tag in "abcde":
        eng.process(proc(tag))
    eng.run()
    assert order == list("abcde")


def test_event_succeed_wakes_waiter():
    eng = Engine()
    gate = eng.event()
    woken = []

    def waiter():
        value = yield gate
        woken.append((eng.now, value))

    def trigger():
        yield eng.timeout(3.0)
        gate.succeed("go")

    eng.process(waiter())
    eng.process(trigger())
    eng.run()
    assert woken == [(3.0, "go")]


def test_event_fail_raises_in_waiter():
    eng = Engine()
    gate = eng.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield eng.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    eng.process(waiter())
    eng.process(trigger())
    eng.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(RuntimeError("late"))


def test_fail_requires_exception_instance():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.event().fail("not an exception")


def test_unhandled_process_failure_propagates_to_run():
    eng = Engine()

    def bad():
        yield eng.timeout(1.0)
        raise ValueError("unhandled")

    eng.process(bad())
    with pytest.raises(SimulationError):
        eng.run()


def test_waiting_on_failed_process_receives_exception():
    eng = Engine()
    seen = []

    def bad():
        yield eng.timeout(1.0)
        raise ValueError("inner")

    def outer():
        try:
            yield eng.process(bad())
        except ValueError as exc:
            seen.append(str(exc))

    eng.process(outer())
    eng.run()
    assert seen == ["inner"]


def test_yield_on_already_processed_event_continues_inline():
    eng = Engine()
    done = eng.event()
    done.succeed("early")
    log = []

    def proc():
        yield eng.timeout(1.0)
        value = yield done  # already processed by now
        log.append(value)

    eng.process(proc())
    eng.run()
    assert log == ["early"]


def test_yield_non_event_is_a_failure():
    eng = Engine()

    def proc():
        yield 42

    eng.process(proc())
    with pytest.raises(SimulationError):
        eng.run()


def test_interrupt_wakes_waiting_process():
    eng = Engine()
    log = []

    def worker():
        try:
            yield eng.timeout(100.0)
            log.append("finished")
        except Interrupt as intr:
            log.append(("interrupted", eng.now, intr.cause))

    def killer(proc):
        yield eng.timeout(5.0)
        proc.interrupt(cause="node rollover")

    target = eng.process(worker())
    eng.process(killer(target))
    eng.run()
    assert log == [("interrupted", 5.0, "node rollover")]


def test_interrupt_dead_process_raises():
    eng = Engine()

    def quick():
        yield eng.timeout(1.0)

    proc = eng.process(quick())
    eng.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_interrupted_process_can_resume_waiting():
    eng = Engine()
    log = []

    def worker():
        remaining = 10.0
        start = eng.now
        while True:
            try:
                yield eng.timeout(remaining)
                break
            except Interrupt:
                remaining -= eng.now - start
                start = eng.now
                log.append(("resume", eng.now))
        log.append(("done", eng.now))

    def poker(proc):
        yield eng.timeout(4.0)
        proc.interrupt()

    target = eng.process(worker())
    eng.process(poker(target))
    eng.run()
    assert log == [("resume", 4.0), ("done", 10.0)]


def test_all_of_collects_values():
    eng = Engine()
    result = []

    def proc():
        t1 = eng.timeout(1.0, value="a")
        t2 = eng.timeout(3.0, value="b")
        values = yield AllOf(eng, [t1, t2])
        result.append((eng.now, sorted(values.values())))

    eng.process(proc())
    eng.run()
    assert result == [(3.0, ["a", "b"])]


def test_all_of_empty_fires_immediately():
    eng = Engine()
    hit = []

    def proc():
        yield AllOf(eng, [])
        hit.append(eng.now)

    eng.process(proc())
    eng.run()
    assert hit == [0.0]


def test_all_of_fails_fast_on_component_failure():
    eng = Engine()
    caught = []

    def failer():
        yield eng.timeout(1.0)
        raise IOError("disk full")

    def proc():
        try:
            yield AllOf(eng, [eng.process(failer()), eng.timeout(50.0)])
        except IOError as exc:
            caught.append((eng.now, str(exc)))

    eng.process(proc())
    eng.run()
    assert caught == [(1.0, "disk full")]


def test_any_of_returns_first():
    eng = Engine()
    result = []

    def proc():
        fast = eng.timeout(1.0, value="fast")
        slow = eng.timeout(9.0, value="slow")
        winner = yield AnyOf(eng, [fast, slow])
        result.append((eng.now, winner.value))

    eng.process(proc())
    eng.run()
    assert result == [(1.0, "fast")]


def test_condition_rejects_foreign_events():
    eng1, eng2 = Engine(), Engine()
    with pytest.raises(ValueError):
        AllOf(eng1, [eng2.event()])


def test_peek_reports_next_event_time():
    eng = Engine()
    assert eng.peek() == float("inf")
    eng.timeout(7.0)
    assert eng.peek() == 7.0


def test_run_process_deadlock_detected():
    eng = Engine()

    def stuck():
        yield eng.event()  # never triggered

    with pytest.raises(SimulationError):
        eng.run_process(stuck())


def test_active_process_visible_during_execution():
    eng = Engine()
    seen = []

    def proc():
        seen.append(eng.active_process)
        yield eng.timeout(1.0)

    handle = eng.process(proc())
    eng.run()
    assert seen == [handle]
    assert eng.active_process is None


def test_nested_process_chain():
    eng = Engine()

    def inner(n):
        yield eng.timeout(1.0)
        return n * 2

    def outer():
        a = yield eng.process(inner(1))
        b = yield eng.process(inner(a))
        return b

    assert eng.run_process(outer()) == 4
    assert eng.now == 2.0


def test_many_processes_complete():
    eng = Engine()
    done = []

    def proc(i):
        yield eng.timeout(float(i % 17))
        done.append(i)

    for i in range(500):
        eng.process(proc(i))
    eng.run()
    assert sorted(done) == list(range(500))
