"""Deeper kernel tests: nested condition events, interrupt races,
resource+condition interactions."""

from repro.sim import AnyOf, Engine, Interrupt, Resource


def test_anyof_of_anyofs():
    """A race of races fires at the earliest component anywhere."""
    eng = Engine()
    hit = []

    def proc():
        slow_pair = AnyOf(eng, [eng.timeout(10.0), eng.timeout(20.0)])
        fast_pair = AnyOf(eng, [eng.timeout(3.0, "c"), eng.timeout(2.0, "d")])
        winner = yield AnyOf(eng, [slow_pair, fast_pair])
        hit.append((eng.now, winner is fast_pair, winner.value.value))

    eng.process(proc())
    eng.run()
    assert hit == [(2.0, True, "d")]


def test_condition_over_processes_and_timeouts():
    eng = Engine()

    def worker(duration, value):
        yield eng.timeout(duration)
        return value

    def proc():
        p1 = eng.process(worker(4.0, "w1"))
        p2 = eng.process(worker(6.0, "w2"))
        first = yield AnyOf(eng, [p1, p2, eng.timeout(9.0, "t")])
        return eng.now, first.value

    assert eng.run_process(proc()) == (4.0, "w1")


def test_interrupt_during_condition_wait():
    eng = Engine()
    log = []

    def waiter():
        try:
            yield AnyOf(eng, [eng.timeout(100.0), eng.timeout(200.0)])
        except Interrupt:
            log.append(("interrupted", eng.now))

    def poker(target):
        yield eng.timeout(5.0)
        target.interrupt()

    target = eng.process(waiter())
    eng.process(poker(target))
    eng.run()
    assert log == [("interrupted", 5.0)]


def test_simultaneous_interrupt_and_completion():
    """Interrupt scheduled at the exact instant the process finishes:
    whichever processes first wins, and nothing crashes."""
    eng = Engine()
    outcomes = []

    def worker():
        try:
            yield eng.timeout(10.0)
            outcomes.append("finished")
        except Interrupt:
            outcomes.append("interrupted")

    def poker(target):
        yield eng.timeout(10.0)
        if target.is_alive:
            target.interrupt()

    target = eng.process(worker())
    eng.process(poker(target))
    eng.run()
    assert outcomes in (["finished"], ["interrupted"])
    assert len(outcomes) == 1


def test_double_interrupt():
    eng = Engine()
    count = []

    def worker():
        for _ in range(2):
            try:
                yield eng.timeout(100.0)
            except Interrupt:
                count.append(eng.now)
        yield eng.timeout(1.0)

    def poker(target):
        yield eng.timeout(1.0)
        target.interrupt()
        yield eng.timeout(1.0)
        target.interrupt()

    target = eng.process(worker())
    eng.process(poker(target))
    eng.run()
    assert count == [1.0, 2.0]


def test_resource_request_inside_condition():
    """A resource grant can be raced against a timeout — the timeout
    path cancels the request so the slot is not leaked."""
    eng = Engine()
    res = Resource(eng, 1)
    outcomes = []

    def holder():
        req = res.request()
        yield req
        yield eng.timeout(50.0)
        res.release(req)

    def impatient():
        req = res.request()
        winner = yield AnyOf(eng, [req, eng.timeout(5.0, "gave-up")])
        if req.triggered and req.ok:
            outcomes.append("got-slot")
            res.release(req)
        else:
            outcomes.append("gave-up")
            req.cancel()

    eng.process(holder())
    eng.process(impatient())
    eng.run()
    assert outcomes == ["gave-up"]
    # Slot fully recovered: a new request succeeds immediately.
    final = res.request()
    eng.run()
    assert final.triggered and res.in_use == 1


def test_event_callbacks_fire_once_in_registration_order():
    eng = Engine()
    order = []
    ev = eng.event()
    for i in range(5):
        ev.callbacks.append(lambda e, i=i: order.append(i))
    ev.succeed()
    eng.run()
    assert order == [0, 1, 2, 3, 4]


def test_deeply_nested_process_chain():
    eng = Engine()

    def layer(depth):
        if depth == 0:
            yield eng.timeout(1.0)
            return 1
        value = yield eng.process(layer(depth - 1))
        return value + 1

    assert eng.run_process(layer(50)) == 51
    assert eng.now == 1.0


def test_many_events_same_instant_stable():
    """A large same-instant burst preserves FIFO and completes."""
    eng = Engine()
    order = []

    def proc(i):
        yield eng.timeout(5.0)
        order.append(i)

    for i in range(2000):
        eng.process(proc(i))
    eng.run()
    assert order == list(range(2000))
