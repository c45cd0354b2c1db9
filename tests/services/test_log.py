"""ServiceLog: bounded ring buffer with eviction-stable cursors."""

import pytest

from repro.services import ServiceLog


def test_append_and_list_surface():
    log = ServiceLog(capacity=10)
    assert not log
    assert log.append("a") == 0
    assert log.append("b") == 1
    log.extend(["c", "d"])
    assert len(log) == 4
    assert list(log) == ["a", "b", "c", "d"]
    assert log[0] == "a"
    assert log[-1] == "d"
    assert log[1:3] == ["b", "c"]


def test_eviction_keeps_newest():
    log = ServiceLog(capacity=3)
    for i in range(6):
        log.append(i)
    assert list(log) == [3, 4, 5]
    assert log.first_seq == 3
    assert log.end_seq == 6


def test_since_cursor_survives_eviction():
    log = ServiceLog(capacity=4)
    for i in range(3):
        log.append(i)
    entries, cursor = log.since(0)
    assert entries == [0, 1, 2]
    # Push enough to evict everything the cursor has seen and more.
    for i in range(3, 10):
        log.append(i)
    entries, cursor = log.since(cursor)
    # Entries 3..5 were evicted before the tailer returned: gone.
    assert entries == [6, 7, 8, 9]
    assert cursor == log.end_seq
    entries, cursor = log.since(cursor)
    assert entries == []


def test_tail():
    log = ServiceLog(capacity=5)
    log.extend("abcdefg")
    assert log.tail(2) == ["f", "g"]
    assert log.tail(100) == list("cdefg")
    assert log.tail(0) == []


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        ServiceLog(capacity=-1)
