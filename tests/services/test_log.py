"""ServiceLog: bounded ring buffer with eviction-stable cursors."""

import pytest

from repro.services import ServiceLog


def test_append_and_list_surface():
    log = ServiceLog(capacity=10)
    assert len(log) == 0
    assert log.since(0) == ([], 0)
    assert log.append("a") == 0
    assert log.append("b") == 1
    for entry in "cd":
        log.append(entry)
    assert len(log) == 4
    assert log.since(0) == (["a", "b", "c", "d"], 4)
    assert log.since(1) == (["b", "c", "d"], 4)


def test_eviction_keeps_newest():
    log = ServiceLog(capacity=3)
    for i in range(6):
        log.append(i)
    assert len(log) == 3
    # Entries 0..2 were evicted; the cursor still counts them.
    assert log.since(0) == ([3, 4, 5], 6)
    assert log.since(4) == ([4, 5], 6)


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
    assert cursor == 10
    entries, cursor = log.since(cursor)
    assert entries == []


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        ServiceLog(capacity=-1)
