"""RunStore's resident-payload LRU and its run state machine."""

import pytest

from repro import Grid3Config
from repro.service.store import RunStore


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t

    def tick(self, dt=1.0):
        self.t += dt


# -- the resident-payload LRU -------------------------------------------------

def done(store, digest, nbytes=10):
    """A finished run whose stored payload encodes to ``nbytes`` bytes."""
    record = store.create(digest, Grid3Config())
    store.mark_done(record, {"p": "x" * (nbytes - 9)})
    assert record.payload_bytes == nbytes
    return record


def test_cache_hit_miss_counters():
    store = RunStore(clock=FakeClock(), cache_bytes=100)
    assert store.cached("a") is None
    record = done(store, "a")
    assert store.cached("a") is record
    assert store.cache_stats()["hits"] == 1
    assert store.cache_stats()["misses"] == 1


def test_cache_evicts_lru_under_byte_budget():
    store = RunStore(clock=FakeClock(), cache_bytes=30)
    a, b, c = done(store, "a"), done(store, "b"), done(store, "c")
    stats = store.cache_stats()
    assert stats["stored_bytes"] == 30 and stats["entries"] == 3
    # Touch "a" so "b" is the least recently used.
    assert store.cached("a") is a
    done(store, "d")
    assert b.payload is None and b.payload_bytes == 0
    assert a.payload is not None and c.payload is not None
    assert store.cache_stats()["evictions"] == 1


def test_cache_keeps_oversize_newest_entry():
    store = RunStore(clock=FakeClock(), cache_bytes=10)
    small = done(store, "small", 9)
    huge = done(store, "huge", 50)
    assert small.payload is None
    assert store.cached("huge") is huge  # never instantly forgotten
    assert store.cache_stats()["stored_bytes"] == 50


def test_cache_put_same_digest_replaces_bytes():
    store = RunStore(clock=FakeClock(), cache_bytes=100)
    done(store, "a", 12)
    store.unlink("a")
    done(store, "a", 30)
    stats = store.cache_stats()
    assert stats["stored_bytes"] == 30 and stats["entries"] == 1


def test_cache_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        RunStore(cache_bytes=0)


# -- RunStore ------------------------------------------------------------------

def test_store_lifecycle_and_views():
    clock = FakeClock()
    store = RunStore(clock=clock)
    record = store.create("d1", Grid3Config())
    assert record.run_id == 1 and record.state == "queued"
    assert store.lookup("d1") is record
    clock.tick()
    store.mark_running(record)
    clock.tick()
    store.mark_done(record, {"reports": {}, "summary": {"jobs": 3}})
    view = record.view(clock())
    assert view.state == "done"
    assert view.summary == {"jobs": 3}
    assert view.elapsed_s == pytest.approx(2.0)
    assert store.counts() == {
        "queued": 0, "running": 0, "done": 1, "failed": 0,
        "interrupted": 0, "total": 1,
    }


def test_store_mark_failed_records_error():
    store = RunStore(clock=FakeClock())
    record = store.create("d1", Grid3Config())
    store.mark_failed(record, "boom")
    assert record.state == "failed" and record.error == "boom"
    # The digest still resolves, so the app can see the failure.
    assert store.lookup("d1") is record


def test_store_drop_payload_unlinks_digest():
    store = RunStore(clock=FakeClock(), cache_bytes=10)
    record = done(store, "d1")
    done(store, "d2")  # evicts d1's payload
    assert record.payload is None and record.payload_bytes == 0
    assert store.lookup("d1") is None      # identical resubmits re-run
    assert store.get(record.run_id) is record  # metadata stays queryable


def test_store_drop_payload_spares_newer_digest_owner():
    store = RunStore(clock=FakeClock(), cache_bytes=10)
    old = done(store, "d1")
    store.unlink("d1")
    new = store.create("d1", Grid3Config())
    done(store, "d2")  # evicts old's payload
    assert old.payload is None
    # The index still points at the newer record.
    assert store.lookup("d1") is new


def test_store_runs_in_submission_order():
    store = RunStore(clock=FakeClock())
    ids = [store.create(f"d{i}", Grid3Config()).run_id for i in range(3)]
    assert [r.run_id for r in store.runs()] == ids == [1, 2, 3]
    assert len(store) == 3


def test_run_record_is_slotted():
    store = RunStore(clock=FakeClock())
    record = store.create("d1", Grid3Config())
    with pytest.raises(AttributeError):
        record.arbitrary = 1
