"""Fair-share admission: lanes, quotas, dispatch order, accounting."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Grid3Config
from repro.service import (
    AdmissionPolicy,
    JobQueue,
    QuotaExceededError,
    RunStore,
)


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, seconds=1.0):
        self.now += seconds


def record_for(store, seed, client="anonymous", lane="batch"):
    return store.create(f"d{seed}", Grid3Config(seed=seed),
                        client=client, lane=lane)


# -- the quota gate ------------------------------------------------------------

def test_quota_gate_and_release():
    policy = AdmissionPolicy(quota=2, clock=FakeClock())
    policy.admit("alice", "batch")
    policy.admit("alice", "batch")
    with pytest.raises(QuotaExceededError) as excinfo:
        policy.admit("alice", "batch")
    assert excinfo.value.retry_after >= 1
    assert policy.quota_rejections == 1
    # Other clients are unaffected by alice's breach.
    policy.admit("bob", "interactive")
    # A release frees a slot.
    policy.release("alice")
    policy.admit("alice", "batch")
    stats = policy.stats()
    assert stats["active_runs"] == 3.0  # alice 2 + bob 1
    assert stats["quota_rejections"] == 1.0


def test_quota_zero_means_unlimited():
    policy = AdmissionPolicy(quota=0, clock=FakeClock())
    for _ in range(100):
        policy.admit("alice", "batch")
    assert policy.stats()["active_runs"] == 100.0


def test_retry_after_tracks_mean_run_duration():
    clock = FakeClock()
    policy = AdmissionPolicy(quota=1, clock=clock)
    for _ in range(6):
        policy.charge("alice", 10.0)  # EWMA converges toward 10s
    policy.admit("alice", "batch")
    with pytest.raises(QuotaExceededError) as excinfo:
        policy.admit("alice", "batch")
    assert excinfo.value.retry_after >= 8


# -- dispatch order ------------------------------------------------------------

def test_single_client_cold_ledger_degrades_to_fifo():
    clock = FakeClock()
    policy = AdmissionPolicy(clock=clock)
    store = RunStore(clock=clock)
    pending = [record_for(store, seed) for seed in (1, 2, 3)]
    order = []
    while pending:
        chosen = policy.select(pending)
        order.append(chosen.run_id)
        pending.remove(chosen)
    assert order == sorted(order)


def test_interactive_lane_beats_batch():
    clock = FakeClock()
    policy = AdmissionPolicy(clock=clock)
    store = RunStore(clock=clock)
    batch = record_for(store, 1, client="a", lane="batch")
    interactive = record_for(store, 2, client="b", lane="interactive")
    assert policy.select([batch, interactive]) is interactive
    assert policy.dispatched["interactive"] == 1


def test_heavy_user_sinks_behind_light_user():
    clock = FakeClock()
    policy = AdmissionPolicy(clock=clock)
    store = RunStore(clock=clock)
    # The hog has burned an hour; the light client nothing.
    policy.charge("hog", 3600.0)
    policy.charge("light", 1.0)
    hog_first = record_for(store, 1, client="hog")
    light_later = record_for(store, 2, client="light")
    # Submission order says hog; fair share says light.
    assert policy.select([hog_first, light_later]) is light_later


def test_ledger_growth_carries_decayed_usage():
    clock = FakeClock()
    policy = AdmissionPolicy(clock=clock, half_life=300.0)
    policy.charge("alice", 600.0)
    before = {row.vo: row.decayed_usage for row in policy.report()}
    # A new client joining rebuilds the ledger; alice's history stays.
    policy.admit("newcomer", "batch")
    after = {row.vo: row.decayed_usage for row in policy.report()}
    assert after["alice"] == pytest.approx(before["alice"], rel=1e-6)
    # And the fresh client outranks the one with burned usage.
    assert policy.priority_factor("newcomer") > \
        policy.priority_factor("alice")


def test_usage_decays_so_idle_clients_recover():
    clock = FakeClock()
    policy = AdmissionPolicy(clock=clock, half_life=10.0)
    policy.charge("alice", 1000.0)
    policy.charge("bob", 1.0)
    sunk = policy.priority_factor("alice")
    # Ten half-lives later alice's splurge is ancient history, while
    # bob keeps working: alice's observed *share* collapses and her
    # priority recovers.
    clock.tick(100.0)
    policy.charge("bob", 1.0)
    recovered = policy.priority_factor("alice")
    assert recovered > sunk


# -- wired into the JobQueue ---------------------------------------------------

def payload(config):
    return {"reports": {"ops": [], "troubleshooting": [], "trace": []},
            "summary": {"seed": config.seed}}


def test_queue_dispatches_in_fair_share_order():
    clock = FakeClock()
    policy = AdmissionPolicy(clock=clock)
    policy.charge("hog", 3600.0)
    policy.charge("light", 1.0)
    store = RunStore()
    gate = threading.Event()
    started = []
    order = []

    def runner(config, progress):
        gate.wait(10.0)
        return payload(config)

    queue = JobQueue(
        workers=1, depth=16, runner=runner,
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        on_start=lambda r: (started.append(r.run_id),
                            order.append((r.client, r.lane))),
        admission=policy,
    )
    try:
        # First submission occupies the worker; the rest queue up.
        queue.submit(record_for(store, 0, client="warmup"))
        deadline = time.monotonic() + 5.0
        while not started:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        queue.submit(record_for(store, 1, client="hog", lane="batch"))
        queue.submit(record_for(store, 2, client="hog", lane="batch"))
        queue.submit(record_for(store, 3, client="light", lane="batch"))
        queue.submit(record_for(store, 4, client="hog", lane="interactive"))
        gate.set()
        assert queue.drain(timeout=10.0)
    finally:
        queue.shutdown(drain=True, timeout=10.0)
    # After warmup: the interactive run jumps the whole batch lane,
    # then light (under-served) beats hog's earlier submissions.
    assert order[1:] == [("hog", "interactive"), ("light", "batch"),
                         ("hog", "batch"), ("hog", "batch")]


def test_queue_shutdown_hands_leftovers_to_on_interrupted():
    store = RunStore()
    gate = threading.Event()
    interrupted = []
    queue = JobQueue(
        workers=1, depth=16,
        runner=lambda config, progress: (gate.wait(30.0), payload(config))[1],
        pool_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        on_interrupted=lambda r: interrupted.append(r.run_id),
    )
    queue.submit(record_for(store, 1))
    deadline = time.monotonic() + 5.0
    while queue.busy == 0:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    queue.submit(record_for(store, 2))
    queue.submit(record_for(store, 3))
    completed = queue.shutdown(drain=True, timeout=0.3)
    gate.set()
    assert completed is False
    assert sorted(interrupted) == [2, 3]


def test_stats_shape():
    policy = AdmissionPolicy(quota=4, clock=FakeClock())
    stats = policy.stats()
    assert set(stats) == {
        "quota", "quota_rejections", "clients", "active_runs",
        "queued_interactive", "queued_batch", "dispatched_interactive",
        "dispatched_batch", "mean_run_s",
    }
    assert stats["quota"] == 4.0


def test_invalid_construction_and_lane():
    with pytest.raises(ValueError):
        AdmissionPolicy(quota=-1)
    with pytest.raises(ValueError):
        AdmissionPolicy(half_life=0.0)
    policy = AdmissionPolicy()
    with pytest.raises(ValueError):
        policy.admit("alice", "warp-speed")
