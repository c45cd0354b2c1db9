"""Tests for windowed eviction and the global MetricStore memory budget."""

from repro.monitoring.core import (
    SAMPLE_COST_BYTES,
    MemoryGovernor,
    MetricSample,
    MetricStore,
    make_tags,
)


def fill(store, n, name="cpu.busy", t0=0.0, dt=60.0):
    for i in range(n):
        store.append(MetricSample(t0 + i * dt, name, float(i), make_tags(site="S")))


def test_evict_oldest_window_folds_into_aggregates():
    store = MetricStore(window=3600.0)
    fill(store, 180, dt=60.0)  # 3 full hours
    before = store.window_stats("cpu.busy")
    evicted = store.evict_oldest_window()
    assert evicted == 60
    assert len(store) == 120
    assert store.evicted_sample_count == 60
    # Stats over the full horizon still answer identically: the folded
    # aggregates of the evicted hour are merged back in.
    after = store.window_stats("cpu.busy")
    assert after == before
    rows = store.evicted_windows("cpu.busy")
    assert len(rows) == 1
    wstart, stats = rows[0]
    assert wstart == 0.0
    assert stats["count"] == 60
    assert stats["min"] == 0.0 and stats["max"] == 59.0


def test_newest_window_never_evicted():
    store = MetricStore(window=3600.0)
    fill(store, 30, dt=60.0)  # everything inside one window
    assert store.evict_oldest_window() == 0
    assert len(store) == 30


def test_governor_keeps_aggregate_under_budget():
    budget_mb = 0.01  # ~65 samples
    governor = MemoryGovernor(budget_mb)
    stores = [MetricStore(window=600.0, governor=governor) for _ in range(3)]
    for i, store in enumerate(stores):
        fill(store, 200, name=f"m{i}", dt=30.0)
    live = sum(len(s) for s in stores)
    assert live * SAMPLE_COST_BYTES <= governor.budget_bytes
    assert governor.evicted_samples > 0
    assert governor.peak_bytes <= governor.budget_bytes
    # Nothing was lost from the windowed view: evicted samples still
    # count through the folded aggregates.
    for i, store in enumerate(stores):
        assert store.window_stats(f"m{i}")["count"] == 200


def test_governor_extend_batch_respects_budget():
    # Batches land whole, but the governor is notified *before* each
    # one and clears headroom, so sub-budget batches never overshoot.
    governor = MemoryGovernor(0.01)
    store = MetricStore(window=600.0, governor=governor)
    for start in range(0, 300, 30):
        store.extend([
            MetricSample(i * 30.0, "x", float(i), make_tags(site="S"))
            for i in range(start, start + 30)
        ])
    assert len(store) * SAMPLE_COST_BYTES <= governor.budget_bytes
    assert governor.report()["peak_bytes"] <= governor.budget_bytes


def test_governor_register_idempotent():
    governor = MemoryGovernor(1.0)
    store = MetricStore()
    governor.register(store)
    governor.register(store)
    assert governor.stores.count(store) == 1
    assert store.governor is governor


def test_governor_exhaustion_counted_not_spun():
    # One store, all samples in a single (un-evictable) window, budget
    # far too small: enforcement must record the exhaustion and stop.
    governor = MemoryGovernor(0.001, check_every=8)  # ~6 samples
    store = MetricStore(window=1e9, governor=governor)
    fill(store, 50, dt=1.0)
    assert len(store) == 50  # newest window is never evicted
    assert governor.exhausted_passes > 0


def test_window_stats_merges_live_and_evicted():
    store = MetricStore(window=100.0)
    fill(store, 30, dt=10.0)  # 3 windows of 10
    store.evict_oldest_window()
    # Query confined to the evicted hour: answered from the fold.
    first = store.window_stats("cpu.busy", since=0.0, until=99.0)
    assert first["count"] == 10
    assert first["mean"] == 4.5
    assert first["min"] == 0.0 and first["max"] == 9.0
    # Full-horizon query merges live samples and the fold.
    total = store.window_stats("cpu.busy")
    assert total["count"] == 30
    assert total["min"] == 0.0 and total["max"] == 29.0


def test_ungoverned_store_unchanged():
    # No governor: nothing evicts, no budget machinery engages.
    store = MetricStore()
    fill(store, 500)
    assert len(store) == 500
    assert store.evicted_sample_count == 0


def test_folded_window_ending_at_since_is_not_merged():
    """A folded window [wstart, wstart + window) that ends exactly at
    ``since`` lies outside [since, until] and must not be merged."""
    store = MetricStore(window=3600.0)
    for time, value in ((100.0, 5.0), (3700.0, 1.0), (7300.0, 1.0)):
        store.append(MetricSample(time, "m", value, make_tags(site="S")))
    before = store.window_stats("m", 3600.0, 8000.0)
    assert before["count"] == 2 and before["mean"] == 1.0
    assert store.evict_oldest_window() == 1
    assert store.window_stats("m", 3600.0, 8000.0) == before
