"""The snapshot harness's history file, exit status and recorded keys
(no simulation runs)."""

import gc
import json
import pathlib

from benchmarks import record_bench

REPO = pathlib.Path(__file__).resolve().parent.parent


def entry(commit, mode="smoke", overhead_pct=3.0):
    return {
        "commit": commit, "mode": mode, "python": "3.12.0", "sections": {},
        "gates": [record_bench.gate("trace.overhead_pct", overhead_pct,
                                    "<=", 10.0)],
    }


def history(path):
    return json.loads(path.read_text())["history"]


def test_failing_gate_exits_1_after_the_entry_is_written(tmp_path):
    out = tmp_path / "BENCH.json"
    failing = entry("aaaaaaa", overhead_pct=11.0)
    assert failing["gates"] == [{"name": "trace.overhead_pct", "value": 11.0,
                                 "budget": "<= 10.0", "ok": False}]
    assert record_bench.record(str(out), failing) == 1
    assert history(out) == [failing]


def test_rerun_replaces_same_commit_and_mode_and_new_commit_appends(tmp_path):
    out = str(tmp_path / "BENCH.json")
    assert record_bench.record(out, entry("aaaaaaa", overhead_pct=11.0)) == 1
    assert record_bench.record(out, entry("bbbbbbb")) == 0
    assert record_bench.record(out, entry("aaaaaaa")) == 0
    assert record_bench.record(out, entry("aaaaaaa", mode="full")) == 0
    assert history(tmp_path / "BENCH.json") == [
        entry("aaaaaaa"), entry("bbbbbbb"), entry("aaaaaaa", mode="full"),
    ]


def test_committed_history_starts_at_the_seed_baseline():
    entries = history(REPO / "BENCH.json")
    assert entries[0]["commit"] == "800238b"
    assert "measured_at" in entries[0]
    for one in entries:
        assert {"commit", "mode", "python", "sections", "gates"} <= set(one)


def test_main_creates_a_missing_out_directory(tmp_path, monkeypatch):
    """``--out`` into a directory that does not exist yet: the trace
    sample and the history file both land there."""
    for name in ("bench_kernel", "bench_grid", "bench_store",
                 "bench_worker_sweep", "bench_scale", "bench_transfers",
                 "bench_progress", "bench_service", "bench_admission",
                 "bench_fairshare"):
        monkeypatch.setattr(record_bench, name, lambda smoke: {})

    def bench_trace(smoke, perfetto_out):
        pathlib.Path(perfetto_out).write_text("{}")
        return {}

    monkeypatch.setattr(record_bench, "bench_trace", bench_trace)
    monkeypatch.setattr(record_bench, "gate_table", lambda sections: [])
    monkeypatch.setattr(record_bench, "head_commit", lambda: "ccccccc")
    out = tmp_path / "new" / "BENCH.json"
    assert record_bench.main(["--smoke", "--out", str(out)]) == 0
    assert (tmp_path / "new" / "trace_sample.json").read_text() == "{}"
    assert [e["commit"] for e in history(out)] == ["ccccccc"]


def test_grid_section_records_records_and_events_per_scale(monkeypatch):
    """``grid_7day`` records the ACDC record count, the dispatched
    event count and the garbage collector's counters beside each
    scale's wall time: gen-2 collections during ``run_full`` only."""
    class StubGrid:
        def __init__(self, config):
            gc.collect()  # outside run_full: not counted
            self.acdc_db = [None] * int(config.scale)
            self.engine = type("StubEngine", (), {"dispatched": 0})()

        def run_full(self):
            self.engine.dispatched = 7 * len(self.acdc_db)
            gc.collect()

    monkeypatch.setattr(record_bench, "Grid3", StubGrid)
    out = record_bench.bench_grid(smoke=True)
    for scale in (400, 100):
        assert out[f"scale{scale}_records"] == scale
        assert out[f"scale{scale}_events"] == 7 * scale
        assert out[f"scale{scale}_gc_gen2"] == 1
        assert out[f"scale{scale}_gc_tracked"] > 0
    assert set(out) == {"duration_days"} | {
        f"scale{scale}_{key}" for scale in (400, 100)
        for key in ("s", "records", "events", "gc_gen2", "gc_tracked")}
    assert not any(getattr(cb, "__name__", "") == "count_gen2"
                   for cb in gc.callbacks)
