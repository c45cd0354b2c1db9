"""Tests for the transfer ledger and the MDViewer figure queries."""

import pytest

from repro.monitoring.acdc import ACDCDatabase, JobRecord
from repro.monitoring.mdviewer import MDViewer
from repro.monitoring.transfers import TransferLedger
from repro.sim import DAY, GB, HOUR, SimCalendar, TB


def record(vo="usatlas", site="S0", start=0.0, end=DAY, user="alice", ok=True):
    return JobRecord(
        job_id=0, name="j", vo=vo, user=user, site=site,
        submitted_at=max(0.0, start - HOUR), started_at=start, finished_at=end,
        runtime=end - start, queue_time=HOUR, succeeded=ok,
        failure_category="" if ok else "site",
        failure_type="" if ok else "StorageFullError",
        bytes_in=0.0, bytes_out=0.0,
    )


# --- ledger -----------------------------------------------------------------

def test_ledger_record_and_totals():
    ledger = TransferLedger()
    ledger.record(0.0, "ivdgl", 2 * TB, "A", "B")
    ledger.record(DAY, "usatlas", 1 * TB, "B", "C", kind="stage-out")
    assert len(ledger) == 2
    assert ledger.total_bytes() == 3 * TB
    assert ledger.total_bytes(vo="ivdgl") == 2 * TB
    assert ledger.total_bytes(kind="stage-out") == 1 * TB
    assert ledger.bytes_by_vo() == {"ivdgl": 2 * TB, "usatlas": 1 * TB}


def test_ledger_validation():
    with pytest.raises(ValueError):
        TransferLedger().record(0.0, "vo", -1.0, "A", "B")


def test_ledger_daily_series_and_peak():
    ledger = TransferLedger()
    for day, tb in enumerate((1.0, 4.0, 2.0)):
        ledger.record(day * DAY + 100.0, "ivdgl", tb * TB, "A", "B")
    series = ledger.daily_series(0.0, 3 * DAY)
    assert series == [1 * TB, 4 * TB, 2 * TB]
    assert ledger.peak_daily_bytes(0.0, 3 * DAY) == 4 * TB


# --- MDViewer ----------------------------------------------------------------

@pytest.fixture
def viewer():
    db = ACDCDatabase()
    ledger = TransferLedger()
    return MDViewer(db, ledger=ledger, calendar=SimCalendar()), db, ledger


def test_integrated_cpu_by_vo(viewer):
    mdv, db, _ = viewer
    db.add(record(vo="usatlas", start=0.0, end=2 * DAY))
    db.add(record(vo="uscms", start=0.0, end=1 * DAY))
    db.add(record(vo="uscms", start=DAY, end=2 * DAY))
    fig2 = mdv.integrated_cpu_by_vo(0.0, 30 * DAY)
    assert fig2["usatlas"] == pytest.approx(2.0)
    assert fig2["uscms"] == pytest.approx(2.0)


def test_integrated_cpu_clips_to_window(viewer):
    mdv, db, _ = viewer
    db.add(record(start=0.0, end=10 * DAY))
    fig2 = mdv.integrated_cpu_by_vo(2 * DAY, 4 * DAY)
    assert fig2["usatlas"] == pytest.approx(2.0)


def test_differential_cpu_series(viewer):
    mdv, db, _ = viewer
    # Two 12 h jobs in day 0, one full-day job across days 0-1.
    db.add(record(start=0.0, end=0.5 * DAY))
    db.add(record(start=0.5 * DAY, end=DAY))
    db.add(record(start=0.0, end=2 * DAY))
    series = mdv.differential_cpu_series(0.0, 2 * DAY, bin_width=DAY)
    usatlas = dict(series["usatlas"])
    assert usatlas[0.0] == pytest.approx(2.0)   # 12h+12h+24h over 24h
    assert usatlas[DAY] == pytest.approx(1.0)


def test_cumulative_cpu_by_site(viewer):
    mdv, db, _ = viewer
    db.add(record(vo="uscms", site="FNAL", start=0.0, end=3 * DAY))
    db.add(record(vo="uscms", site="UCSD", start=0.0, end=1 * DAY))
    db.add(record(vo="usatlas", site="BNL", start=0.0, end=5 * DAY))
    fig4 = mdv.cumulative_cpu_by_site("uscms", 0.0, 150 * DAY)
    assert fig4 == {"FNAL": pytest.approx(3.0), "UCSD": pytest.approx(1.0)}


def test_data_consumed_and_cumulative(viewer):
    mdv, _db, ledger = viewer
    ledger.record(0.5 * DAY, "ivdgl", 2 * TB, "A", "B")
    ledger.record(1.5 * DAY, "ivdgl", 1 * TB, "A", "C")
    ledger.record(1.6 * DAY, "uscms", 0.5 * TB, "B", "C")
    fig5 = mdv.data_consumed_by_vo(0.0, 30 * DAY)
    assert fig5["ivdgl"] == 3 * TB
    cumulative = mdv.cumulative_data_series(0.0, 2 * DAY)
    assert cumulative[-1][1] == pytest.approx(3.5 * TB)
    assert cumulative[0][1] == pytest.approx(2 * TB)


def test_jobs_by_month(viewer):
    mdv, db, _ = viewer
    # Epoch is 2003-10-23; 10 days in is early November.
    db.add(record(start=0.0, end=DAY))                 # October 2003
    db.add(record(start=0.0, end=12 * DAY))            # November 2003
    db.add(record(start=0.0, end=12 * DAY, vo="uscms"))
    fig6 = mdv.jobs_by_month()
    assert fig6 == {"10-2003": 1, "11-2003": 2}
    by_vo = mdv.jobs_by_month_and_vo()
    assert by_vo["11-2003"] == {"usatlas": 1, "uscms": 1}


def test_peak_concurrent_jobs(viewer):
    mdv, db, _ = viewer
    # Three overlapping jobs, then one lone job.
    for start in (0.0, 0.1 * DAY, 0.2 * DAY):
        db.add(record(start=start, end=start + DAY))
    db.add(record(start=5 * DAY, end=6 * DAY))
    assert mdv.peak_concurrent_jobs(0.0, 10 * DAY) == 3


def test_utilisation_series():
    from repro.monitoring.core import make_tags
    from repro.monitoring.monalisa import MonALISARepository

    repo = MonALISARepository(bin_width=HOUR)
    for site, vo, cpus in (("A", "usatlas", 30.0), ("B", "uscms", 20.0)):
        key = ("vo.cpus_in_use", make_tags(site=site, vo=vo))
        repo.register_group([key]).write(HOUR / 2, (cpus,))
    mdv = MDViewer(ACDCDatabase(), repository=repo)
    series = mdv.utilisation_series(total_cpus=100)
    assert series == [(0.0, pytest.approx(0.5))]
    assert mdv.utilisation_series(0) == []
