"""Tests for the CSV export round-trip."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import (
    CSV_FIELDS,
    export_database,
    export_records,
    import_records,
    record_to_row,
    row_to_record,
)
from repro.monitoring.acdc import ACDCDatabase, JobRecord


def sample_record(i=1, ok=True):
    return JobRecord(
        job_id=i, name=f"job-{i}", vo="uscms", user="cms-user01",
        site="FNAL_CMS", submitted_at=1.5, started_at=100.25,
        finished_at=4000.125, runtime=3899.875, queue_time=98.75,
        succeeded=ok, failure_category="" if ok else "site",
        failure_type="" if ok else "StorageFullError",
        bytes_in=1e9, bytes_out=2.5e9,
    )


def test_row_roundtrip_exact():
    record = sample_record(ok=False)
    assert row_to_record(record_to_row(record)) == record


def test_row_length_validation():
    with pytest.raises(ValueError):
        row_to_record(["too", "short"])


def test_export_import_database():
    db = ACDCDatabase()
    for i in range(5):
        db.add(sample_record(i, ok=i % 2 == 0))
    text = export_database(db)
    assert text.splitlines()[0] == ",".join(CSV_FIELDS)
    restored = import_records(text)
    assert len(restored) == 5
    assert restored.records() == db.records()
    assert restored.success_rate() == db.success_rate()


def test_export_to_stream():
    buffer = io.StringIO()
    export_records([sample_record()], destination=buffer)
    assert "FNAL_CMS" in buffer.getvalue()


def test_import_rejects_bad_header():
    with pytest.raises(ValueError):
        import_records("not,a,real,header\n1,2,3,4\n")


@settings(max_examples=30, deadline=None)
@given(
    runtime=st.floats(min_value=0, max_value=1e7, allow_nan=False),
    nbytes=st.floats(min_value=0, max_value=1e13, allow_nan=False),
    ok=st.booleans(),
)
def test_property_roundtrip_preserves_floats(runtime, nbytes, ok):
    """Property: repr-based float serialisation is lossless."""
    record = JobRecord(
        job_id=1, name="j", vo="v", user="u", site="s",
        submitted_at=0.0, started_at=0.0, finished_at=runtime,
        runtime=runtime, queue_time=0.0, succeeded=ok,
        failure_category="", failure_type="", bytes_in=nbytes, bytes_out=0.0,
    )
    assert row_to_record(record_to_row(record)) == record
