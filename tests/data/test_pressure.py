"""Acceptance tests for the data subsystem (ISSUE acceptance criteria).

Three system-level guarantees:

* enabling management measurably reduces StorageFullError job failures
  in the disk-pressure scenario at the same seed,
* enabling management perturbs nothing for workloads that never touch
  it — same-seed runs export byte-identical databases, because every
  new random draw lives on dedicated ``data.*`` RNG streams, and
* a full archive fails the jobs that needed it instead of the run.
"""

import pytest

from repro.core.grid3 import Grid3, Grid3Config
from repro.scenarios import disk_pressure


def storage_full_failures(grid):
    return sum(
        1
        for r in grid.acdc_db.records(succeeded=False)
        if r.failure_type == "StorageFullError"
    )


def test_managed_storage_reduces_disk_full_failures():
    unmanaged = Grid3(disk_pressure(seed=11, managed=False))
    unmanaged.run_full()
    managed = Grid3(disk_pressure(seed=11, managed=True))
    managed.run_full()

    baseline = storage_full_failures(unmanaged)
    controlled = storage_full_failures(managed)
    assert baseline > 0, "scenario must actually produce disk pressure"
    assert controlled < baseline
    # The improvement came from the agent doing real work.
    assert managed.data is not None
    assert managed.data.agent.evictions > 0
    assert unmanaged.data is None


def test_data_management_is_byte_identical_when_unused():
    def run(flag):
        cfg = Grid3Config(
            seed=7, scale=600.0, duration_days=2.0,
            apps=["exerciser"], data_management=flag,
        )
        grid = Grid3(cfg)
        grid.run_full()
        from repro.analysis.export import export_database
        return export_database(grid.acdc_db)

    assert run(False) == run(True)


@pytest.mark.parametrize("managed", [False, True])
def test_image_strip_the_archive_cannot_take_fails_its_scans(managed):
    """At seed 5 an SDSS NEO unit needs a 1.5 GB imaging strip while the
    shrunken FNAL_CMS archive has less free: the run completes, and each
    scan of a refused strip is a failed job in ACDC with
    ``StorageFullError`` at the archive, like any other disk-full
    failure."""
    grid = Grid3(disk_pressure(seed=5, managed=managed))
    grid.run_full()
    scans = [r for r in grid.acdc_db.records() if r.name.startswith("neo-")]
    assert scans
    for record in scans:
        assert not record.succeeded
        assert record.failure_type == "StorageFullError"
        assert record.site == "FNAL_CMS"
