#!/usr/bin/env python
"""Quickstart: deploy a scaled-down Grid3, run a week, read the metrics.

This is the smallest end-to-end use of the library: build the grid from
the 27-site catalog (scaled 200x down so it runs in seconds), deploy the
VDT middleware onto every site, launch all seven application
demonstrator classes, simulate seven days of operations, and print what
the monitoring stack saw.

Run:  python examples/quickstart.py
"""

from repro import Grid3, Grid3Config
from repro.analysis import render_table
from repro.sim import DAY, bytes_to_tb


def main() -> None:
    config = Grid3Config(
        seed=7,
        scale=200,          # 2800 CPUs -> ~looking-glass grid of ~60
        duration_days=7,
    )
    grid = Grid3(config)

    print("Deploying Grid3 (27 sites, VDT install)...")
    grid.deploy()
    print(f"  sites in the MDS index: {len(grid.mds['top'].query_all())}/27")
    print(f"  CPU slots (scaled): {grid.total_cpus()}")
    print(f"  registered users: {grid.registered_users()}")

    print("\nStarting the application demonstrators...")
    grid.start_applications()
    for name in grid.apps:
        print(f"  {name}")

    print("\nSimulating 7 days of production...")
    grid.run()
    grid.monitors["acdc"].poll_once()

    db = grid.acdc_db
    print(f"\nACDC job records: {len(db)}")
    print(f"overall job success rate: {db.success_rate():.1%}")
    print(f"failure breakdown: {db.failure_breakdown()}")
    print(f"data moved: {bytes_to_tb(grid.ledger.total_bytes()):.2f} TB (scaled)")

    rows = [
        (vo, len(db.records(vo=vo)), f"{db.success_rate(vo=vo):.0%}",
         f"{db.total_cpu_days(vo=vo):.1f}")
        for vo in db.vos()
    ]
    print("\nPer-VO summary:")
    print(render_table(["vo", "jobs", "success", "cpu-days"], rows))

    print("\nSite status page (first 8 rows):")
    for site, status, problems in grid.monitors["status"].status_page()[:8]:
        print(f"  {site:<16} {status:<6} {'; '.join(problems)}")


if __name__ == "__main__":
    main()
