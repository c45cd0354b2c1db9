"""Ablation: monitoring-path redundancy (§5.2).

Paper: "The Grid3 monitoring and analysis system allows similar
information to be collected by different paths.  This redundancy might
appear unnecessary, but we have found that it has the advantage of
permitting crosschecks on the data collected."

The bench (a) cross-checks CPU consumption measured independently by
the ACDC job-record path and by the MonALISA VO-activity-sensor path,
and (b) disables the MonALISA path mid-run and shows the grid stays
observable through the others — which it would not be with a single
collection path.  A shorter run kills the other way: with every Ganglia
agent stopped, MonALISA's own sensors and ACDC keep observing, and
MonALISA's Ganglia pass-through repeats the last row Ganglia wrote.
"""

import pytest

from repro import Grid3, Grid3Config
from repro.failures import FailureProfile
from repro.monitoring.ganglia import METRICS
from repro.sim import DAY, HOUR


def run_grid(days=20, kill_day=12, kill="monalisa"):
    grid = Grid3(Grid3Config(
        seed=88, scale=300, duration_days=days,
        apps=["ivdgl", "exerciser", "btev"],
        failures=FailureProfile.disabled(),
        misconfig_probability=0.0,
    ))
    grid.deploy()
    grid.start_applications()
    grid.run(days=kill_day)
    # Kill one path for the remainder (its agents stop collecting).
    for site in grid.sites.values():
        agent = site.services.get(kill)
        if agent is not None:
            agent.producer.enabled = False
    grid.run()
    grid.monitors["acdc"].poll_once()
    return grid


def test_monitoring_redundancy(benchmark):
    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    viewer = grid.viewer()
    t_kill = 12 * DAY

    # (a) Cross-check while both paths were alive: CPU-seconds per the
    # ACDC job records vs the integral of MonALISA's hourly
    # vo.cpus_in_use samples.
    acdc_cpu_hours = sum(
        max(0.0, min(r.finished_at, t_kill) - max(r.started_at, 0.0))
        for r in grid.acdc_db.records()
        if r.started_at >= 0 and r.started_at < t_kill
    ) / HOUR
    repo = grid.monitors["monalisa"]
    monalisa_cpu_hours = 0.0
    for series in repo.series_matching("vo.cpus_in_use").values():
        monalisa_cpu_hours += sum(v for t, v in series if t < t_kill)

    print(f"\ncross-check (first 12 d): ACDC {acdc_cpu_hours:.0f} cpu-h vs "
          f"MonALISA {monalisa_cpu_hours:.0f} cpu-h")
    assert acdc_cpu_hours > 0 and monalisa_cpu_hours > 0
    # Sampled-integral vs exact-record agreement within a factor of 2
    # (hourly point sampling of short jobs undercounts; that is exactly
    # why Grid3 kept both paths).
    ratio = monalisa_cpu_hours / acdc_cpu_hours
    print(f"path agreement ratio: {ratio:.2f}")
    assert 0.3 <= ratio <= 3.0

    # (b) After the MonALISA path died, it went blind...
    post_kill_samples = sum(
        sum(1 for t, _v in series if t > t_kill + HOUR)
        for series in repo.series_matching("vo.cpus_in_use").values()
    )
    assert post_kill_samples == 0
    # ...but the grid stayed observable: ACDC kept harvesting records
    # and Ganglia kept answering.
    post_kill_records = [
        r for r in grid.acdc_db.records() if r.finished_at > t_kill + HOUR
    ]
    assert post_kill_records, "ACDC path lost with MonALISA — no redundancy"
    fresh = [
        agent for agent in grid.monitors["ganglia"].store.agents
        if agent.collected_at is not None
    ]
    assert len(fresh) == 27
    print(f"after MonALISA death: ACDC still harvested "
          f"{len(post_kill_records)} records; Ganglia fresh at {len(fresh)}/27 sites")


def test_monitoring_survives_ganglia_death(benchmark):
    grid = benchmark.pedantic(run_grid, kwargs=dict(days=6, kill_day=3, kill="ganglia"),
                              rounds=1, iterations=1)
    # Deploy takes under an hour, so the kill falls before ``after``.
    after = 3 * DAY + HOUR

    # Ganglia went stale: no row is newer than the kill.
    agents = grid.monitors["ganglia"].store.agents
    assert len(agents) == 27
    assert all(agent.collected_at < after for agent in agents)

    # MonALISA's own sensors kept writing...
    repo = grid.monitors["monalisa"]
    fresh = {
        name: sum(
            sum(1 for t, _v in series if t > after)
            for series in repo.series_matching(name).values()
        )
        for name in ("vo.cpus_in_use", "queue.idle", "queue.running")
    }
    assert all(fresh.values()), f"MonALISA went blind with Ganglia: {fresh}"
    # ...its Ganglia pass-through repeats the last row Ganglia wrote...
    cpu_busy = METRICS.index("cpu.busy")
    for agent in agents:
        series = repo.series("ganglia.cpu_busy", site=agent.site.name)
        assert {v for t, v in series if t > after} == {agent.readings[cpu_busy]}
    # ...and ACDC kept harvesting.
    post_kill_records = [
        r for r in grid.acdc_db.records() if r.finished_at > after
    ]
    assert post_kill_records, "ACDC path lost with Ganglia — no redundancy"
    print(f"\nafter Ganglia death: ACDC still harvested "
          f"{len(post_kill_records)} records; MonALISA bins written: {fresh}")
