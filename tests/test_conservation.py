"""System-wide conservation invariants under stress.

These are the "nothing leaks, nothing gets stuck" checks: whatever the
failure weather, every accepted job reaches a terminal state, every
resource slot is returned, storage accounting stays consistent, and the
monitoring stack's view agrees with ground truth.
"""

from collections import Counter

import pytest

from repro import Grid3, Grid3Config
from repro.core.job import JobState
from repro.failures import FailureProfile
from repro.sim import DAY, HOUR


def running_by_vo(lrm):
    """An LRM's running count per VO (zeros dropped), a count by VO over
    its running map, and its ``running_count``."""
    counts = {vo: n for vo, n in lrm.running_by_vo.items() if n}
    truth = Counter(job.vo for job, _node, _body in lrm._running.values())
    return counts, truth, lrm.running_count


@pytest.fixture(scope="module", params=["calm", "hostile"])
def stressed_grid(request):
    """Two regimes: quiet, and aggressively failing."""
    if request.param == "calm":
        failures = FailureProfile.disabled()
        misconfig = 0.0
    else:
        failures = FailureProfile(
            service_failure_interval=1 * DAY,
            batch_crash_weight=0.5,
            network_interruption_interval=2 * DAY,
            node_mtbf=60 * DAY,
            nightly_rollover={"UB_ACDC": 0.4},
        )
        misconfig = 0.4
    grid = Grid3(Grid3Config(
        seed=37, scale=300, duration_days=12,
        apps=["ivdgl", "btev", "exerciser", "gridftp-demo"],
        failures=failures,
        misconfig_probability=misconfig,
    ))
    grid.run_full()
    # The per-VO running counts while jobs still run, beside a recount.
    grid.window_end_running = {
        name: running_by_vo(site.service("lrm"))
        for name, site in grid.sites.items()
    }
    # Drain anything still in flight: run past the window until the
    # event heap quiesces (bounded extra time).
    grid.run(days=3)
    grid.monitors["acdc"].poll_once()
    return grid


def test_every_tracked_job_terminal(stressed_grid):
    """No job is left in a non-terminal state after the drain."""
    for site in stressed_grid.sites.values():
        lrm = site.service("lrm")
        assert lrm.running_count == 0, f"{site.name} still running jobs"
        for job in lrm.completed:
            assert job.state in (JobState.DONE, JobState.FAILED)


def test_no_cpu_slot_leaks(stressed_grid):
    """Busy CPUs at the end are local-load occupants only (keys start
    'local-'), never grid jobs."""
    for site in stressed_grid.sites.values():
        for node in site.cluster.nodes:
            for occupant in node.running:
                assert str(occupant).startswith("local-"), (
                    f"{site.name}/{node.node_id} leaked occupant {occupant}"
                )


def test_no_gridftp_connection_leaks(stressed_grid):
    for site in stressed_grid.sites.values():
        server = site.service("gridftp")
        assert server.connections.in_use == 0, (
            f"{site.name} leaked {server.connections.in_use} connections"
        )


def test_no_orphaned_network_flows(stressed_grid):
    # Demo/staging flows all completed or were killed; nothing dangles
    # after the drain (stalled flows on cut links would linger here).
    lingering = stressed_grid.network.active_flows
    assert len(lingering) == 0, f"{len(lingering)} flows still active"


def test_storage_accounting_consistent(stressed_grid):
    for site in stressed_grid.sites.values():
        se = site.storage
        assert se.used == pytest.approx(
            sum(f.size for f in se.files()), rel=1e-9
        )
        assert 0 <= se.used <= se.capacity + 1e-6
        assert se.reserved >= -1e-6


def test_gatekeeper_managed_sets_drain(stressed_grid):
    for site in stressed_grid.sites.values():
        gk = site.service("gatekeeper")
        assert gk.managed_count == 0, (
            f"{site.name} gatekeeper still manages {gk.managed_count} jobs"
        )


def test_acdc_saw_every_lrm_completion(stressed_grid):
    total_completed = sum(
        len(site.service("lrm").completed)
        for site in stressed_grid.sites.values()
    )
    assert len(stressed_grid.acdc_db) == total_completed


def test_condorg_bookkeeping_balances(stressed_grid):
    for vo, cg in stressed_grid.condorg.items():
        assert cg.completed + cg.failed <= cg.submitted
        # Every submission eventually resolved (no handle stuck pending).
        assert cg.completed + cg.failed == cg.submitted, (
            f"{vo}: {cg.submitted - cg.completed - cg.failed} handles unresolved"
        )


def test_running_by_vo_counts_the_running_map(stressed_grid):
    """MonALISA's VO sensor reads each LRM's running count per VO: it is
    a count by VO over the running map and sums to ``running_count``,
    at the window's end (jobs on worker nodes) and after the drain."""
    after_drain = {name: running_by_vo(site.service("lrm"))
                   for name, site in stressed_grid.sites.items()}
    for snapshot in (stressed_grid.window_end_running, after_drain):
        for name, (counts, truth, running) in snapshot.items():
            assert counts == truth, name
            assert sum(counts.values()) == running, name
    assert sum(running for _c, _t, running
               in stressed_grid.window_end_running.values()) > 0


def test_gram_line_counts_match_the_log(stressed_grid):
    """MonALISA's GRAM sensor reads each gatekeeper's running line count
    per event: it is a count over the GRAM log, which evicted no line
    in these runs."""
    lines = 0
    for site in stressed_grid.sites.values():
        gk = site.service("gatekeeper")
        assert len(gk.log) < gk.LOG_LIMIT, site.name
        assert gk.log_lines == Counter(entry[1] for entry in gk.log), site.name
        lines += len(gk.log)
    assert lines > 0
