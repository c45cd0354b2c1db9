"""Tests for Ganglia, MonALISA, ACDC and the Site Status Catalog."""

import pytest

from repro import Grid3, Grid3Config
from repro.core.job import Job, JobSpec
from repro.errors import StorageFullError
from repro.middleware.gram import Gatekeeper, attach_gatekeeper
from repro.middleware.gsi import Authenticator, GridMapFile
from repro.monitoring import ganglia, monalisa
from repro.monitoring.acdc import ACDCDatabase, ACDCJobMonitor, JobRecord
from repro.monitoring.core import MetricSample, make_tags
from repro.monitoring.ganglia import GangliaAgent, GangliaWeb
from repro.monitoring.monalisa import MonALISAAgent, MonALISARepository
from repro.monitoring.sitecatalog import SiteStatusCatalog, probe_site
from repro.scheduling.batch import BatchScheduler
from repro.scheduling.flavors import make_scheduler
from repro.sim import GB, HOUR, MINUTE

from ..conftest import make_site, wire_site


def spec(name="j", vo="usatlas", runtime=HOUR):
    return JobSpec(name=name, vo=vo, user="alice", runtime=runtime,
                   walltime_request=runtime * 4)


# --- Ganglia -----------------------------------------------------------------

def site_row(page, site, metric):
    """The newest ``metric`` sample of ``site`` on a Ganglia page, or None."""
    rows = [s for s in page.query(metric) if s.tags == make_tags(site=site)]
    return rows[-1] if rows else None


def site_value(central, site, metric):
    sample = site_row(central.store, site, metric)
    return sample.value if sample else None

def test_ganglia_agent_samples_cluster(eng, net):
    site = make_site(eng, net, "SiteA", cpus=4)
    central = GangliaWeb()
    GangliaAgent(eng, site, central, interval=5 * MINUTE)
    site.cluster.allocate("job-1")
    eng.run(until=6 * MINUTE)
    assert site_value(central, "SiteA", "cpu.total") == 4.0
    assert site_value(central, "SiteA", "cpu.busy") == 1.0
    assert site_value(central, "SiteA", "cpu.load") == pytest.approx(0.25)
    assert site.service("ganglia") is not None


def test_ganglia_net_bytes_are_deltas(eng, net):
    site = make_site(eng, net, "SiteA")
    central = GangliaWeb()
    agent = GangliaAgent(eng, site, central, interval=5 * MINUTE)
    gftp = site.service("gridftp")
    gftp.bytes_sent = 100.0
    eng.run(until=6 * MINUTE)
    assert site_value(central, "SiteA", "net.bytes") == 100.0
    eng.run(until=11 * MINUTE)
    assert site_value(central, "SiteA", "net.bytes") == 0.0  # no new traffic


def test_ganglia_stores_keep_latest_values_only(eng, net):
    central = GangliaWeb()
    agents = [GangliaAgent(eng, make_site(eng, net, f"S{i}", cpus=4), central,
                           interval=MINUTE) for i in range(3)]
    eng.run(until=100 * MINUTE)
    assert all(agent.producer.collections == 100 for agent in agents)
    assert [len(agent.local_store) for agent in agents] == [6, 6, 6]
    assert len(central.store) == 3 * 6
    assert site_row(central.store, "S2", "cpu.total").time == 100 * MINUTE
    assert site_value(central, "Ghost", "cpu.total") is None


def test_ganglia_collect_overwrites_the_row_and_delivers_nothing(eng, net, monkeypatch):
    built = []

    def counting_sample(*args, **kwargs):
        built.append(args)
        return MetricSample(*args, **kwargs)

    monkeypatch.setattr(ganglia, "MetricSample", counting_sample)
    site = make_site(eng, net, "SiteA", cpus=4)
    agent = GangliaAgent(eng, site, GangliaWeb(), interval=MINUTE)
    assert agent.collected_at is None and agent.readings == ()
    site.cluster.allocate("job-1")
    eng.run(until=3 * MINUTE)
    assert agent.producer.collections == 3 and built == []
    assert agent.collected_at == 3 * MINUTE
    assert agent.readings[:3] == (4.0, 1.0, 0.25)
    # Reading a page builds its samples; collecting never did.
    assert site_value(agent.central, "SiteA", "cpu.busy") == 1.0
    assert built


# --- MonALISA ---------------------------------------------------------------

def test_monalisa_agent_sensors(eng, net):
    site = make_site(eng, net, "SiteA", cpus=2)
    wire_site(eng, site, [("/CN=alice", "grid-usatlas")])
    repo = MonALISARepository(bin_width=MINUTE)
    MonALISAAgent(eng, site, repo, vos=["usatlas", "uscms"], interval=5 * MINUTE)
    lrm = site.service("lrm")
    lrm.submit(Job(spec=spec(runtime=30 * MINUTE)))
    lrm.submit(Job(spec=spec(name="j2", vo="uscms", runtime=30 * MINUTE)))
    eng.run(until=6 * MINUTE)
    assert repo.series("queue.running", site="SiteA")[-1][1] == 2.0
    assert repo.series("vo.cpus_in_use", site="SiteA", vo="usatlas")[-1][1] == 1.0
    assert repo.series("vo.cpus_in_use", site="SiteA", vo="uscms")[-1][1] == 1.0


def test_monalisa_gram_log_sensor_counts_new_entries(eng, net):
    site = make_site(eng, net, "SiteA", cpus=4)
    wire_site(eng, site, [("/CN=alice", "grid-usatlas")])
    repo = MonALISARepository(bin_width=MINUTE)
    MonALISAAgent(eng, site, repo, vos=["usatlas"], interval=5 * MINUTE)
    gk = site.service("gatekeeper")
    gk._record("submit", 1)
    gk._record("submit", 2)
    gk._record("done", 1)
    eng.run(until=6 * MINUTE)
    assert repo.series("gram.submits", site="SiteA")[-1][1] == 2.0
    assert repo.series("gram.completions", site="SiteA")[-1][1] == 1.0
    # Second pass sees nothing new.
    eng.run(until=11 * MINUTE)
    assert repo.series("gram.submits", site="SiteA")[-1][1] == 0.0


def test_monalisa_repository_aggregate(eng):
    """``series_matching`` returns every series of a name in first-write
    order, so its latest bins sum to the grid-wide total."""
    repo = MonALISARepository(bin_width=MINUTE)
    writes = [(make_tags(site="B", vo="usatlas"), 3.0),
              (make_tags(site="A", vo="usatlas"), 5.0),
              (make_tags(site="A", vo="uscms"), 2.0)]
    repo.register_group([("vo.cpus_in_use", tags) for tags, _value in writes]).write(
        30.0, [value for _tags, value in writes])
    repo.register_group([("queue.idle", make_tags(site="A"))]).write(30.0, (7.0,))
    matching = repo.series_matching("vo.cpus_in_use")
    assert list(matching) == [tags for tags, _value in writes]
    assert sum(series[-1][1] for series in matching.values()) == 10.0
    assert sum(series[-1][1] for tags, series in matching.items()
               if ("vo", "usatlas") in tags) == 8.0
    assert repo.series_matching("absent") == {}
    assert len(repo) == 4
    with pytest.raises(ValueError):
        repo.register_group([("queue.idle", make_tags(site="A"))])


def write_samples(repository, databases, samples):
    """What ``MonALISARepository.ingest`` did: write each sample into
    its per-series RRD, a one-series database per (name, tags) made on
    the key's first write."""
    for sample in samples:
        key = (sample.name, sample.tags)
        if key not in databases:
            databases[key] = repository.register_group([key])
        databases[key].write(sample.time, (sample.value,))


class SampleEmittingAgent:
    """The agent's collection as it was when each pass built a
    ``MetricSample`` per reading for the repository to ingest, walking
    the GRAM log and the running map: the reference the row-writing
    agent must match."""

    def __init__(self, site, vos):
        self.site = site
        #: gatekeeper -> log lines read (no line is evicted here).
        self._gram_log_cursors = {}
        self._tags = make_tags(site=site.name)
        self._vo_tags = {vo: make_tags(site=site.name, vo=vo) for vo in vos}

    def _gram_log_sensor(self, now, tags):
        gatekeeper = self.site.services.get("gatekeeper")
        if gatekeeper is None:
            return []
        cursor = self._gram_log_cursors.get(gatekeeper, 0)
        new_entries = list(gatekeeper.log)[cursor:]
        self._gram_log_cursors[gatekeeper] = len(gatekeeper.log)
        submits = sum(1 for e in new_entries if e[1] == "submit")
        dones = sum(1 for e in new_entries if e[1] == "done")
        fails = sum(1 for e in new_entries if e[1] in ("failed", "overload_reject"))
        return [
            MetricSample(now, "gram.submits", float(submits), tags),
            MetricSample(now, "gram.completions", float(dones), tags),
            MetricSample(now, "gram.failures", float(fails), tags),
            MetricSample(now, "gram.load", gatekeeper.load(), tags),
            MetricSample(now, "gram.managed", float(gatekeeper.managed_count), tags),
        ]

    def _queue_sensor(self, now, tags):
        lrm = self.site.services.get("lrm")
        if lrm is None:
            return []
        return [
            MetricSample(now, "queue.idle", float(lrm.queue_length), tags),
            MetricSample(now, "queue.running", float(lrm.running_count), tags),
        ]

    def _vo_activity_sensor(self, now):
        lrm = self.site.services.get("lrm")
        if lrm is None:
            return []
        vo_tags = self._vo_tags
        counts = dict.fromkeys(vo_tags, 0)
        for job, _node, _body in lrm._running.values():
            if job.vo in counts:
                counts[job.vo] += 1
        return [
            MetricSample(now, "vo.cpus_in_use", float(count), vo_tags[vo])
            for vo, count in counts.items()
        ]

    def collect(self, now):
        tags = self._tags
        samples = []
        samples.extend(self._gram_log_sensor(now, tags))
        samples.extend(self._queue_sensor(now, tags))
        samples.extend(self._vo_activity_sensor(now))
        ganglia = self.site.services.get("ganglia")
        if ganglia is not None:
            latest = ganglia.local_store.latest("cpu.busy")
            if latest is not None:
                samples.append(
                    MetricSample(now, "ganglia.cpu_busy", latest.value, tags)
                )
        return samples


def test_monalisa_agent_writes_what_sample_ingest_wrote(eng, net):
    repo = MonALISARepository(bin_width=30 * MINUTE)
    reference = MonALISARepository(bin_width=30 * MINUTE)
    reference_databases = {}
    vos = ["usatlas", "uscms", "usatlas", "ivdgl"]
    # SiteA: fully wired, with Ganglia (first value after MonALISA's
    # first pass).  SiteB: no Ganglia, gatekeeper attached later.
    site_a = make_site(eng, net, "SiteA", cpus=3)
    wire_site(eng, site_a, [("/CN=alice", "grid-usatlas")])
    GangliaAgent(eng, site_a, None, interval=15 * MINUTE)
    site_b = make_site(eng, net, "SiteB", cpus=2)
    site_b.attach_service("lrm", make_scheduler(eng, site_b))
    for site in (site_a, site_b):
        agent = MonALISAAgent(eng, site, repo, vos=vos, interval=10 * MINUTE)
        shadow = SampleEmittingAgent(site, vos)

        def collect(agent=agent, shadow=shadow):
            write_samples(reference, reference_databases, shadow.collect(eng.now))
            return agent._collect()

        agent.producer.collect = collect
        lrm = site.service("lrm")
        for i, vo in enumerate(["usatlas", "uscms", "sdss", "ivdgl"] * 3):
            lrm.submit(Job(spec=spec(name=f"{site.name}-{i}", vo=vo,
                                     runtime=(15 + 10 * i) * MINUTE)))

    lines = ["submit", "submit", "done", "failed", "overload_reject", "auth"]

    def write_log():
        gk_a = site_a.service("gatekeeper")
        for i in range(60):
            yield eng.timeout(7 * MINUTE)
            gk_a._record(lines[i % len(lines)], i)
            if i == 3:
                gk_b = attach_gatekeeper(
                    eng, site_b, Authenticator(eng, ["doegrids"], GridMapFile()))
            if i > 3:
                gk_b._record(lines[(i + 2) % len(lines)], i)

    eng.process(write_log())
    eng.run(until=6 * HOUR)

    assert list(repo._rrds) == list(reference._rrds)
    assert len(repo) == len(reference) > 0
    for key, rrd in reference._rrds.items():
        ours = repo._rrds[key]
        assert ours.series() == rrd.series(), key
        assert ours.samples_seen == rrd.samples_seen, key
        assert ours.samples_dropped == rrd.samples_dropped, key
    # The run covered what it claims to: failures counted, SiteB's GRAM
    # series created after its queue series, and no Ganglia at SiteB.
    keys = list(repo._rrds)
    b_tags = make_tags(site="SiteB")
    assert keys.index(("gram.submits", b_tags)) > keys.index(("queue.idle", b_tags))
    assert ("ganglia.cpu_busy", make_tags(site="SiteA")) in repo._rrds
    assert ("ganglia.cpu_busy", b_tags) not in repo._rrds
    assert sum(v for _t, v in repo.series("gram.failures", site="SiteA")) > 0
    assert len([tags for tags in repo.series_matching("vo.cpus_in_use")
                if ("site", "SiteA") in tags]) == 3


@pytest.mark.parametrize("broken", ["gatekeeper.load", "lrm.running_by_vo"])
def test_monalisa_collect_with_failing_sensor_writes_nothing(eng, net, monkeypatch, broken):
    site = make_site(eng, net, "SiteA", cpus=2)
    wire_site(eng, site, [("/CN=alice", "grid-usatlas")])
    GangliaAgent(eng, site, None, interval=MINUTE)
    repo = MonALISARepository(bin_width=MINUTE)
    agent = MonALISAAgent(eng, site, repo, vos=["usatlas"], interval=5 * MINUTE)
    site.service("gatekeeper")._record("submit", 1)
    site.service("lrm").submit(Job(spec=spec()))

    def fail(*_args):
        raise RuntimeError("sensor down")

    class BrokenCounts(dict):
        get = fail

    if broken == "gatekeeper.load":
        monkeypatch.setattr(Gatekeeper, "load", fail)
    else:
        monkeypatch.setattr(site.service("lrm"), "running_by_vo", BrokenCounts())
    eng.run(until=6 * MINUTE)
    assert agent.producer.errors == 1
    assert agent.producer.collections == 0
    assert len(repo) == 0


def test_grid_run_builds_no_samples_for_monalisa(monkeypatch):
    counts = {"samples": 0}

    def counting_sample(*args, **kwargs):
        counts["samples"] += 1
        return MetricSample(*args, **kwargs)

    monkeypatch.setattr(monalisa, "MetricSample", counting_sample, raising=False)
    grid = Grid3(Grid3Config(seed=11, scale=2000.0, duration_days=0.5))
    grid.run_full()
    assert counts == {"samples": 0}
    assert len(grid.monitors["monalisa"]) > 0


# --- ACDC -------------------------------------------------------------------

def test_job_record_from_job(eng, net):
    site = make_site(eng, net, "SiteA")
    sched = BatchScheduler(eng, site)
    job = Job(spec=spec(runtime=2 * HOUR))
    sched.submit(job)
    eng.run()
    record = JobRecord.from_job(job)
    assert record.vo == "usatlas"
    assert record.site == "SiteA"
    assert record.succeeded
    assert record.runtime == pytest.approx(2 * HOUR)
    assert record.failure_type == ""


def test_acdc_monitor_pulls_incrementally(eng, net):
    sites = []
    for i in range(2):
        site = make_site(eng, net, f"S{i}", cpus=4)
        wire_site(eng, site, [("/CN=alice", "grid-usatlas")])
        sites.append(site)
    monitor = ACDCJobMonitor(eng, sites, poll_interval=15 * MINUTE)
    for i, site in enumerate(sites):
        lrm = site.service("lrm")
        for j in range(3):
            lrm.submit(Job(spec=spec(name=f"s{i}j{j}", runtime=10 * MINUTE)))
    eng.run(until=16 * MINUTE)
    assert len(monitor.database) == 6
    # No duplicates on later polls.
    eng.run(until=46 * MINUTE)
    assert len(monitor.database) == 6
    assert monitor.database.success_rate() == 1.0


def test_acdc_database_queries():
    db = ACDCDatabase()
    for i in range(4):
        db.add(JobRecord(
            job_id=i, name=f"j{i}", vo="usatlas" if i < 3 else "uscms",
            user="alice", site="S0" if i % 2 == 0 else "S1",
            submitted_at=0.0, started_at=10.0, finished_at=100.0 + i,
            runtime=90.0, queue_time=10.0,
            succeeded=i != 1,
            failure_category="site" if i == 1 else "",
            failure_type="StorageFullError" if i == 1 else "",
            bytes_in=1.0, bytes_out=2.0,
        ))
    assert len(db.records(vo="usatlas")) == 3
    assert len(db.records(site="S0")) == 2
    assert len(db.records(succeeded=False)) == 1
    assert db.vos() == ["usatlas", "uscms"]
    assert db.sites() == ["S0", "S1"]
    assert db.success_rate(vo="usatlas") == pytest.approx(2 / 3)
    assert db.failure_breakdown() == {"site": 1}
    assert db.total_cpu_days() == pytest.approx(4 * 90.0 / 86400.0)
    assert len(db.records(since=102.5)) == 1


# --- Site Status Catalog -------------------------------------------------------

def test_probe_healthy_site(eng, net):
    site = make_site(eng, net, "SiteA")
    wire_site(eng, site, [])
    from repro.middleware.mds import GRIS
    site.attach_service("gris", GRIS(eng, site))
    result = probe_site(eng.now, site)
    assert result.ok


def test_probe_detects_problems(eng, net):
    site = make_site(eng, net, "SiteA", disk=1 * GB)
    wire_site(eng, site, [])
    from repro.middleware.mds import GRIS
    site.attach_service("gris", GRIS(eng, site))
    site.service("gatekeeper").available = False
    site.storage.store("/fill", 1 * GB)
    site.misconfigured = True
    result = probe_site(eng.now, site)
    assert not result.ok
    joined = " ".join(result.problems)
    assert "gatekeeper" in joined
    assert "full" in joined
    assert "configuration" in joined


def test_catalog_history_and_availability(eng, net):
    site = make_site(eng, net, "SiteA")
    wire_site(eng, site, [])
    from repro.middleware.mds import GRIS
    site.attach_service("gris", GRIS(eng, site))
    catalog = SiteStatusCatalog(eng, [site], probe_interval=HOUR)
    eng.run(until=2.5 * HOUR)  # two probes, both pass
    site.service("gridftp").available = False
    eng.run(until=4.5 * HOUR)  # two probes fail
    assert catalog.availability("SiteA") == pytest.approx(0.5)
    assert catalog.current_status("SiteA").ok is False
    page = catalog.status_page()
    assert page[0][0] == "SiteA" and page[0][1] == "FAIL"
    assert catalog.passing_sites() == []


def test_catalog_unknown_before_first_probe(eng, net):
    site = make_site(eng, net, "SiteA")
    catalog = SiteStatusCatalog(eng, [site], probe_interval=HOUR)
    assert catalog.status_page()[0][1] == "UNKNOWN"
    assert catalog.availability("SiteA") == 0.0
