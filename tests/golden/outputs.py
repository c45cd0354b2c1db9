"""The user-visible outputs the golden suite pins, computed one way for
the test and for ``regenerate.py``."""

import hashlib
import json
from typing import Dict, List

from repro import Grid3, Grid3Config
from repro.analysis.compare import agreement_report, compare_run
from repro.analysis.figures import (
    figure2_integrated_cpu,
    figure3_differential_cpu,
    figure4_cms_by_site,
    figure5_data_consumed,
    figure6_jobs_by_month,
)
from repro.analysis.table1 import compute_table1, render_table1
from repro.failures import FailureProfile
from repro.monitoring import grid_exposition
from repro.monitoring.prometheus import grid_stores
from repro.ops.autovalidate import AutoValidator
from repro.scenarios import SCENARIOS
from repro.service import collect_reports
from repro.sim import MINUTE


def early_profile_grid() -> Grid3:
    """A week of the early (rough) failure profile with alerts on."""
    grid = Grid3(Grid3Config(seed=2, failures=FailureProfile.early(),
                             scale=200.0, duration_days=7.0, alerts=True))
    grid.run_full()
    return grid


def paper_catalog_grid() -> Grid3:
    """One day of the paper's 27-site catalog."""
    grid = Grid3(Grid3Config(seed=11, scale=400.0, duration_days=1.0))
    grid.run_full()
    return grid


def wide_fabric_grid() -> Grid3:
    """One quiet day of a 500-site synthetic fabric."""
    grid = Grid3(Grid3Config(
        seed=11, scale=400.0, duration_days=1.0,
        fabric={"sites": 500, "seed": 2003},
        apps=["usatlas", "ivdgl", "exerciser"],
        failures=FailureProfile.calm(),
    ))
    grid.run_full()
    return grid


def contention_grid() -> Grid3:
    """A traced week of multi-VO contention with data management on:
    the run that fills the plain ``sched``, ``trace`` and ``data``
    stores."""
    config = SCENARIOS["contention"](seed=11)
    config.tracing = True
    config.data_management = True
    grid = Grid3(config)
    grid.run_full()
    return grid


def alert_history(grid: Grid3) -> List[list]:
    """Every alert transition as [time, rule, event, value]."""
    return [[t.time, t.rule, t.event, t.value]
            for t in grid.alert_monitor.alert_engine.history]


def _family(line: str) -> str:
    if line.startswith("# TYPE "):
        return line.split()[2]
    return line.split("{")[0].split(" ")[0]


def exposition_lines(grid: Grid3, prefix: str) -> Dict[str, object]:
    """The family and label lines of the end-of-run exposition whose
    name starts with ``prefix``, without their values: count and sha256
    of the sorted lines."""
    keys = sorted(
        line if line.startswith("#") else line.rsplit(" ", 1)[0]
        for line in grid_exposition(grid).splitlines()
        if _family(line).startswith(prefix)
    )
    digest = hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()
    return {"count": len(keys), "sha256": digest}


def exposition(grid: Grid3) -> Dict[str, object]:
    """The whole end-of-run exposition: line count and sha256."""
    text = grid_exposition(grid)
    return {"lines": len(text.splitlines()),
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def store_queries(grid: Grid3) -> str:
    """sha256 over ``query(name)`` — (time, name, value, tags) of every
    retained sample — for every name of the ``sched``, ``trace`` and
    ``data`` stores."""
    digest = hashlib.sha256()
    stores = grid_stores(grid)
    for store_name in ("sched", "trace", "data"):
        store = stores[store_name]
        for name in store.names():
            for s in store.query(name):
                digest.update(repr((store_name, s.time, s.name, s.value,
                                    s.tags)).encode("utf-8"))
    return digest.hexdigest()


def monalisa(grid: Grid3) -> Dict[str, object]:
    """The MonALISA central repository: RRD count and sha256 over
    (key, ``series()``, ``samples_seen``, ``samples_dropped``) of every
    RRD, in creation order."""
    rrds = grid.monitors["monalisa"]._rrds
    digest = hashlib.sha256()
    for key, rrd in rrds.items():
        digest.update(repr((key, rrd.series(), rrd.samples_seen,
                            rrd.samples_dropped)).encode("utf-8"))
    return {"count": len(rrds), "sha256": digest.hexdigest()}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table1(grid: Grid3) -> str:
    """sha256 of the rendered Table 1."""
    return _sha256(render_table1(compute_table1(grid.acdc_db, grid.calendar)))


def score(grid: Grid3) -> str:
    """sha256 of the ``repro score`` agreement report."""
    return _sha256(agreement_report(compare_run(grid)))


def figures(grid: Grid3) -> str:
    """sha256 over the rendered Figures 2-6 over the whole run, scaled
    back up by the run's scale as ``repro figures`` does, plus the
    MDViewer utilisation series."""
    viewer = grid.viewer()
    t0, t1 = 0.0, grid.engine.now
    rescale = grid.config.scale
    texts = [
        figure2_integrated_cpu(viewer, t0, t1, rescale=rescale)[1],
        figure3_differential_cpu(viewer, t0, t1, rescale=rescale)[1],
        figure4_cms_by_site(viewer, t0, t1, rescale=rescale)[1],
        figure5_data_consumed(viewer, t0, t1, rescale=rescale)[1],
        figure6_jobs_by_month(viewer, rescale=rescale)[1],
        repr(viewer.utilisation_series(grid.total_cpus())),
    ]
    return _sha256("\n".join(texts))


def reports(grid: Grid3) -> str:
    """sha256 of the service report bytes: every servable report as
    sorted-key JSON."""
    return _sha256(json.dumps(collect_reports(grid), sort_keys=True))


def validator_reports() -> List[tuple]:
    """Every report of an AutoValidator on one rough install day (half
    the installs misconfigured, early failures, no iGOC team), so that
    both misconfiguration fixes and service restarts occur."""
    grid = Grid3(Grid3Config(seed=3, scale=400.0, duration_days=1.0,
                             failures=FailureProfile.early(),
                             misconfig_probability=0.5, ops_team=False))
    grid.deploy()
    validator = AutoValidator(grid.engine, list(grid.sites.values()),
                              interval=30 * MINUTE)
    grid.start_applications()
    grid.run()
    return [(r.time, r.site, r.problems_found, r.auto_fixed, r.escalated)
            for r in validator.reports]


def ops_texts(grid: Grid3) -> str:
    """sha256 over the operations texts: the grid's iGOC tickets
    (description, severity, notes, in ticket order), its Site Status
    Catalog page at the end of the run, and the auto-validator's
    reports."""
    tickets = [(t.description, t.severity, t.notes)
               for t in grid.igoc.tickets.all_tickets()]
    page = grid.monitors["status"].status_page()
    return _sha256(repr((tickets, page, validator_reports())))


def compute() -> Dict[str, object]:
    """Every pinned output, by pin name."""
    grid = early_profile_grid()
    contended = contention_grid()
    paper = paper_catalog_grid()
    wide = wide_fabric_grid()
    return {
        "contention_exposition": exposition(contended),
        "contention_store_queries": store_queries(contended),
        "early_profile_alert_history": alert_history(grid),
        "early_profile_service_health_lines": exposition_lines(
            grid, "repro_service_health_"),
        "ops_texts": ops_texts(grid),
        "paper_catalog_exposition": exposition(paper),
        "paper_catalog_figures": figures(paper),
        "paper_catalog_score": score(paper),
        "paper_catalog_table1": table1(paper),
        "wide_fabric_exposition": exposition(wide),
        "paper_catalog_monalisa": monalisa(paper),
        "paper_catalog_reports": reports(paper),
        "wide_fabric_monalisa": monalisa(wide),
    }
