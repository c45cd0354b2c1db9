"""Tests for the CMS MOP/MCRunJob toolchain and DIAL analysis."""

import pytest

from repro.sim import GB, HOUR, RngRegistry
from repro.workflow.dial import Dataset, DatasetCatalog, analysis_dag
from repro.workflow.mop import (
    MOP,
    OSCAR_SEC_PER_EVENT,
    ControlDatabase,
    MCRequest,
)


def test_mcrequest_validation():
    with pytest.raises(ValueError):
        MCRequest("r", n_events=0)
    with pytest.raises(ValueError):
        MCRequest("r", n_events=10, simulator="geant5")


def test_control_database_lifecycle():
    db = ControlDatabase()
    r1 = db.add_request(250)
    r2 = db.add_request(500, simulator="cmsim")
    assert len(db) == 2
    assert db.pending_count() == 2
    claimed = db.next_pending()
    assert claimed is r1 and r1.assigned
    assert db.pending_count() == 1
    db.mark_completed(r1.request_id)
    assert db.completed_events() == 250
    db.next_pending()
    assert db.next_pending() is None


def test_mop_builds_three_step_chain():
    mop = MOP(RngRegistry(1))
    req = MCRequest("req-00001", n_events=250)
    dag = mop.dag_for(req)
    assert len(dag) == 3
    assert [n.node_id for n in dag.nodes()] == ["gen", "sim", "digi"]
    assert [p.node_id for p in dag.parents("gen")] == []
    assert [p.node_id for p in dag.parents("sim")] == ["gen"]
    assert [p.node_id for p in dag.parents("digi")] == ["sim"]
    # Data flows: sim consumes gen's output; digi consumes sim's.
    assert dag.node("sim").spec.inputs[0][0] == "/cms/req-00001/gen.ntpl"
    assert dag.node("digi").spec.inputs[0][0] == "/cms/req-00001/sim.fz"
    assert mop.dags_written == 1


def test_oscar_jobs_are_long(eng):
    """§6.2: official OSCAR production jobs are long, some >30 h."""
    mop = MOP(RngRegistry(2))
    runtimes = []
    for i in range(50):
        req = MCRequest(f"r{i}", n_events=250, simulator="oscar")
        runtimes.append(mop.dag_for(req).node("sim").spec.runtime)
    mean = sum(runtimes) / len(runtimes)
    assert mean > 30 * HOUR  # 250 events * 450 s/evt = 31.25 h
    assert any(r > 30 * HOUR for r in runtimes)


def test_cmsim_shorter_than_oscar():
    mop = MOP(RngRegistry(3))
    oscar = mop.dag_for(MCRequest("a", 250, "oscar")).node("sim").spec
    cmsim = mop.dag_for(MCRequest("b", 250, "cmsim")).node("sim").spec
    assert cmsim.runtime < oscar.runtime


def test_mop_archives_at_fnal():
    mop = MOP(RngRegistry(4))
    dag = mop.dag_for(MCRequest("r", 100))
    assert all(n.spec.archive_site == "FNAL_CMS" for n in dag.nodes())
    assert all(n.spec.vo == "uscms" for n in dag.nodes())


# --- DIAL ---------------------------------------------------------------------

def make_catalog(n=3):
    catalog = DatasetCatalog()
    for i in range(n):
        catalog.register(
            Dataset(
                name=f"susy-{i:03d}",
                lfn=f"/atlas/dst/susy-{i:03d}",
                size=2 * GB,
                site="BNL_ATLAS",
                events=10_000,
            )
        )
    return catalog


def test_dataset_catalog_register_and_select():
    catalog = make_catalog(3)
    catalog.register(Dataset("higgs-000", "/atlas/dst/higgs", 1 * GB, "BNL_ATLAS", 500))
    assert len(catalog) == 4
    assert "susy-001" in catalog
    assert [d.name for d in catalog.select("susy-")] == ["susy-000", "susy-001", "susy-002"]
    assert catalog.lookup("higgs-000").events == 500


def test_analysis_dag_fan_out_fan_in():
    catalog = make_catalog(4)
    dag = analysis_dag(catalog, RngRegistry(5), user="susy-wg", prefix="susy-")
    assert len(dag) == 5  # 4 analysis + merge
    merge = dag.node("merge")
    assert len(dag.parents("merge")) == 4
    # The merge consumes every histogram.
    assert len(merge.spec.inputs) == 4
    # Analysis jobs read the datasets where they live.
    ana = dag.node("ana-susy-000")
    assert ana.spec.inputs[0][0] == "/atlas/dst/susy-000"
    assert ana.spec.archive_site == "BNL_ATLAS"


def test_analysis_dag_max_datasets():
    catalog = make_catalog(10)
    dag = analysis_dag(catalog, RngRegistry(5), user="u", max_datasets=3)
    assert len(dag) == 4


def test_analysis_dag_empty_selection_raises():
    with pytest.raises(ValueError):
        analysis_dag(make_catalog(2), RngRegistry(5), user="u", prefix="nope-")
