"""Tests for the workflow DAG structure."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.job import JobSpec
from repro.sim import HOUR
from repro.workflow.dag import DAG, DagNode, NodeState


def spec(name="n"):
    return JobSpec(name=name, vo="sdss", user="astro", runtime=HOUR)


def chain(n=3):
    dag = DAG("chain")
    for i in range(n):
        dag.add_job(f"n{i}", spec(f"n{i}"))
        if i:
            dag.add_edge(f"n{i-1}", f"n{i}")
    return dag


def test_add_and_lookup():
    dag = chain(3)
    assert len(dag) == 3
    assert "n0" in dag and "nope" not in dag
    assert dag.node("n1").node_id == "n1"
    assert [p.node_id for p in dag.parents("n1")] == ["n0"]
    assert [c.node_id for c in dag.children("n1")] == ["n2"]


def test_duplicate_node_rejected():
    dag = chain(1)
    with pytest.raises(ValueError):
        dag.add_job("n0", spec())


def test_edge_endpoints_must_exist():
    dag = chain(2)
    with pytest.raises(KeyError):
        dag.add_edge("n0", "ghost")


def ids(nodes):
    return [n.node_id for n in nodes]


def test_cycle_rejected():
    dag = chain(3)
    with pytest.raises(ValueError):
        dag.add_edge("n2", "n0")
    # The offending edge was never added: the chain is still n0 -> n1 -> n2.
    assert ids(dag.parents("n0")) == []
    assert ids(dag.children("n2")) == []
    assert ids(dag.parents("n1")) == ["n0"]
    assert ids(dag.parents("n2")) == ["n1"]


def test_self_loop_rejected():
    dag = chain(2)
    with pytest.raises(ValueError):
        dag.add_edge("n0", "n0")
    assert ids(dag.parents("n0")) == []
    assert ids(dag.children("n0")) == ["n1"]


def test_rejected_cycle_leaves_adjacency_unchanged():
    dag = DAG("diamond")
    for nid in "abcd":
        dag.add_job(nid, spec(nid))
    for parent, child in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
        dag.add_edge(parent, child)
    before = {nid: (ids(dag.parents(nid)), ids(dag.children(nid)))
              for nid in "abcd"}
    for parent, child in (("d", "a"), ("d", "b"), ("c", "a")):
        with pytest.raises(ValueError):
            dag.add_edge(parent, child)
    after = {nid: (ids(dag.parents(nid)), ids(dag.children(nid)))
             for nid in "abcd"}
    assert after == before


def test_repeated_edge_is_listed_once():
    dag = DAG("fan-in")
    for nid in "abc":
        dag.add_job(nid, spec(nid))
    dag.add_edge("b", "c")
    dag.add_edge("a", "c")
    dag.add_edge("b", "c")
    # Parents keep the order their edges were first added.
    assert ids(dag.parents("c")) == ["b", "a"]
    assert ids(dag.children("b")) == ["c"]


def test_refresh_ready_promotes_roots_only():
    dag = chain(3)
    ready = dag.refresh_ready()
    assert [n.node_id for n in ready] == ["n0"]
    assert dag.node("n1").state is NodeState.WAITING


def test_refresh_ready_cascades_on_completion():
    dag = chain(3)
    dag.refresh_ready()
    dag.node("n0").state = NodeState.DONE
    ready = dag.refresh_ready()
    assert [n.node_id for n in ready] == ["n1"]


def test_unreachable_descendants():
    dag = DAG("tree")
    for nid in "abcd":
        dag.add_job(nid, spec(nid))
    dag.add_edge("a", "b")
    dag.add_edge("b", "c")
    dag.add_edge("a", "d")
    dag.node("b").state = NodeState.FAILED
    affected = dag.mark_unreachable_descendants("b")
    assert [n.node_id for n in affected] == ["c"]
    assert dag.node("d").state is NodeState.WAITING  # other branch untouched


def test_finished_and_succeeded():
    dag = chain(2)
    assert not dag.finished
    dag.node("n0").state = NodeState.DONE
    dag.node("n1").state = NodeState.DONE
    assert dag.finished and dag.succeeded
    dag.node("n1").state = NodeState.FAILED
    assert dag.finished and not dag.succeeded


def test_rescue_dag_keeps_undone_work():
    dag = chain(4)
    dag.node("n0").state = NodeState.DONE
    dag.node("n1").state = NodeState.DONE
    dag.node("n2").state = NodeState.FAILED
    dag.node("n3").state = NodeState.UNREACHABLE
    rescue = dag.rescue_dag()
    assert sorted(n.node_id for n in rescue.nodes()) == ["n2", "n3"]
    # The internal edge survives; edges to done nodes are dropped.
    assert [p.node_id for p in rescue.parents("n3")] == ["n2"]
    # Rescue nodes start fresh.
    assert all(n.state is NodeState.WAITING for n in rescue.nodes())


_DECLARATION_ORDER = """
from repro.core.job import JobSpec
from repro.sim import HOUR
from repro.workflow.dag import DAG, NodeState

def job(i):
    return JobSpec(name=f"s{i}", vo="sdss", user="astro", runtime=HOUR)

dag = DAG("wide")
for i in range(30):
    node = dag.add_job(f"step-{(i * 7) % 30}", job(i))
    if i % 4 == 0:
        node.state = NodeState.DONE
print(" ".join(n.node_id for n in dag.rescue_dag().nodes()))

fan = DAG("fan-out")
fan.add_job("root", job(0))
for i in range(12):
    fan.add_job(f"leaf-{(i * 5) % 12}", job(i))
    fan.add_edge("root", f"leaf-{(i * 5) % 12}")
print(" ".join(n.node_id for n in fan.mark_unreachable_descendants("root")))
"""


def test_node_lists_keep_declaration_order_under_any_hash_seed():
    """The rescue DAG and a failed node's unreachable descendants list
    nodes in the order they were declared, whatever ``PYTHONHASHSEED``
    the interpreter runs with."""
    rescue = [f"step-{(i * 7) % 30}" for i in range(30) if i % 4]
    leaves = [f"leaf-{(i * 5) % 12}" for i in range(12)]
    src = str(Path(repro.__file__).resolve().parents[1])
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _DECLARATION_ORDER],
                             env=env, capture_output=True, text=True,
                             check=True)
        rescue_line, leaves_line = out.stdout.splitlines()
        assert rescue_line.split() == rescue, seed
        assert leaves_line.split() == leaves, seed


def test_counts():
    dag = chain(2)
    dag.node("n0").state = NodeState.DONE
    assert dag.counts() == {"done": 1, "waiting": 1}
