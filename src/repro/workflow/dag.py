"""Workflow DAGs: the unit Condor-G/DAGMan executes.

Both virtual-data planners (Chimera/Pegasus, §4.1) and the CMS tools
(MCRunJob/MOP, §4.2) produce these.  Nodes carry a :class:`JobSpec`
each; edges are parent→child dependencies.  Node state tracking supports
DAGMan-style retries and rescue DAGs.

DAGMan asks a graph for a node's parents, a cycle check on each new
edge and the descendants of a failed node, so the graph is two plain
adjacency maps.  Each maps a node id to a ``Dict[str, None]`` used as an
insertion-ordered set: a repeated edge is a no-op, and every read lists
nodes in a fixed order whatever ``PYTHONHASHSEED`` is.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Set

from ..core.job import JobSpec


class NodeState(Enum):
    """DAGMan node lifecycle."""

    WAITING = "waiting"      # has unfinished parents
    READY = "ready"          # all parents done, not yet submitted
    SUBMITTED = "submitted"
    DONE = "done"
    FAILED = "failed"        # exhausted its retries
    UNREACHABLE = "unreachable"  # a parent failed


class DagNode:
    """One workflow step."""

    def __init__(self, node_id: str, spec: JobSpec, retries: int = 2,
                 pin_site: Optional[str] = None) -> None:
        self.node_id = node_id
        self.spec = spec
        #: DAGMan retries this node this many times before giving up.
        self.retries = retries
        #: Optional fixed target site (planners pin staging jobs).
        self.pin_site = pin_site
        self.state = NodeState.WAITING
        self.attempts_used = 0

    def __repr__(self) -> str:
        return f"<DagNode {self.node_id} {self.state.value}>"


class DAG:
    """A directed acyclic workflow graph."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._nodes: Dict[str, DagNode] = {}
        self._parents: Dict[str, Dict[str, None]] = {}
        self._children: Dict[str, Dict[str, None]] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    # -- construction ------------------------------------------------------
    def add_node(self, node: DagNode) -> DagNode:
        """Add a node; duplicate ids raise ValueError."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        self._parents[node.node_id] = {}
        self._children[node.node_id] = {}
        return node

    def add_job(self, node_id: str, spec: JobSpec, **kwargs) -> DagNode:
        """Convenience: create-and-add a node."""
        return self.add_node(DagNode(node_id, spec, **kwargs))

    def add_edge(self, parent_id: str, child_id: str) -> None:
        """Declare ``child`` depends on ``parent``; cycles are rejected."""
        if parent_id not in self._nodes or child_id not in self._nodes:
            raise KeyError("both endpoints must be added before the edge")
        if parent_id == child_id or parent_id in self._descendants(child_id):
            raise ValueError(f"edge {parent_id}->{child_id} creates a cycle")
        self._parents[child_id][parent_id] = None
        self._children[parent_id][child_id] = None

    # -- queries -------------------------------------------------------------
    def node(self, node_id: str) -> DagNode:
        return self._nodes[node_id]

    def nodes(self) -> List[DagNode]:
        """All nodes (insertion order)."""
        return list(self._nodes.values())

    def parents(self, node_id: str) -> List[DagNode]:
        """Direct parents, in the order their edges were added."""
        return [self._nodes[p] for p in self._parents[node_id]]

    def children(self, node_id: str) -> List[DagNode]:
        """Direct children, in the order their edges were added."""
        return [self._nodes[c] for c in self._children[node_id]]

    def _descendants(self, node_id: str) -> Set[str]:
        """Ids of every node reachable from ``node_id`` (not itself)."""
        seen: Set[str] = set()
        stack = [node_id]
        while stack:
            for child in self._children[stack.pop()]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def refresh_ready(self) -> List[DagNode]:
        """Promote WAITING nodes whose parents are all DONE; returns the
        nodes now in READY state (including previously promoted ones)."""
        for node in self._nodes.values():
            if node.state is NodeState.WAITING and all(
                p.state is NodeState.DONE for p in self.parents(node.node_id)
            ):
                node.state = NodeState.READY
        return [n for n in self._nodes.values() if n.state is NodeState.READY]

    def mark_unreachable_descendants(self, node_id: str) -> List[DagNode]:
        """After a node fails, mark everything downstream UNREACHABLE;
        returns the nodes it marked, in declaration order."""
        downstream = self._descendants(node_id)
        affected = []
        for node in self._nodes.values():
            if node.node_id in downstream and node.state in (
                    NodeState.WAITING, NodeState.READY):
                node.state = NodeState.UNREACHABLE
                affected.append(node)
        return affected

    # -- outcome -----------------------------------------------------------
    @property
    def finished(self) -> bool:
        """No node can make further progress."""
        return all(
            n.state in (NodeState.DONE, NodeState.FAILED, NodeState.UNREACHABLE)
            for n in self._nodes.values()
        )

    @property
    def succeeded(self) -> bool:
        return all(n.state is NodeState.DONE for n in self._nodes.values())

    def rescue_dag(self) -> "DAG":
        """A new DAG containing only the un-done work (DAGMan's rescue
        file): failed/unreachable/unfinished nodes, in declaration
        order, plus edges among them."""
        rescue = DAG(f"{self.name}-rescue")
        for old in self._nodes.values():
            if old.state is not NodeState.DONE:
                rescue.add_node(DagNode(old.node_id, old.spec,
                                        retries=old.retries,
                                        pin_site=old.pin_site))
        for parent, children in self._children.items():
            for child in children:
                if parent in rescue and child in rescue:
                    rescue.add_edge(parent, child)
        return rescue

    def counts(self) -> Dict[str, int]:
        """Node counts by state name (for progress reporting)."""
        out: Dict[str, int] = {}
        for node in self._nodes.values():
            out[node.state.value] = out.get(node.state.value, 0) + 1
        return out

    def __repr__(self) -> str:
        return f"<DAG {self.name} {len(self)} nodes {self.counts()}>"
