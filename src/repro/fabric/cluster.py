"""Compute clusters: worker nodes and CPU slots.

A Grid3 site's farm is a set of :class:`WorkerNode`\\ s, each with a few
CPUs.  The batch system (``repro.scheduling``) decides *when* a job
starts; the cluster only answers *where* (which node has a free CPU) and
tracks what runs on each node so node-level failures — the "nightly roll
over of worker nodes" that burned ATLAS in §6.1 — can kill exactly the
processes running there.

Capacity queries (``free_cpus`` etc.) are maintained counters and
placement is a bucketed argmax, so per-dispatch cost no longer scales
with farm size: at synthetic-fabric scale (hundreds of sites, thousands
of nodes) the old O(nodes) scans per event dominated entire runs.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional

from ..sim.engine import Engine, Process

_MISSING = object()


class WorkerNode:
    """One machine: ``cpus`` slots and the jobs currently occupying them."""

    __slots__ = ("node_id", "cpus", "running", "online")

    def __init__(self, node_id: str, cpus: int) -> None:
        if cpus < 1:
            raise ValueError("node must have at least one CPU")
        self.node_id = node_id
        self.cpus = cpus
        #: Map of occupant key -> the Process to interrupt on failure.
        self.running: Dict[object, Optional[Process]] = {}
        self.online = True

    @property
    def free_cpus(self) -> int:
        """Unoccupied CPU slots (0 while offline)."""
        if not self.online:
            return 0
        return self.cpus - len(self.running)

    def __repr__(self) -> str:
        state = "up" if self.online else "down"
        return f"<Node {self.node_id} {len(self.running)}/{self.cpus} {state}>"


class Cluster:
    """A site's farm of worker nodes.

    Placement semantics are pinned: :meth:`allocate` picks the node
    with the *strictly maximal* free-CPU count, lowest list index
    breaking ties — exactly the old linear argmax scan, now served by
    per-free-count index heaps with lazy invalidation (amortized
    O(log nodes) instead of O(nodes) per placement).
    """

    def __init__(self, engine: Engine, name: str, nodes: int, cpus_per_node: int = 2) -> None:
        if nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.engine = engine
        self.name = name
        self.nodes: List[WorkerNode] = [
            WorkerNode(f"{name}-n{i:03d}", cpus_per_node) for i in range(nodes)
        ]
        #: Observers called as fn(node, occupant_key) when a running
        #: occupant is killed by a node event.
        self.on_eviction: List[Callable] = []
        self._recompute_placement()

    def _recompute_placement(self) -> None:
        """Recompute counters and placement heaps from node state."""
        self._total = sum(n.cpus for n in self.nodes)
        self._online_cpus = sum(n.cpus for n in self.nodes if n.online)
        self._busy = sum(len(n.running) for n in self.nodes)
        self._node_index = {id(n): i for i, n in enumerate(self.nodes)}
        # free count -> min-heap of node indices.  Entries go stale when
        # a node's free count moves on (or duplicate when it returns);
        # they are discarded lazily when popped (validity: node still
        # online with exactly that free count).  A max-heap of negated
        # counts tracks which buckets may hold the current maximum; it
        # holds exactly one key per existing bucket.
        self._by_free: Dict[int, List[int]] = {}
        self._free_keys: List[int] = []
        for i, node in enumerate(self.nodes):
            free = node.free_cpus
            if free > 0:
                self._push_free(i, free)

    def _push_free(self, index: int, free: int) -> None:
        bucket = self._by_free.get(free)
        if bucket is None:
            self._by_free[free] = [index]
            heapq.heappush(self._free_keys, -free)
        else:
            heapq.heappush(bucket, index)

    # -- capacity ----------------------------------------------------------
    @property
    def total_cpus(self) -> int:
        """All CPU slots, online or not."""
        return self._total

    @property
    def online_cpus(self) -> int:
        """CPU slots on online nodes."""
        return self._online_cpus

    @property
    def busy_cpus(self) -> int:
        """Occupied CPU slots."""
        return self._busy

    @property
    def free_cpus(self) -> int:
        """Slots available for new work right now.

        Occupants never survive on an offline node (node failure evicts
        them), so online minus busy is exact.
        """
        return self._online_cpus - self._busy

    @property
    def utilisation(self) -> float:
        """busy / total (not just online) — matches the paper's
        'percentage of resources used' metric definition (§7)."""
        total = self._total
        return self._busy / total if total else 0.0

    # -- placement -----------------------------------------------------------
    def allocate(self, occupant: object, process: Optional[Process] = None) -> Optional[WorkerNode]:
        """Place ``occupant`` on the least-loaded node with a free CPU.

        Returns the node, or None when the cluster is full.  ``process``
        (if given) is interrupted if the node later fails.
        """
        buckets = self._by_free
        keys = self._free_keys
        nodes = self.nodes
        while keys:
            free = -keys[0]
            bucket = buckets.get(free)
            while bucket:
                node = nodes[bucket[0]]
                if node.online and node.cpus - len(node.running) == free:
                    index = heapq.heappop(bucket)
                    node.running[occupant] = process
                    self._busy += 1
                    if free > 1:
                        self._push_free(index, free - 1)
                    if not bucket:
                        del buckets[free]
                        heapq.heappop(keys)
                    return node
                heapq.heappop(bucket)
            if free in buckets:
                del buckets[free]
            heapq.heappop(keys)
        return None

    def release(self, node: WorkerNode, occupant: object) -> None:
        """Free the CPU ``occupant`` held on ``node``."""
        if node.running.pop(occupant, _MISSING) is _MISSING:
            return
        self._busy -= 1
        if node.online:
            index = self._node_index.get(id(node))
            if index is not None:
                self._push_free(index, node.cpus - len(node.running))

    # -- node lifecycle ----------------------------------------------------------
    def fail_node(self, node: WorkerNode, cause: object = "node failure") -> List[object]:
        """Take a node down, interrupting everything running on it.

        Returns the evicted occupant keys.  The node stays offline until
        :meth:`restore_node`.
        """
        if node.online:
            self._online_cpus -= node.cpus
            self._busy -= len(node.running)
        node.online = False
        evicted = list(node.running.keys())
        for occupant, process in list(node.running.items()):
            for observer in self.on_eviction:
                observer(node, occupant)
            if process is not None and process.is_alive:
                process.interrupt(cause)
        node.running.clear()
        return evicted

    def restore_node(self, node: WorkerNode) -> None:
        """Bring a node back online."""
        if not node.online:
            self._online_cpus += node.cpus
            node.online = True
            index = self._node_index.get(id(node))
            if index is not None:
                self._push_free(index, node.free_cpus)

    def rollover(self, fraction: float, cause: object = "nightly rollover") -> List[object]:
        """Reboot a fraction of nodes simultaneously (ACDC's nightly
        maintenance, §6.1).  Running jobs on them are killed; nodes come
        back online immediately (the reboot is fast relative to jobs).
        Returns all evicted occupant keys."""
        count = max(1, int(len(self.nodes) * fraction))
        evicted: List[object] = []
        for node in self.nodes[:count]:
            evicted.extend(self.fail_node(node, cause))
            self.restore_node(node)
        return evicted

    def resize(self, new_nodes: int, cpus_per_node: Optional[int] = None) -> None:
        """Grow or shrink the farm (sites 'introduce and withdraw
        resources', §7).  Shrinking removes idle nodes first; busy nodes
        are never killed by a resize."""
        if new_nodes < 0:
            raise ValueError("node count cannot be negative")
        if new_nodes > len(self.nodes):
            per = cpus_per_node or (self.nodes[0].cpus if self.nodes else 2)
            start = len(self.nodes)
            for i in range(start, new_nodes):
                self.nodes.append(WorkerNode(f"{self.name}-n{i:03d}", per))
        else:
            removable = [n for n in self.nodes if not n.running]
            to_remove = len(self.nodes) - new_nodes
            for node in removable[:to_remove]:
                self.nodes.remove(node)
        # Indices shifted (and entries may reference removed nodes):
        # rebuild wholesale.  Resizes are rare operator events.
        self._recompute_placement()

    def __repr__(self) -> str:
        return f"<Cluster {self.name} {self.busy_cpus}/{self.total_cpus} cpus>"
