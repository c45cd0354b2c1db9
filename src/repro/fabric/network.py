"""Flow-level wide-area network model.

The paper's §6.4 lists *gatekeeper network bandwidth capacity* as a
primary site-selection criterion, and §6.3 reports a sustained 2 TB/day
(peaking near 4 TB/day) across Grid3.  To reproduce those numbers the
transfer substrate must model *contention*: many concurrent GridFTP flows
sharing site access links.

We use the classic flow-level abstraction: a transfer is a fluid flow
over a route (a list of links); at any instant the set of active flows
receives a **max-min fair** bandwidth allocation (iterative
water-filling), which is the standard first-order model of TCP sharing.
Rates are recomputed whenever a flow starts or ends or a link's capacity
changes (e.g. a simulated network interruption).  Between recomputations
each flow progresses linearly, so the event count per transfer is
O(active flows) instead of per-packet.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..errors import NetworkInterruptionError
from ..sim.engine import Engine, Event


class Link:
    """A unidirectional capacity-constrained network link."""

    __slots__ = ("name", "nominal_bandwidth", "bandwidth", "flows")

    def __init__(self, name: str, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise ValueError(f"link {name!r} bandwidth must be positive")
        self.name = name
        #: Configured capacity (bytes/s); restored after interruptions.
        self.nominal_bandwidth = float(bandwidth)
        #: Current capacity; 0 while interrupted.
        self.bandwidth = float(bandwidth)
        #: Active flows traversing this link.
        self.flows: set = set()

    @property
    def up(self) -> bool:
        """Whether the link currently carries traffic."""
        return self.bandwidth > 0

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.bandwidth/1e6:.0f} MB/s {len(self.flows)} flows>"


class Flow:
    """One in-progress bulk transfer over a fixed route."""

    __slots__ = (
        "network", "route", "size", "remaining", "rate", "started_at",
        "last_update", "done", "label",
    )

    def __init__(self, network: "Network", route: List[Link], size: float, label: str) -> None:
        self.network = network
        self.route = route
        self.size = float(size)
        self.remaining = float(size)
        self.rate = 0.0
        self.started_at = network.engine.now
        self.last_update = network.engine.now
        #: Completion event: value is the flow, failure is a
        #: NetworkInterruptionError if the flow was killed.
        self.done: Event = network.engine.event()
        self.label = label

    @property
    def transferred(self) -> float:
        """Bytes moved so far (exact at recompute instants)."""
        return self.size - self.remaining

    def eta(self) -> float:
        """Seconds until completion at the current rate (inf if stalled)."""
        if self.rate <= 0:
            return float("inf")
        return self.remaining / self.rate

    def __repr__(self) -> str:
        return f"<Flow {self.label} {self.remaining:.0f}/{self.size:.0f}B @{self.rate:.0f}B/s>"


class Network:
    """The Grid3 WAN: named links, max-min fair flow scheduling.

    The topology is supplied by the fabric builder: each site gets an
    uplink and a downlink (its access pipes); the WAN core is assumed
    uncongested, which matches the paper's observation that deployment
    problems were at site edges ("account privileges, ports, and
    firewalls", §6.3), not the backbone.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.links: Dict[str, Link] = {}
        self._flows: set = set()
        self._wakeup_version = 0
        #: Set by :func:`repro.fabric.topology.wire_backbone`; when True,
        #: Site.route_to inserts regional trunk links.
        self.backbone_enabled = False
        #: Cumulative bytes delivered, for Fig. 5-style accounting.
        self.total_bytes_delivered = 0.0
        #: Observers called as fn(flow) on each flow completion.
        self.on_flow_complete: List = []

    # -- topology -----------------------------------------------------------
    def add_link(self, name: str, bandwidth: float) -> Link:
        """Create and register a link.  Names must be unique."""
        if name in self.links:
            raise ValueError(f"duplicate link {name!r}")
        link = Link(name, bandwidth)
        self.links[name] = link
        return link

    def link(self, name: str) -> Link:
        """Look up a link by name."""
        return self.links[name]

    # -- link failures --------------------------------------------------------
    def set_link_bandwidth(self, name: str, bandwidth: float) -> None:
        """Change a link's current capacity (0 = interrupted)."""
        link = self.links[name]
        link.bandwidth = max(0.0, float(bandwidth))
        self._recompute()

    def interrupt_link(self, name: str, kill_flows: bool = False) -> None:
        """Take a link down.  With ``kill_flows`` the flows on it fail
        immediately (TCP reset); otherwise they stall until restore."""
        link = self.links[name]
        link.bandwidth = 0.0
        if kill_flows:
            for flow in list(link.flows):
                self.kill_flow(flow, reason=f"link {name} interrupted")
        self._recompute()

    def restore_link(self, name: str) -> None:
        """Bring a link back at its nominal capacity."""
        link = self.links[name]
        link.bandwidth = link.nominal_bandwidth
        self._recompute()

    # -- transfers ---------------------------------------------------------------
    def start_transfer(
        self, route_names: Sequence[str], size: float, label: str = ""
    ) -> Flow:
        """Begin a bulk transfer of ``size`` bytes along ``route_names``.

        Returns the :class:`Flow`; yield ``flow.done`` to wait for it.
        Zero-byte transfers complete immediately.
        """
        if size < 0:
            raise ValueError("transfer size cannot be negative")
        route = [self.links[name] for name in route_names]
        flow = Flow(self, route, size, label)
        if size == 0:
            flow.done.succeed(flow)
            return flow
        self._flows.add(flow)
        for link in route:
            link.flows.add(flow)
        self._recompute()
        return flow

    def kill_flow(self, flow: Flow, reason: str = "interrupted") -> None:
        """Abort a flow; its ``done`` event fails."""
        if flow not in self._flows:
            return
        self._detach(flow)
        flow.done.fail(NetworkInterruptionError(reason))
        self._recompute()

    @property
    def active_flows(self) -> List[Flow]:
        """Snapshot of in-flight flows."""
        return list(self._flows)

    # -- internals -------------------------------------------------------------
    def _detach(self, flow: Flow) -> None:
        self._flows.discard(flow)
        for link in flow.route:
            link.flows.discard(flow)

    def _advance_progress(self) -> None:
        """Move every flow forward at its current rate since last update."""
        now = self.engine.now
        for flow in self._flows:
            dt = now - flow.last_update
            if dt > 0 and flow.rate > 0:
                flow.remaining = max(0.0, flow.remaining - flow.rate * dt)
            flow.last_update = now

    def _maxmin_rates(self) -> None:
        """Water-filling max-min fair allocation over active flows."""
        unassigned = {f for f in self._flows}
        capacity = {link: link.bandwidth for link in self.links.values()}
        # Flows crossing a down link get rate 0 outright.
        for flow in list(unassigned):
            if any(not link.up for link in flow.route):
                flow.rate = 0.0
                unassigned.discard(flow)
        while unassigned:
            # Bottleneck link: smallest per-flow fair share.
            best_share = None
            best_link = None
            for link in self.links.values():
                n = sum(1 for f in link.flows if f in unassigned)
                if n == 0:
                    continue
                share = capacity[link] / n
                if best_share is None or share < best_share:
                    best_share = share
                    best_link = link
            if best_link is None:
                break
            for flow in list(best_link.flows):
                if flow not in unassigned:
                    continue
                flow.rate = best_share
                unassigned.discard(flow)
                for link in flow.route:
                    capacity[link] = max(0.0, capacity[link] - best_share)

    def _recompute(self) -> None:
        """Advance progress, complete finished flows, reallocate, re-arm."""
        self._advance_progress()
        # Complete anything that ran dry exactly now.  The threshold is
        # sub-byte but generous (1e-3 B): at large sim times the float
        # ulp on the clock times a multi-MB/s rate leaves microbyte
        # residues that must count as done, or the wakeup loop livelocks.
        finished = [f for f in self._flows if f.remaining <= 1e-3]
        for flow in finished:
            self._detach(flow)
            self.total_bytes_delivered += flow.size
            flow.done.succeed(flow)
            for observer in self.on_flow_complete:
                observer(flow)
        self._maxmin_rates()
        self._arm_wakeup()

    def _arm_wakeup(self) -> None:
        """Schedule the next completion instant (earliest flow ETA)."""
        self._wakeup_version += 1
        version = self._wakeup_version
        eta = min((f.eta() for f in self._flows), default=float("inf"))
        if eta == float("inf"):
            return
        # Overshoot slightly so clock-ulp rounding cannot leave the
        # finishing flow marginally incomplete and re-arm a zero-delay
        # wakeup forever.
        eta = eta * (1 + 1e-9) + 1e-6

        def _wake(_event: Event, version=version) -> None:
            if version == self._wakeup_version:
                self._recompute()

        timeout = self.engine.timeout(eta)
        timeout.callbacks.append(_wake)
