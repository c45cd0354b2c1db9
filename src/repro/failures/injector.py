"""Stochastic failure injection against live sites.

Each enabled failure class gets one process per site, drawing
exponential interarrival times from the site's named RNG stream so runs
are reproducible and adding a site never perturbs another site's
failure schedule.

Rates may be a single :class:`FailureProfile` or a time-varying
:class:`FailureSchedule` (the paper's shake-out-then-stable arc):
every draw consults the profile in force *now*; a class disabled in the
current era sleeps until the next era boundary.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from ..errors import ServiceFailureError
from ..sim.engine import Engine
from ..sim.rng import RngRegistry
from ..sim.units import DAY, HOUR
from .models import FailureProfile, FailureSchedule

#: Sleep used when a class is disabled and no further era switch exists.
_FOREVER = 3650 * DAY


class FailureInjector:
    """Drives a FailureProfile / FailureSchedule against a set of sites."""

    def __init__(
        self,
        engine: Engine,
        sites: Iterable,
        rng: RngRegistry,
        profile: Optional[Union[FailureProfile, FailureSchedule]] = None,
    ) -> None:
        self.engine = engine
        self.sites = list(sites)
        self.rng = rng
        if profile is None:
            profile = FailureProfile()
        if isinstance(profile, FailureProfile):
            self.schedule = FailureSchedule([(0.0, profile)])
        else:
            self.schedule = profile
        #: Event counters by class, for the failure-analysis reports.
        self.injected: Dict[str, int] = {
            "service": 0, "network": 0, "node": 0, "rollover": 0,
        }
        self.jobs_killed = 0
        self._start()

    # -- era plumbing -----------------------------------------------------
    def _profile(self) -> FailureProfile:
        return self.schedule.at(self.engine.now)

    def _any_era(self, attr: str) -> bool:
        """Whether any era enables the given rate attribute."""
        return any(
            getattr(profile, attr, None) for _t, profile in self.schedule.eras
        )

    def _rollover_sites(self) -> Dict[str, bool]:
        out: Dict[str, bool] = {}
        for _t, profile in self.schedule.eras:
            for name in profile.nightly_rollover:
                out[name] = True
        return out

    def _disabled_sleep(self) -> float:
        """How long to sleep when the current era disables a class."""
        next_switch = self.schedule.next_switch_after(self.engine.now)
        if next_switch is None:
            return _FOREVER
        return max(1.0, next_switch - self.engine.now)

    def _draw(self, stream: str, interval: Optional[float]) -> float:
        if not interval:
            return self._disabled_sleep()
        return self.rng.exponential(stream, interval)

    def _start(self) -> None:
        rollover_sites = self._rollover_sites()
        for site in self.sites:
            if self._any_era("service_failure_interval"):
                self.engine.process(
                    self._service_crash_loop(site), name=f"svc-fail-{site.name}"
                )
            if self._any_era("network_interruption_interval"):
                self.engine.process(
                    self._network_loop(site), name=f"net-fail-{site.name}"
                )
            if self._any_era("node_mtbf"):
                self.engine.process(
                    self._node_loop(site), name=f"node-fail-{site.name}"
                )
            if rollover_sites.get(site.name):
                self.engine.process(
                    self._rollover_loop(site), name=f"rollover-{site.name}"
                )

    # -- failure classes ------------------------------------------------------
    def _service_crash_loop(self, site):
        """A site service dies and stays down until repaired.

        GridFTP / gatekeeper outages fail only the work that touches
        them while down (stage-ins error, submissions bounce) — the
        substrate produces those failures naturally.  A *batch-system*
        crash is the §6.2 class that kills every running job at the
        site at once ("all jobs submitted to a site would die").
        """
        while True:
            p = self._profile()
            wait = self._draw(
                f"fail.service.{site.name}", p.service_failure_interval
            )
            yield self.engine.timeout(wait)
            p = self._profile()
            if not p.service_failure_interval:
                continue
            victim_role = self.rng.choice(
                f"fail.service.pick.{site.name}",
                ["gridftp", "gatekeeper", "batch"],
                weights=[1.0, 1.0, 2 * p.batch_crash_weight],
            )
            self.injected["service"] += 1
            if victim_role == "batch":
                lrm = site.services.get("lrm")
                if lrm is not None:
                    self.jobs_killed += lrm.interrupt_all(
                        ServiceFailureError(f"{site.name}: batch system crashed")
                    )
                # The batch system restarts with ops help; the
                # gatekeeper keeps bouncing submissions meanwhile.
                gatekeeper = site.services.get("gatekeeper")
                if gatekeeper is not None:
                    gatekeeper.fail("injected batch system crash")
                    yield self.engine.timeout(p.service_repair_time)
                    gatekeeper.restore(note="batch system restarted")
                continue
            service = site.services.get(victim_role)
            if service is None or not service.available:
                continue
            service.fail(f"injected {victim_role} crash")
            yield self.engine.timeout(p.service_repair_time)
            service.restore(note="injector repair")

    def _network_loop(self, site):
        """Access links drop, killing in-flight transfers (§6.1)."""
        while True:
            p = self._profile()
            wait = self._draw(
                f"fail.network.{site.name}", p.network_interruption_interval
            )
            yield self.engine.timeout(wait)
            p = self._profile()
            if not p.network_interruption_interval:
                continue
            network = site.network
            self.injected["network"] += 1
            network.interrupt_link(site.uplink.name, kill_flows=True)
            network.interrupt_link(site.downlink.name, kill_flows=True)
            yield self.engine.timeout(p.network_outage_duration)
            network.restore_link(site.uplink.name)
            network.restore_link(site.downlink.name)

    def _node_loop(self, site):
        """Single worker nodes die and get repaired (§7: sites 'replaced
        disks and/or nodes without perturbation to overall system
        operation' — individual jobs still die).

        The site's failure rate is node_count / node_mtbf, so a given
        job's mortality does not depend on how far the catalog was
        scaled down.
        """
        while True:
            p = self._profile()
            n_nodes = max(1, len(site.cluster.nodes))
            interval = p.node_mtbf / n_nodes if p.node_mtbf else None
            wait = self._draw(f"fail.node.{site.name}", interval)
            yield self.engine.timeout(wait)
            p = self._profile()
            if not p.node_mtbf:
                continue
            online = [n for n in site.cluster.nodes if n.online]
            if not online:
                continue
            node = self.rng.choice(f"fail.node.pick.{site.name}", online)
            self.jobs_killed += len(
                site.cluster.fail_node(node, cause=f"{node.node_id} hardware failure")
            )
            self.injected["node"] += 1
            yield self.engine.timeout(p.node_repair_time)
            site.cluster.restore_node(node)

    def _rollover_loop(self, site):
        """The ACDC nightly worker rollover (§6.1): at the configured
        hour every day, a fraction of nodes reboot, killing their jobs."""
        hour = self._profile().rollover_hour * HOUR
        # First occurrence: the next time the clock hits rollover_hour.
        now = self.engine.now
        first = (now // DAY) * DAY + hour
        if first <= now:
            first += DAY
        yield self.engine.timeout(first - now)
        while True:
            fraction = self._profile().nightly_rollover.get(site.name, 0.0)
            if fraction > 0:
                evicted = site.cluster.rollover(fraction, cause="nightly rollover")
                self.jobs_killed += len(evicted)
                self.injected["rollover"] += 1
            yield self.engine.timeout(DAY)
