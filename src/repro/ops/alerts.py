"""Declarative alerting over the monitoring estate: the iGOC ops loop.

Grid2003's operations centre turned telemetry into action: monitoring
feeds were watched, problems became trouble tickets, tickets drove
repairs (§5.2, §5.4 — and the INFN-Grid operations work formalised the
same rules → alarms → tickets structure).  This module is that loop as
data: an :class:`AlertRule` declares *when* a metric is a problem, an
:class:`AlertEngine` evaluates rule sets against
:class:`~repro.monitoring.MetricStore` windows, and an
:class:`AlertMonitor` runs the engine inside a simulation — a firing
rule opens an iGOC ticket, a clearing rule resolves it.

The same engine evaluates *live* against the HTTP service's scrape
history (see ``repro.service.app``), so one rule grammar covers both
the simulated grid and the service serving it.

Two rule kinds:

* ``threshold`` — aggregate the metric over a trailing window and
  compare (``mean(service.gatekeeper.up) < 0.9 over 6h``);
* ``burn_rate`` — SRE-style SLO burn: the error rate over the window,
  divided by the SLO's error budget (``1 - slo_target``), compared to
  a burn-rate threshold.  A burn rate of 1.0 spends the budget exactly
  at sustainable speed; firing at >= 2.0 means the budget is burning
  at least twice too fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, List, Optional

from ..core.results import ReportRecord
from ..errors import ConfigurationError
from ..monitoring.core import MetricStore
from ..sim.engine import Engine
from ..sim.units import HOUR
from .igoc import IGOC

#: Legal rule kinds and comparison operators.
KINDS = ("threshold", "burn_rate")
OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}
AGGREGATES = ("mean", "min", "max", "sum", "count", "latest")


@dataclass(frozen=True)
class AlertRule(ReportRecord):
    """One declarative alert condition over a metric window.

    ``store`` names which monitoring store holds the metric (a key of
    the engine's store registry — ``"service-health"``, ``"sched"``,
    ``"data"``, ``"trace"``, or ``"service"`` for the HTTP layer's own
    scrape history).  ``window`` is the trailing evaluation window in
    seconds.  For ``burn_rate`` rules the metric must be a 0/1-style
    up/success series; ``slo_target`` is the availability objective and
    ``threshold`` the burn-rate multiple that fires.
    """

    name: str
    metric: str
    threshold: float
    store: str = "service-health"
    kind: str = "threshold"
    op: str = "<"
    aggregate: str = "mean"
    window: float = 6 * HOUR
    slo_target: float = 0.95
    severity: str = "normal"
    description: str = ""

    def validate(self) -> "AlertRule":
        """Reject malformed rules with an actionable message."""
        if not self.name:
            raise ConfigurationError("alert rule needs a name")
        if not self.metric:
            raise ConfigurationError(f"rule {self.name!r} needs a metric")
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"rule {self.name!r}: kind={self.kind!r} not one of {KINDS}"
            )
        if self.op not in OPS:
            raise ConfigurationError(
                f"rule {self.name!r}: op={self.op!r} not one of "
                f"{tuple(OPS)}"
            )
        if self.aggregate not in AGGREGATES:
            raise ConfigurationError(
                f"rule {self.name!r}: aggregate={self.aggregate!r} not one "
                f"of {AGGREGATES}"
            )
        if not self.window > 0:
            raise ConfigurationError(
                f"rule {self.name!r}: window must be positive, got "
                f"{self.window!r}"
            )
        if self.kind == "burn_rate" and not 0.0 < self.slo_target < 1.0:
            raise ConfigurationError(
                f"rule {self.name!r}: slo_target must be within (0, 1), "
                f"got {self.slo_target!r}"
            )
        if self.severity not in ("low", "normal", "critical"):
            raise ConfigurationError(
                f"rule {self.name!r}: severity={self.severity!r} not one of "
                "('low', 'normal', 'critical')"
            )
        return self

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AlertRule":
        """Build and validate a rule from plain data (config files)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown alert-rule key(s) {unknown!r}; "
                f"accepted: {sorted(known)}"
            )
        return cls(**payload).validate()  # type: ignore[arg-type]

    def observe(self, store: MetricStore, now: float) -> Optional[float]:
        """The value this rule compares at ``now``, from one store read:
        the window aggregate, the latest sample, or for a ``burn_rate``
        rule the window's error rate over the SLO's error budget.
        None = no data in window."""
        since = now - self.window
        if self.kind != "burn_rate" and self.aggregate == "latest":
            sample = store.latest(self.metric)
            if sample is None or sample.time < since:
                return None
            return sample.value
        stats = store.window_stats(self.metric, since, now)
        if not stats["count"]:
            return None
        if self.kind == "burn_rate":
            return (1.0 - stats["mean"]) / (1.0 - self.slo_target)
        return stats[self.aggregate]

    def fires(self, value: float) -> bool:
        """Does the observed ``value`` make this rule fire?  A burn rate
        fires at or above its threshold whatever ``op`` says."""
        if self.kind == "burn_rate":
            return value >= self.threshold
        return OPS[self.op](value, self.threshold)


@dataclass
class AlertState:
    """Mutable per-rule evaluation state inside an engine."""

    rule: AlertRule
    firing: bool = False
    since: float = -1.0
    last_value: Optional[float] = None
    transitions: int = 0
    #: The iGOC ticket currently open for this alert (AlertMonitor).
    ticket_id: Optional[int] = None


@dataclass(frozen=True)
class AlertStatusRow(ReportRecord):
    """One rule's observable state (the ``/alerts`` wire row)."""

    name: str
    metric: str
    store: str
    kind: str
    severity: str
    firing: bool
    since: float
    value: Optional[float]
    threshold: float
    transitions: int
    description: str


@dataclass(frozen=True)
class AlertTransition(ReportRecord):
    """One fired/resolved edge in an engine's history."""

    time: float
    rule: str
    event: str  # "fired" | "resolved"
    value: Optional[float]
    severity: str


class AlertEngine:
    """Evaluate a rule set against a registry of metric stores.

    Stateful: tracks each rule's firing state across evaluations and
    records every transition, so callers see edges (fired/resolved),
    not just levels.  Rules whose ``store`` is missing from the
    registry or whose metric has no data in window hold their state
    (missing telemetry is not "resolved").
    """

    def __init__(
        self,
        rules: Iterable[AlertRule],
        stores: Dict[str, MetricStore],
    ) -> None:
        self.rules = [rule.validate() for rule in rules]
        names = [r.name for r in self.rules]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ConfigurationError(f"duplicate alert rule name(s) {dupes!r}")
        self.stores = dict(stores)
        self.states: Dict[str, AlertState] = {
            rule.name: AlertState(rule) for rule in self.rules
        }
        self.history: List[AlertTransition] = []

    def evaluate(self, now: float) -> List[AlertTransition]:
        """One evaluation pass; returns the transitions it produced."""
        edges: List[AlertTransition] = []
        for rule in self.rules:
            state = self.states[rule.name]
            store = self.stores.get(rule.store)
            if store is None:
                continue
            value = rule.observe(store, now)
            if value is None:
                continue
            verdict = rule.fires(value)
            state.last_value = value
            if verdict and not state.firing:
                state.firing = True
                state.since = now
                state.transitions += 1
                edges.append(AlertTransition(
                    time=now, rule=rule.name, event="fired",
                    value=state.last_value, severity=rule.severity,
                ))
            elif not verdict and state.firing:
                state.firing = False
                state.since = -1.0
                state.transitions += 1
                edges.append(AlertTransition(
                    time=now, rule=rule.name, event="resolved",
                    value=state.last_value, severity=rule.severity,
                ))
        self.history.extend(edges)
        return edges

    def firing(self) -> List[AlertState]:
        """Currently firing states, rule order."""
        return [self.states[r.name] for r in self.rules
                if self.states[r.name].firing]

    def status_rows(self) -> List[AlertStatusRow]:
        """Every rule's state as wire rows (rule order)."""
        return [
            AlertStatusRow(
                name=rule.name, metric=rule.metric, store=rule.store,
                kind=rule.kind, severity=rule.severity,
                firing=state.firing, since=state.since,
                value=state.last_value, threshold=rule.threshold,
                transitions=state.transitions,
                description=rule.description,
            )
            for rule in self.rules
            for state in (self.states[rule.name],)
        ]


class AlertMonitor:
    """The in-sim ops loop: a periodic process driving an AlertEngine.

    A rule's ``fired`` edge opens an iGOC trouble ticket (site
    ``"grid"`` — these are grid-level conditions, not single-site
    outages); its ``resolved`` edge notes and resolves that ticket.
    This reproduces the paper's telemetry → ticket → action loop at
    the aggregate level the iGOC actually watched.
    """

    def __init__(
        self,
        engine: Engine,
        igoc: IGOC,
        rules: Iterable[AlertRule],
        stores: Dict[str, MetricStore],
        interval: float = 1 * HOUR,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.engine = engine
        self.igoc = igoc
        self.alert_engine = AlertEngine(rules, stores)
        self.interval = interval
        self.evaluations = 0
        self.process = engine.process(self._run(), name="alert-monitor")

    def _run(self):
        while True:
            yield self.engine.timeout(self.interval)
            self.poll_once()

    def poll_once(self) -> List[AlertTransition]:
        """One evaluation + ticket reconciliation pass."""
        self.evaluations += 1
        edges = self.alert_engine.evaluate(self.engine.now)
        for edge in edges:
            state = self.alert_engine.states[edge.rule]
            rule = state.rule
            if edge.event == "fired":
                ticket = self.igoc.tickets.open_ticket(
                    "grid",
                    f"alert {rule.name}: {rule.metric} "
                    f"{rule.op} {rule.threshold:g} "
                    f"(observed {edge.value if edge.value is not None else '?'})",
                    severity=rule.severity,
                )
                self.igoc.tickets.assign(ticket.ticket_id, "igoc")
                state.ticket_id = ticket.ticket_id
            elif state.ticket_id is not None:
                self.igoc.tickets.add_note(
                    state.ticket_id,
                    f"alert {rule.name} cleared at t={edge.time:.0f}s "
                    f"(observed {edge.value if edge.value is not None else '?'})",
                )
                self.igoc.tickets.resolve(state.ticket_id)
                state.ticket_id = None
        return edges


def default_rules() -> List[AlertRule]:
    """The shipped in-sim rule set over the service-health estate.

    Conservative grid-level conditions the iGOC would page on: the
    gatekeeper/GridFTP fleets sagging below 90 % mean liveness over six
    hours, and the gatekeeper SLO (95 % up) burning at twice budget
    speed or faster over twelve hours.
    """
    return [
        AlertRule(
            name="gatekeeper-fleet-down",
            metric="service.gatekeeper.up",
            store="service-health",
            kind="threshold", aggregate="mean", op="<",
            threshold=0.9, window=6 * HOUR, severity="critical",
            description="mean gatekeeper liveness below 90% over 6h",
        ),
        AlertRule(
            name="gridftp-fleet-down",
            metric="service.gridftp.up",
            store="service-health",
            kind="threshold", aggregate="mean", op="<",
            threshold=0.9, window=6 * HOUR, severity="normal",
            description="mean GridFTP liveness below 90% over 6h",
        ),
        AlertRule(
            name="gatekeeper-slo-burn",
            metric="service.gatekeeper.up",
            store="service-health",
            kind="burn_rate", slo_target=0.95,
            threshold=2.0, window=12 * HOUR, severity="critical",
            description="gatekeeper 95% SLO error budget burning at "
                        ">=2x sustainable speed over 12h",
        ),
    ]


def service_rules(queue_depth: int, workers: int) -> List[AlertRule]:
    """The live rule set the HTTP service evaluates on each scrape.

    Windows are short wall-clock trailing windows (the scrape store's
    clock is seconds since service start).
    """
    return [
        AlertRule(
            name="queue-backlog",
            metric="service.queue.depth",
            store="service",
            kind="threshold", aggregate="latest", op=">=",
            threshold=max(1.0, 0.8 * queue_depth), window=600.0,
            severity="critical",
            description=f"job queue at >=80% of depth {queue_depth}",
        ),
        AlertRule(
            name="workers-saturated",
            metric="service.workers.utilization",
            store="service",
            kind="threshold", aggregate="mean", op=">=",
            threshold=1.0, window=300.0, severity="normal",
            description=f"all {workers} worker(s) busy for 5 minutes",
        ),
        AlertRule(
            name="runs-failing",
            metric="service.queue.failed",
            store="service",
            kind="threshold", aggregate="latest", op=">",
            threshold=0.0, window=3600.0, severity="normal",
            description="at least one run failed in the last hour's scrapes",
        ),
        AlertRule(
            name="quota-pressure",
            metric="service.admission.quota_rejections",
            store="service",
            kind="threshold", aggregate="latest", op=">",
            threshold=0.0, window=3600.0, severity="low",
            description="admission control rejected submissions over a "
                        "per-client quota (429s) in the last hour's scrapes",
        ),
    ]


def lint_rules(
    rules: Iterable[AlertRule], metric_names: Iterable[str]
) -> List[str]:
    """Validate a rule set against the real metric namespace.

    Returns a list of problems (empty = clean): structural validation
    failures plus any rule referencing a metric absent from
    ``metric_names``.  CI runs this over the shipped default sets so a
    renamed metric cannot silently orphan a rule.
    """
    problems: List[str] = []
    names = set(metric_names)
    seen: set = set()
    for rule in rules:
        try:
            rule.validate()
        except ConfigurationError as exc:
            problems.append(str(exc))
            continue
        if rule.name in seen:
            problems.append(f"duplicate rule name {rule.name!r}")
        seen.add(rule.name)
        if rule.metric not in names:
            problems.append(
                f"rule {rule.name!r} references unknown metric "
                f"{rule.metric!r} (store {rule.store!r})"
            )
    return problems
