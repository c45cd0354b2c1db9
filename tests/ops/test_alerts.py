"""The alerting/SLO engine: rules, evaluation, the iGOC ticket loop."""

from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.monitoring.core import MetricSample, MetricStore
from repro.ops.alerts import (
    AlertEngine,
    AlertMonitor,
    AlertRule,
    default_rules,
    lint_rules,
    service_rules,
)
from repro.ops.igoc import IGOC
from repro.sim.engine import Engine
from repro.sim.units import HOUR


def up_series(store, values, step=HOUR, name="service.gatekeeper.up"):
    t = 0.0
    for value in values:
        store.append(MetricSample(t, name, value))
        t += step
    return t


def verdict(rule, store, now):
    """None without data in window, else whether ``rule`` fires."""
    value = rule.observe(store, now)
    return None if value is None else rule.fires(value)


class CountingStore:
    """Forwards the reads an alert rule makes to ``store``, counting each."""

    def __init__(self, store):
        self.store = store
        self.calls = Counter()

    def window_stats(self, *args):
        self.calls["window_stats"] += 1
        return self.store.window_stats(*args)

    def latest(self, name):
        self.calls["latest"] += 1
        return self.store.latest(name)


# -- rule validation --------------------------------------------------------

def test_rule_validation_rejects_bad_fields():
    good = AlertRule(name="r", metric="m", threshold=1.0)
    assert good.validate() is good
    for bad in (
        dict(name="", metric="m", threshold=1.0),
        dict(name="r", metric="", threshold=1.0),
        dict(name="r", metric="m", threshold=1.0, kind="nope"),
        dict(name="r", metric="m", threshold=1.0, op="!="),
        dict(name="r", metric="m", threshold=1.0, aggregate="median"),
        dict(name="r", metric="m", threshold=1.0, window=0.0),
        dict(name="r", metric="m", threshold=1.0, kind="burn_rate",
             slo_target=1.5),
        dict(name="r", metric="m", threshold=1.0, severity="mild"),
    ):
        with pytest.raises(ConfigurationError):
            AlertRule(**bad).validate()


def test_from_dict_rejects_unknown_keys():
    rule = AlertRule.from_dict(
        {"name": "r", "metric": "m", "threshold": 0.5})
    assert rule.threshold == 0.5
    with pytest.raises(ConfigurationError, match="unknown alert-rule key"):
        AlertRule.from_dict(
            {"name": "r", "metric": "m", "threshold": 0.5, "tresh": 1})


# -- evaluation -------------------------------------------------------------

def test_threshold_rule_windowed_mean():
    store = MetricStore()
    rule = AlertRule(name="down", metric="service.gatekeeper.up",
                     threshold=0.9, op="<", aggregate="mean",
                     window=6 * HOUR)
    assert verdict(rule, store, 0.0) is None  # no data yet
    now = up_series(store, [1, 1, 1, 1, 1, 1])
    assert verdict(rule, store, now) is False
    now = up_series(store, [0, 0, 0, 0])  # fleet sags
    assert verdict(rule, store, now + 10 * HOUR) is True or \
        verdict(rule, store, now) is True


def test_latest_aggregate_goes_stale_outside_window():
    store = MetricStore()
    store.append(MetricSample(0.0, "depth", 10.0))
    rule = AlertRule(name="backlog", metric="depth", threshold=5.0,
                     op=">=", aggregate="latest", window=100.0,
                     store="s")
    assert verdict(rule, store, 50.0) is True
    assert rule.observe(store, 50.0) == 10.0
    assert verdict(rule, store, 500.0) is None  # sample aged out


def test_burn_rate_rule():
    store = MetricStore()
    # 80% up against a 95% SLO: error rate 0.2 / budget 0.05 = 4x burn.
    now = up_series(store, [1, 1, 1, 1, 0])
    rule = AlertRule(name="burn", metric="service.gatekeeper.up",
                     kind="burn_rate", slo_target=0.95, threshold=2.0,
                     window=24 * HOUR)
    assert verdict(rule, store, now) is True
    assert rule.observe(store, now) == pytest.approx(4.0)
    # 100% up burns nothing.
    clean = MetricStore()
    now = up_series(clean, [1, 1, 1, 1, 1])
    assert verdict(rule, clean, now) is False
    assert rule.observe(clean, now) == 0.0


def test_each_rule_reads_its_store_once_per_poll():
    """One evaluation reads each rule's window (or latest sample) once,
    and the value it keeps is the value it compared."""
    store = MetricStore()
    now = up_series(store, [1, 0, 1, 1, 0, 1, 1, 0])
    up_series(store, [1, 1, 1, 1, 1, 1, 1, 1], name="service.gridftp.up")
    spy = CountingStore(store)
    engine = AlertEngine(default_rules(), {"service-health": spy})
    edges = engine.evaluate(now)
    assert spy.calls == {"window_stats": 3}
    for rule in engine.rules:
        state = engine.states[rule.name]
        assert state.last_value == rule.observe(store, now)
        assert state.firing == rule.fires(state.last_value)
    burn = engine.states["gatekeeper-slo-burn"]
    mean = store.window_stats("service.gatekeeper.up", now - 12 * HOUR, now)["mean"]
    assert burn.last_value == (1.0 - mean) / (1.0 - 0.95)
    assert [e.rule for e in edges] == ["gatekeeper-fleet-down",
                                       "gatekeeper-slo-burn"]
    assert [e.value for e in edges] == [engine.states[e.rule].last_value
                                        for e in edges]

    latest = AlertRule(name="backlog", metric="depth", threshold=5.0,
                       op=">=", aggregate="latest", window=100.0, store="s")
    store.append(MetricSample(now, "depth", 7.0))
    spy = CountingStore(store)
    engine = AlertEngine([latest], {"s": spy})
    assert [e.event for e in engine.evaluate(now + 1.0)] == ["fired"]
    assert spy.calls == {"latest": 1}
    assert engine.states["backlog"].last_value == 7.0


def test_engine_emits_edges_and_holds_state_on_missing_data():
    store = MetricStore()
    rule = AlertRule(name="down", metric="up", threshold=0.9, op="<",
                     aggregate="mean", window=2 * HOUR, store="s")
    engine = AlertEngine([rule], {"s": store})
    assert engine.evaluate(0.0) == []  # no data: no edge

    now = up_series(store, [0, 0], name="up")
    edges = engine.evaluate(now)
    assert [e.event for e in edges] == ["fired"]
    assert engine.firing()[0].rule.name == "down"
    # Level (still firing) produces no new edge.
    assert engine.evaluate(now) == []
    # Missing data (window moved past all samples) holds state.
    assert engine.evaluate(now + 100 * HOUR) == []
    assert engine.states["down"].firing

    now2 = up_series(store, [1, 1], name="up") + 100 * HOUR
    # Fresh healthy samples inside the window resolve it.
    for sample_time, value in ((now2, 1.0), (now2 + HOUR, 1.0)):
        store.append(MetricSample(sample_time, "up", value))
    edges = engine.evaluate(now2 + HOUR)
    assert [e.event for e in edges] == ["resolved"]
    assert engine.firing() == []
    assert [t.event for t in engine.history] == ["fired", "resolved"]


def test_engine_rejects_duplicate_rule_names():
    rule = AlertRule(name="r", metric="m", threshold=1.0)
    with pytest.raises(ConfigurationError, match="duplicate"):
        AlertEngine([rule, rule], {})


# -- the in-sim iGOC loop ---------------------------------------------------

def test_alert_monitor_opens_and_resolves_igoc_ticket():
    engine = Engine()
    igoc = IGOC(engine)
    store = MetricStore()
    rule = AlertRule(name="gatekeeper-fleet-down",
                     metric="service.gatekeeper.up",
                     threshold=0.9, op="<", aggregate="mean",
                     window=2 * HOUR, store="service-health",
                     severity="critical")
    monitor = AlertMonitor(engine, igoc, [rule],
                           {"service-health": store}, interval=HOUR)

    def feed():
        # Down for hours 1-4, healthy afterwards.
        while True:
            yield engine.timeout(HOUR)
            value = 0.0 if 1 * HOUR <= engine.now <= 4 * HOUR else 1.0
            store.append(MetricSample(
                engine.now, "service.gatekeeper.up", value))

    engine.process(feed(), name="feeder")
    engine.run(until=12 * HOUR)

    tickets = igoc.tickets.all_tickets(site="grid")
    assert len(tickets) == 1
    ticket = tickets[0]
    assert ticket.severity == "critical"
    assert ticket.assignee == "igoc"
    assert "gatekeeper-fleet-down" in ticket.description
    assert ticket.resolved_at > ticket.opened_at  # opened AND resolved
    assert any("cleared" in note for note in ticket.notes)
    assert monitor.evaluations > 0
    assert [t.event for t in monitor.alert_engine.history] == \
        ["fired", "resolved"]


def test_grid3_alerts_knob_wires_monitor():
    from repro.core.grid3 import Grid3, Grid3Config
    grid = Grid3(Grid3Config(scale=3000.0, duration_days=0.05,
                             apps=["exerciser"], seed=7, alerts=True))
    grid.run_full()
    assert grid.alert_monitor is not None
    names = [r.name for r in grid.alert_monitor.alert_engine.rules]
    assert "gatekeeper-fleet-down" in names
    off = Grid3(Grid3Config(scale=3000.0, duration_days=0.05,
                            apps=["exerciser"], seed=7))
    off.run_full()
    assert off.alert_monitor is None


# -- lint -------------------------------------------------------------------

def test_lint_rules_flags_unknown_metrics_and_dupes():
    rules = [
        AlertRule(name="a", metric="known", threshold=1.0),
        AlertRule(name="a", metric="known", threshold=1.0),
        AlertRule(name="b", metric="ghost", threshold=1.0),
    ]
    problems = lint_rules(rules, ["known"])
    assert any("duplicate" in p for p in problems)
    assert any("ghost" in p for p in problems)
    assert lint_rules([rules[0]], ["known"]) == []


def test_shipped_rule_sets_are_structurally_valid():
    sim_metrics = {rule.metric for rule in default_rules()}
    assert lint_rules(default_rules(), sim_metrics) == []
    live = service_rules(64, 2)
    assert lint_rules(live, {rule.metric for rule in live}) == []
    assert {rule.store for rule in live} == {"service"}
