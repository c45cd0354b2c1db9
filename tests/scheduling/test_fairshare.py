"""Fair-share ledger and usage-policy invariants (unit level)."""

import math
import random

import pytest

from repro.fabric import GRID3_SITES, GRID3_VOS
from repro.scheduling import (
    FairShareLedger,
    PolicyEngine,
    UsagePolicy,
    paper_policies,
)
from repro.monitoring.core import make_tags
from repro.scheduling.policy import RUNTIME_CLASSES, runtime_class_for
from repro.sim import Engine
from repro.sim.units import DAY, HOUR


# -- FairShareLedger ------------------------------------------------------
def test_targets_normalised_and_equal_by_default():
    ledger = FairShareLedger(["a", "b", "c", "d"])
    assert all(abs(t - 0.25) < 1e-12 for t in ledger.targets.values())
    weighted = FairShareLedger(["a", "b"], targets={"a": 3.0, "b": 1.0})
    assert abs(weighted.targets["a"] - 0.75) < 1e-12


def test_priority_factor_is_one_on_idle_grid():
    ledger = FairShareLedger(GRID3_VOS)
    for vo in GRID3_VOS:
        assert ledger.priority_factor(vo, 0.0) == 1.0
        assert ledger.priority_factor(vo, 30 * DAY) == 1.0


def test_charge_decays_with_configured_half_life():
    ledger = FairShareLedger(["a", "b"], half_life=1 * DAY)
    ledger.charge("a", 1000.0, now=0.0)
    assert abs(ledger.decayed_usage("a", 1 * DAY) - 500.0) < 1e-6
    assert abs(ledger.decayed_usage("a", 2 * DAY) - 250.0) < 1e-6


def test_decayed_usage_never_negative_property():
    """Property: under arbitrary charge/query interleavings at arbitrary
    (monotone) times, decayed usage stays >= 0 and the priority factor
    stays inside its clip band."""
    rnd = random.Random(1234)
    ledger = FairShareLedger(GRID3_VOS, half_life=6 * HOUR)
    now = 0.0
    for _ in range(2000):
        now += rnd.expovariate(1.0 / HOUR)
        vo = rnd.choice(GRID3_VOS)
        if rnd.random() < 0.5:
            ledger.charge(vo, rnd.uniform(0.0, 50 * HOUR), now)
        for probe in GRID3_VOS:
            usage = ledger.decayed_usage(probe, now)
            assert usage >= 0.0
            factor = ledger.priority_factor(probe, now)
            assert ledger.min_factor <= factor <= ledger.max_factor


def test_underserved_vo_outranks_overserved():
    ledger = FairShareLedger(["hog", "starved"])
    for _ in range(10):
        ledger.charge("hog", 10 * HOUR, now=0.0)
    assert ledger.priority_factor("starved", 0.0) > 1.0
    assert ledger.priority_factor("hog", 0.0) < 1.0


def test_report_rows_are_records_with_sorted_json():
    ledger = FairShareLedger(["a", "b"])
    ledger.charge("a", 100.0, now=5.0)
    rows = ledger.report(now=5.0)
    assert [r.vo for r in rows] == ["a", "b"]
    for row in rows:
        as_dict = row.as_dict()
        assert set(as_dict) == {
            "vo", "target_share", "decayed_usage", "observed_share",
            "priority_factor", "charges",
        }
        assert row.to_json().startswith('{"charges":')


def test_ledger_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FairShareLedger([])
    with pytest.raises(ValueError):
        FairShareLedger(["a"], half_life=0.0)
    with pytest.raises(ValueError):
        FairShareLedger(["a", "b"], targets={"a": -1.0})


def test_fairshare_metrics_published():
    ledger = FairShareLedger(["a", "b"])
    ledger.charge("a", 100.0, now=10.0)
    usage = [s for s in ledger.store.query("sched.fairshare.usage")
             if s.tags == make_tags(vo="a")]
    priority = [s for s in ledger.store.query("sched.fairshare.priority")
                if s.tags == make_tags(vo="a")]
    assert len(usage) == 1 and usage[0].value == 100.0
    assert len(priority) == 1


# -- UsagePolicy ----------------------------------------------------------
def test_policy_allow_list_and_runtime_class():
    policy = UsagePolicy(
        site="X", allowed_vos=("uscms",), max_walltime=24 * HOUR,
    )
    assert policy.admits("uscms", 12 * HOUR)
    assert not policy.admits("sdss", 1 * HOUR)
    assert policy.rejection_reason("sdss", 1 * HOUR) == "vo-not-allowed"
    assert policy.rejection_reason("uscms", 48 * HOUR) == "runtime-class"
    assert policy.rejection_reason("uscms", 12 * HOUR) is None


def test_share_caps_and_max_running_floor():
    policy = UsagePolicy(
        site="X", share_caps=(("owner", 1.0), ("guest", 0.25)),
        default_share_cap=0.5,
    )
    assert policy.share_cap("owner") == 1.0
    assert policy.share_cap("guest") == 0.25
    assert policy.share_cap("unknown") == 0.5
    assert policy.max_running("guest", 8) == 2
    # Never starves a VO entirely: at least one slot.
    assert policy.max_running("guest", 1) == 1


def test_runtime_class_labels():
    assert runtime_class_for(10 * HOUR) == "short"
    assert runtime_class_for(72 * HOUR) == "production"
    assert runtime_class_for(30 * DAY) == "long"
    assert RUNTIME_CLASSES["long"] == math.inf


def test_paper_policies_cover_catalog_and_favor_owners():
    policies = paper_policies(GRID3_SITES, GRID3_VOS)
    assert set(policies) == {s.name for s in GRID3_SITES}
    for spec in GRID3_SITES:
        policy = policies[spec.name]
        owner_cap = policy.share_cap(spec.owner_vo)
        guests = [v for v in GRID3_VOS if v != spec.owner_vo]
        assert all(policy.share_cap(g) <= owner_cap for g in guests)
        if spec.tier1:
            assert all(policy.share_cap(g) == 0.25 for g in guests)
    # The reconstructed allow-lists actually restrict someone.
    assert not policies["KNU_Grid3"].admits("sdss", 1 * HOUR)
    assert policies["KNU_Grid3"].admits("uscms", 1 * HOUR)


# -- PolicyEngine ---------------------------------------------------------
def test_engine_counts_rejections_and_publishes_metric():
    engine = Engine()
    policies = {"X": UsagePolicy(site="X", allowed_vos=("uscms",))}
    pe = PolicyEngine(engine, policies, slots_per_site=10)
    assert pe.admits("X", "uscms", 1 * HOUR)
    assert not pe.admits("X", "sdss", 1 * HOUR)
    assert not pe.admits("X", "sdss", 1 * HOUR)
    assert pe.admits("unknown-site", "sdss", 1 * HOUR)  # no policy = open
    rows = pe.reject_rows()
    assert len(rows) == 1
    assert (rows[0].site, rows[0].vo, rows[0].reason, rows[0].count) == (
        "X", "sdss", "vo-not-allowed", 2,
    )
    samples = [s for s in pe.store.query("sched.policy.rejects")
               if {("site", "X"), ("vo", "sdss")} <= set(s.tags)]
    assert samples and samples[-1].value == 2.0


def test_engine_share_resources_sized_by_cap():
    engine = Engine()
    policies = {
        "X": UsagePolicy(
            site="X", share_caps=(("guest", 0.25),), default_share_cap=1.0,
        )
    }
    pe = PolicyEngine(engine, policies, slots_per_site=8)
    assert pe.cap_for("X", "guest") == 2
    assert pe.cap_for("X", "other") == 8
    assert pe.share_resource("X", "guest").capacity == 2
    # Unknown sites fall back to the full slot pool.
    assert pe.cap_for("elsewhere", "guest") == 8


def test_engine_peak_tracking_and_cap_violations():
    engine = Engine()
    pe = PolicyEngine(
        engine, {"X": UsagePolicy(site="X", default_share_cap=0.5)},
        slots_per_site=4,
    )
    pe.share_resource("X", "v")
    for _ in range(2):
        pe.note_start("X", "v")
    pe.note_finish("X", "v")
    rows = pe.share_rows()
    assert len(rows) == 1 and rows[0].peak == 2 and rows[0].cap == 2
    assert pe.cap_violations() == []
