"""Differential test: one-pass :class:`SiteSelector` against the
per-candidate selector it replaced.

``ReferenceSelector`` below is a frozen copy of the earlier
``admissible``/``_score``/``rank``/``select``, which filtered and scored
one candidate at a time (recomputing every per-job term and drawing one
jitter value per candidate) and sorted the whole list on every
selection.  A hypothesis property drives the same random sequence of
``select``/``rank``/``record_use``/fair-share charges through both at
the same seed and asserts identical answers and bit-identical scores,
then identical RNG stream states and an identical fair-share ledger.
"""

from __future__ import annotations

import math
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import JobSpec
from repro.scheduling.fairshare import FairShareLedger
from repro.scheduling.matchmaking import SiteSelector
from repro.sim import GB, HOUR, RngRegistry

SITES = [f"S{i}" for i in range(7)]
VOS = ["usatlas", "uscms", "ivdgl"]
STREAMS = ("matchmaker.jitter", "matchmaker.explore", "matchmaker.explore.pick")


class ReferenceSelector(SiteSelector):
    """The per-candidate selector, kept verbatim as the reference."""

    @staticmethod
    def admissible(record, spec):
        if spec.requires_outbound and not record.get("outbound_connectivity"):
            return False
        if float(record.get("se_free", 0.0)) < spec.local_disk_footprint:
            return False
        if spec.walltime_request > float(record.get("max_walltime", 0.0)):
            return False
        return True

    def candidates(self, spec, exclude=()):
        excluded = set(exclude)
        return [
            rec
            for rec in self.giis.active_records()
            if rec["site"] not in excluded and self.admissible(rec, spec)
        ]

    def _score(self, record, spec):
        total = max(1, int(record.get("total_cpus", 1)))
        free_frac = int(record.get("free_cpus", 0)) / total
        bandwidth = max(1.0, float(record.get("access_bandwidth", 1.0)))
        bw_term = math.log10(bandwidth) / 9.0
        data_intensity = 1.0 if spec.input_bytes + spec.output_bytes > 1e9 else 0.3
        score = self.bandwidth_weight * bw_term * data_intensity
        free_weight = self.free_cpu_weight
        if self.fairshare is not None:
            now = self.clock() if self.clock is not None else 0.0
            free_weight *= self.fairshare.priority_factor(spec.vo, now)
        score += free_weight * free_frac
        wait = float(record.get("estimated_wait", 0.0))
        score -= min(2.0, wait / 3600.0)
        if record.get("owner_vo") == spec.vo:
            score += self.vo_affinity_weight
        favs = self._favorites.get((spec.vo, spec.user), {})
        count = favs.get(record["site"], 0)
        if count:
            total_count = sum(favs.values())
            score += self.favorite_weight * (count / total_count)
        score += self.rng.uniform("matchmaker.jitter", 0.0, self.jitter)
        return score

    def rank(self, spec, exclude=()):
        scored = [
            (self._score(rec, spec), str(rec["site"]))
            for rec in self.candidates(spec, exclude)
        ]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        return [site for _score, site in scored]

    def select(self, spec, exclude=()):
        ranked = self.rank(spec, exclude)
        if not ranked:
            return None
        if len(ranked) > 1 and self.rng.bernoulli(
            "matchmaker.explore", self.exploration
        ):
            return self.rng.choice("matchmaker.explore.pick", ranked)
        return ranked[0]


class SnapshotGIIS:
    """A GIIS stand-in serving one of several fixed snapshots.

    ``active_records`` keeps the real index's contract: the current
    snapshot's records, in index order.
    """

    def __init__(self, snapshots: List[List[Dict[str, object]]]) -> None:
        self.snapshots = snapshots
        self.current = 0

    def active_records(self):
        return list(self.snapshots[self.current])


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# Small value pools so that equal records, and hence score ties, are common.
_record = st.fixed_dictionaries(
    {
        "se_free": st.sampled_from([10 * GB, 500 * GB, 2e12, 2e12]),
        "max_walltime": st.sampled_from([12 * HOUR, 48 * HOUR, 200 * HOUR, 200 * HOUR]),
    },
    # Absent keys exercise the selector's defaults.
    optional={
        "outbound_connectivity": st.booleans(),
        "total_cpus": st.integers(min_value=0, max_value=64),
        "free_cpus": st.integers(min_value=0, max_value=64),
        "access_bandwidth": st.sampled_from([0.5, 5.6e6, 1.25e8, 1.25e9]),
        "estimated_wait": st.sampled_from([0.0, 1800.0, 3 * HOUR, 10 * HOUR]),
        "owner_vo": st.sampled_from(VOS),
    },
)


@st.composite
def _snapshot(draw):
    names = draw(st.permutations(SITES))[: draw(st.integers(1, len(SITES)))]
    base = draw(_record)
    # Some sites copy one record exactly, so their scores tie on jitter=0.
    return [
        dict(base if draw(st.booleans()) else draw(_record), site=name)
        for name in names
    ]


_spec = st.builds(
    JobSpec,
    name=st.just("j"),
    vo=st.sampled_from(VOS + ["unknown-vo"]),
    user=st.sampled_from(["alice", "bob"]),
    runtime=st.just(HOUR),
    walltime_request=st.sampled_from([HOUR, HOUR, 24 * HOUR, 100 * HOUR]),
    inputs=st.sampled_from([(), (("/in", 2 * GB),)]),
    outputs=st.sampled_from([(), (("/out", 0.5 * GB),)]),
    requires_outbound=st.sampled_from([False, False, True]),
    disk_needed=st.sampled_from([0.0, 0.0, 50 * GB]),
)

# Each step is an optional state change, then one selection call.
_step = st.tuples(
    st.one_of(
        st.none(),
        st.tuples(st.just("use"), st.sampled_from(VOS), st.sampled_from(["alice", "bob"]),
                  st.sampled_from(SITES)),
        st.tuples(st.just("charge"), st.sampled_from(VOS),
                  st.floats(min_value=0.0, max_value=1e6)),
        st.tuples(st.just("tick"), st.floats(min_value=0.0, max_value=48 * HOUR)),
        st.tuples(st.just("snapshot"), st.integers(min_value=0, max_value=3)),
        # A GRIS refresh: one site of the current snapshot reappears as
        # a new dict with other static and dynamic fields.
        st.tuples(st.just("refresh"), st.integers(min_value=0, max_value=6), _record),
    ),
    st.sampled_from(["select", "rank", "scores"]),
    _spec,
    st.lists(st.sampled_from(SITES), max_size=3),
)


def _build(cls, giis, seed, fair_share, jitter, exploration):
    clock = Clock()
    ledger = FairShareLedger(VOS, half_life=6 * HOUR) if fair_share else None
    selector = cls(giis, RngRegistry(seed), jitter=jitter, exploration=exploration,
                   fairshare=ledger, clock=clock if fair_share else None)
    return selector, ledger, clock


@settings(max_examples=300, deadline=None)
@given(
    snapshots=st.lists(_snapshot(), min_size=1, max_size=4),
    steps=st.lists(_step, min_size=1, max_size=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    fair_share=st.booleans(),
    jitter=st.sampled_from([0.0, 0.25, 1.0]),
    exploration=st.sampled_from([0.0, 0.07, 0.5, 1.0]),
)
def test_one_pass_selector_matches_reference(snapshots, steps, seed, fair_share,
                                             jitter, exploration):
    giis = SnapshotGIIS(snapshots)
    new, new_ledger, new_clock = _build(SiteSelector, giis, seed, fair_share,
                                        jitter, exploration)
    ref, ref_ledger, ref_clock = _build(ReferenceSelector, giis, seed, fair_share,
                                        jitter, exploration)
    for change, call, spec, exclude in steps:
        kind = change[0] if change else None
        if kind == "use":
            new.record_use(*change[1:])
            ref.record_use(*change[1:])
        elif kind == "charge" and fair_share:
            new_ledger.charge(change[1], change[2], new_clock.now)
            ref_ledger.charge(change[1], change[2], ref_clock.now)
        elif kind == "tick":
            new_clock.now += change[1]
            ref_clock.now += change[1]
        elif kind == "snapshot":
            giis.current = change[1] % len(snapshots)
        elif kind == "refresh":
            records = snapshots[giis.current]
            slot = change[1] % len(records)
            records[slot] = dict(change[2], site=records[slot]["site"])
        if call == "scores":
            # Bit-identical scores, in candidate order, not just the same winner.
            got = [(score.hex(), site) for score, site in new._scored(spec, exclude)]
            want = [(ref._score(rec, spec).hex(), str(rec["site"]))
                    for rec in ref.candidates(spec, exclude)]
            assert got == want
        else:
            assert getattr(new, call)(spec, exclude) == getattr(ref, call)(spec, exclude)
    for name in STREAMS:
        assert (new.rng.stream(name).bit_generator.state
                == ref.rng.stream(name).bit_generator.state), name
    if fair_share:
        assert new_ledger._usage == ref_ledger._usage
        assert new_ledger._last_update == ref_ledger._last_update


def test_a_reissued_record_is_never_scored_from_held_terms():
    """The same site comes back as a new dict whose static and dynamic
    fields differ; the selector must rescore it from the new dict, bit
    for bit as the reference does.  The last round lists two records
    for one site, as two registrations of it would."""
    first = {"site": "S0", "se_free": 2e12,
             "max_walltime": 200 * HOUR, "outbound_connectivity": True,
             "total_cpus": 64, "free_cpus": 64, "access_bandwidth": 1.25e9,
             "estimated_wait": 0.0, "owner_vo": "uscms"}
    busy = dict(first, total_cpus=8, free_cpus=1, access_bandwidth=5.6e6,
                estimated_wait=3 * HOUR, owner_vo="usatlas")
    small = dict(first, se_free=10 * GB, max_walltime=12 * HOUR,
                 outbound_connectivity=False)
    other = dict(first, site="S1", owner_vo="ivdgl", free_cpus=32)
    rounds = [[first, other], [busy, other], [small, other], [first, other],
              [first, other, busy]]
    giis = SnapshotGIIS([[]])
    new, _ledger, _clock = _build(SiteSelector, giis, 7, False, 0.25, 0.0)
    ref, _ledger, _clock = _build(ReferenceSelector, giis, 7, False, 0.25, 0.0)
    specs = [
        JobSpec(name="j", vo="uscms", user="alice", runtime=HOUR),
        JobSpec(name="j", vo="usatlas", user="bob", runtime=HOUR,
                walltime_request=24 * HOUR, requires_outbound=True,
                inputs=(("/in", 2 * GB),), disk_needed=50 * GB),
    ]
    for records in rounds:
        giis.snapshots[0] = [dict(rec) for rec in records]
        for spec in specs:
            got = [(score.hex(), site) for score, site in new._scored(spec, ())]
            want = [(ref._score(rec, spec).hex(), str(rec["site"]))
                    for rec in ref.candidates(spec)]
            assert got == want


def test_one_selection_is_one_pass():
    """One ``select`` makes one ``candidates`` call, one vector jitter
    draw, and asks the fair-share ledger once, and only when there is a
    candidate to score."""
    giis = SnapshotGIIS([[
        {"site": name, "se_free": 2e12, "max_walltime": 200 * HOUR}
        for name in SITES
    ]])
    selector, ledger, _clock = _build(SiteSelector, giis, 5, True, 1.0, 0.0)
    calls = {"candidates": 0, "priority_factor": 0, "uniform": 0, "uniforms": 0}

    def counted(obj, name):
        inner = getattr(obj, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        setattr(obj, name, wrapper)

    counted(selector, "candidates")
    counted(ledger, "priority_factor")
    counted(selector.rng, "uniform")
    counted(selector.rng, "uniforms")
    spec = JobSpec(name="j", vo="uscms", user="alice", runtime=HOUR)
    assert selector.select(spec) in SITES
    assert calls == {"candidates": 1, "priority_factor": 1, "uniform": 0, "uniforms": 1}
    assert selector.select(spec, exclude=SITES) is None
    assert calls == {"candidates": 2, "priority_factor": 1, "uniform": 0, "uniforms": 1}
