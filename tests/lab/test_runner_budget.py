"""Worker budgeting and fallback diagnostics.

Covers the runner's decision layer without spawning real worker
processes: core detection via the affinity mask, clamping of
oversubscribed ``workers`` requests, and the
:class:`UnpicklableSpecWarning` diagnostic naming the offending spec
attribute.  The fan-out itself and the dead-worker fallback are tested
with real workers in ``test_parallel.py``.
"""

import os

import pytest

from repro.failures import FailureProfile
from repro.lab import experiment
from repro.lab.experiment import (
    ExperimentSpec,
    UnpicklableSpecWarning,
    run_experiment,
)


def metric_success(grid):
    return grid.acdc_db.success_rate()


def _spec(**overrides):
    fields = dict(
        name="budget",
        base=dict(scale=900, duration_days=1),
        variants={
            "calm": dict(failures=FailureProfile.calm()),
            "noisy": dict(failures=FailureProfile.early()),
        },
        metrics={"success": metric_success},
        repeats=1,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


# -- core detection -----------------------------------------------------------

def test_available_cores_prefers_affinity_mask(monkeypatch):
    """sched_getaffinity (cpuset-aware) must win over cpu_count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert experiment._available_cores() == 2


def test_available_cores_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert experiment._available_cores() == 6


def test_workers_none_resolves_to_core_budget(monkeypatch):
    monkeypatch.setattr(experiment, "_available_cores", lambda: 3)
    assert experiment._effective_workers(None, 100, None) == 3


def test_workers_clamped_to_core_budget_with_note(monkeypatch):
    monkeypatch.setattr(experiment, "_available_cores", lambda: 2)
    notes = []
    assert experiment._effective_workers(8, 100, notes.append) == 2
    assert len(notes) == 1
    assert "workers=8 exceeds 2 available core(s)" in notes[0]


def test_workers_never_exceed_cell_count(monkeypatch):
    monkeypatch.setattr(experiment, "_available_cores", lambda: 16)
    assert experiment._effective_workers(8, 3, None) == 3
    assert experiment._effective_workers(None, 1, None) == 1


# -- unpicklable diagnostics --------------------------------------------------

def test_unpicklable_spec_warns_with_culprit_name(monkeypatch):
    """The fallback must *name* the attribute that killed pickling."""
    monkeypatch.setattr(experiment, "_available_cores", lambda: 4)
    spec = _spec(metrics={"bad": lambda grid: 0.0})
    notes = []
    with pytest.warns(UnpicklableSpecWarning, match=r"metrics\['bad'\]"):
        results = run_experiment(spec, progress=notes.append, workers=4)
    assert [r.variant for r in results] == ["calm", "noisy"]
    # The same diagnostic also flows through the progress channel.
    assert any("metrics['bad']" in n and "running sequentially" in n
               for n in notes)


def test_find_unpicklable_points_at_variant_override():
    spec = _spec()
    spec.variants = {"calm": {"failures": lambda: None}}
    culprit = experiment._find_unpicklable(spec)
    assert culprit.startswith("variants['calm']['failures']")


def test_picklable_spec_emits_no_warning(recwarn):
    spec = _spec()
    experiment._spec_is_picklable(spec, None)
    assert not [w for w in recwarn if w.category is UnpicklableSpecWarning]
