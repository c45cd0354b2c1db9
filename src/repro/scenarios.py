"""Canned simulation scenarios: the paper's named operating periods.

Each scenario is a ready-made :class:`~repro.core.grid3.Grid3Config`
capturing one regime the paper describes:

* :func:`sc2003_week` — the Nov 15-21 2003 push: everything running at
  once, pre-stabilisation failure rates, the 30-day Fig. 2/3/5 window.
* :func:`full_observation_window` — the 183-day Table 1 window.
* :func:`stabilized_2004` — §7's "the infrastructure has been stable
  since November": calm failures, sustained production.
* :func:`chaos_deployment` — the October shake-out: high
  misconfiguration, noisy failures, no automation.
* :func:`lesson_applied` — the §8 future: SRM on, auto-validation
  recommended (returned alongside the config flag).
* :func:`disk_pressure` — the §6.2 disk-filling regime on shrunken
  disks, with or without the managed data subsystem.
* :func:`contention` — multi-VO contention on shared facilities, with
  or without the usage-policy / fair-share scheduling layer.
"""

from __future__ import annotations

from typing import Optional

from .apps.base import OBSERVATION_DAYS
from .core.grid3 import Grid3, Grid3Config
from .failures import FailureProfile, FailureSchedule
from .sim.units import DAY, HOUR


def sc2003_week(seed: int = 42, scale: float = 100.0) -> Grid3Config:
    """The SC2003 demonstration period: full mix, 37 days covering the
    Fig. 2/3/5 window (Oct 25 + 30 d), period-appropriate failures."""
    return Grid3Config(
        seed=seed,
        scale=scale,
        duration_days=37.0,
        failures=FailureProfile(),       # the noisy era
        misconfig_probability=0.2,
    )


def full_observation_window(seed: int = 42, scale: float = 50.0) -> Grid3Config:
    """The Table 1 window: 2003-10-23 .. 2004-04-23, all demonstrators."""
    return Grid3Config(
        seed=seed,
        scale=scale,
        duration_days=OBSERVATION_DAYS,
    )


def stabilized_2004(seed: int = 42, scale: float = 100.0) -> Grid3Config:
    """§7's steady state: calm failure rates, low misconfiguration, the
    ops load under 2 FTE."""
    return Grid3Config(
        seed=seed,
        scale=scale,
        duration_days=60.0,
        failures=FailureProfile.calm(),
        misconfig_probability=0.03,
    )


def chaos_deployment(seed: int = 42, scale: float = 200.0) -> Grid3Config:
    """The initial shake-out: every §6 failure class hot, half the
    installs misconfigured, humans not keeping up."""
    return Grid3Config(
        seed=seed,
        scale=scale,
        duration_days=14.0,
        failures=FailureProfile(
            service_failure_interval=2 * DAY,
            network_interruption_interval=4 * DAY,
            node_mtbf=100 * DAY,
            nightly_rollover={"UB_ACDC": 0.4},
        ),
        misconfig_probability=0.5,
        ops_team=False,
    )


def lesson_applied(seed: int = 42, scale: float = 100.0) -> Grid3Config:
    """The §8 lessons folded back in: SRM storage reservation enabled
    (pair with :class:`repro.ops.autovalidate.AutoValidator` for the
    full effect)."""
    return Grid3Config(
        seed=seed,
        scale=scale,
        duration_days=60.0,
        use_srm=True,
        failures=FailureProfile.calm(),
        misconfig_probability=0.1,
    )


def disk_pressure(seed: int = 42, scale: float = 400.0,
                  managed: bool = True) -> Grid3Config:
    """The §6.2 disk-filling regime, reproducible on demand: shrunken
    disks (``disk_scale``) under the output-heavy ivdgl and sdss
    workloads, so failed-job residue and registered outputs genuinely
    fill SEs.  ``managed=True`` turns the data subsystem on; run the
    same seed with ``managed=False`` for the unmanaged baseline the
    StorageAgent is measured against."""
    return Grid3Config(
        seed=seed,
        scale=scale,
        duration_days=21.0,
        apps=["ivdgl", "sdss"],
        disk_scale=200000.0,
        data_management=managed,
        failures=FailureProfile.calm(),
        misconfig_probability=0.05,
    )


def contention(seed: int = 42, scale: float = 400.0,
               fair_share: bool = True) -> Grid3Config:
    """Multi-VO contention on shared facilities (§5/§7): three
    production VOs fight over the same CPU pool with tight per-site
    submission throttles, so a heavy VO can monopolise the in-flight
    slots and starve the lighter ones.  ``fair_share=True`` turns on
    the usage-policy + fair-share layer; run the same seed with
    ``fair_share=False`` for the starvation baseline it is measured
    against (compare the max/min per-VO completed-job ratio)."""
    return Grid3Config(
        seed=seed,
        scale=scale,
        duration_days=7.0,
        apps=["uscms", "usatlas", "sdss"],
        per_site_throttle=24,
        fair_share=fair_share,
        failures=FailureProfile.calm(),
        misconfig_probability=0.05,
    )


def scale_out(seed: int = 42, scale: float = 400.0,
              sites: int = 500) -> Grid3Config:
    """Break the 27-site ceiling (§8: "the infrastructure must scale"):
    a synthetic ``sites``-site fabric from
    :func:`repro.fabric.synthesize`, traced.  Its metric stores stay
    small without eviction: Ganglia keeps only the latest value per
    site and metric.  Run the same seed at
    ``fabric=None`` (the 27-site catalog) next to this config for the
    27-vs-500 comparison; ``scale`` divides workload sizes only —
    site CPUs come from the generator."""
    return Grid3Config(
        seed=seed,
        scale=scale,
        duration_days=3.0,
        fabric={"sites": sites},
        tracing=True,
        apps=["usatlas", "ivdgl", "exerciser"],
        failures=FailureProfile.calm(),
        misconfig_probability=0.05,
    )


def paper_timeline(seed: int = 42, scale: float = 50.0) -> Grid3Config:
    """The full Grid3 arc in one run: §6.1's rough October/November
    shake-out transitioning to §7's stable regime mid-December, over the
    complete Table 1 window."""
    return Grid3Config(
        seed=seed,
        scale=scale,
        duration_days=OBSERVATION_DAYS,
        failures=FailureSchedule.paper_timeline(stabilize_day=50.0),
        misconfig_probability=0.25,
    )


SCENARIOS = {
    "sc2003": sc2003_week,
    "full-window": full_observation_window,
    "stabilized-2004": stabilized_2004,
    "chaos-deployment": chaos_deployment,
    "lesson-applied": lesson_applied,
    "disk-pressure": disk_pressure,
    "contention": contention,
    "scale-out": scale_out,
    "paper-timeline": paper_timeline,
}


def build_scenario(name: str, seed: Optional[int] = None,
                   scale: Optional[float] = None) -> Grid3:
    """Instantiate a Grid3 for a named scenario (KeyError if unknown)."""
    factory = SCENARIOS[name]
    kwargs = {}
    if seed is not None:
        kwargs["seed"] = seed
    if scale is not None:
        kwargs["scale"] = scale
    return Grid3(factory(**kwargs))
