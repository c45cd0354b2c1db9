"""Live run progress: the in-sim side of the observability pipeline.

Grid2003 was operated from live dashboards — MonALISA plots, the Site
Status Catalog, Ganglia web pages — not from post-mortem log digs
(§5.2).  This module gives a running simulation the same property: a
:class:`ProgressMeter` walks ``deploy -> apps -> sim -> done`` emitting
:class:`ProgressEvent` snapshots (sim-time watermark, kernel event
count, job tallies, open tickets) through a caller-supplied ``emit``
callback.

Design constraints, in order:

* **One path.**  Every ``Grid3.run_full()`` is metered; without a
  callback the events go nowhere.  There is no unsliced fork to keep
  in step with the sliced one.
* **No simulation perturbation.**  The meter schedules no events and
  draws no RNG — it slices ``engine.run(until=...)`` into ``slices``
  sim-time windows, which dispatches the identical event sequence (the
  kernel claims buckets in the same order either way), and reads
  counters between slices.  A same-seed run is byte-identical to the
  plain ``deploy(); start_applications(); run()`` sequence.
* **Deterministic sequence numbers.**  ``seq`` increments once per
  emitted event, so every transport downstream (pipe, SSE stream,
  delta poll) can agree on position.

The transport side (the worker's pipe to the service process,
SSE/poll exposure) lives in :mod:`repro.service.progress`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Iterable, List

from ..core.results import ReportRecord

#: Event kinds, lifecycle order.  "phase" marks a lifecycle boundary
#: (deploy finished, applications started), "tick" is a periodic
#: in-flight snapshot, "end" is the final snapshot of a finished run.
KINDS = ("phase", "tick", "end")

#: Default number of in-flight snapshots per run.
DEFAULT_SLICES = 32


@dataclass(frozen=True)
class ProgressEvent(ReportRecord):
    """One progress snapshot of an in-flight (or just-finished) run.

    ``seq`` is a deterministic, strictly increasing emission index;
    ``frac`` is the sim-time watermark as a fraction of the configured
    window; ``events`` is the kernel's lifetime dispatched-event count;
    the job tallies are summed over every VO's Condor-G; ``wall_s`` is
    wall-clock seconds since the meter was created (informational only
    — it never feeds back into the simulation).
    """

    seq: int
    kind: str
    phase: str
    sim_time: float
    frac: float
    events: int
    jobs_submitted: int
    jobs_completed: int
    jobs_failed: int
    tickets_open: int
    wall_s: float


def slice_times(duration: float, slices: int) -> List[float]:
    """The ``engine.run(until=...)`` horizons for ``slices`` windows.

    The last horizon is exactly ``duration`` (no float-accumulation
    drift), so a sliced run ends on the same clock as an unsliced one.
    """
    if slices < 1:
        raise ValueError(f"slices must be >= 1, got {slices}")
    out = [duration * i / slices for i in range(1, slices)]
    out.append(duration)
    return out


class ProgressMeter:
    """Snapshot builder bound to one :class:`~repro.Grid3` instance.

    The grid drives it (see ``Grid3.run_full``); everything here is a
    pure read of existing counters — no events, no RNG, no state left
    behind on the grid.
    """

    def __init__(
        self,
        grid,
        emit: Callable[[ProgressEvent], None],
        slices: int = DEFAULT_SLICES,
    ) -> None:
        if slices < 1:
            raise ValueError(f"slices must be >= 1, got {slices}")
        self.grid = grid
        self._emit = emit
        self.slices = slices
        self._seq = 0
        self._wall0 = _time.monotonic()

    def snapshot(self, kind: str, phase: str) -> ProgressEvent:
        """Build the next event (increments ``seq``)."""
        grid = self.grid
        submitted = completed = failed = 0
        for condorg in grid.condorg.values():
            submitted += condorg.submitted
            completed += condorg.completed
            failed += condorg.failed
        duration = grid.duration or 1.0
        event = ProgressEvent(
            seq=self._seq,
            kind=kind,
            phase=phase,
            sim_time=grid.engine.now,
            frac=min(1.0, grid.engine.now / duration),
            events=grid.engine.dispatched,
            jobs_submitted=submitted,
            jobs_completed=completed,
            jobs_failed=failed,
            tickets_open=len(grid.igoc.tickets.open_tickets()),
            wall_s=round(_time.monotonic() - self._wall0, 6),
        )
        self._seq += 1
        return event

    def emit(self, kind: str, phase: str) -> ProgressEvent:
        """Build and deliver the next event."""
        event = self.snapshot(kind, phase)
        self._emit(event)
        return event

    def horizons(self) -> Iterable[float]:
        """The sim-time slice boundaries for this grid's window."""
        return slice_times(self.grid.duration, self.slices)


def render_progress_line(event_dict: dict, width: int = 24) -> str:
    """One-line terminal rendering of a progress event (``repro top``).

    Takes the event's plain-dict form (what the SSE stream and the
    delta poll both carry) so the renderer works on wire data directly.
    """
    frac = max(0.0, min(1.0, float(event_dict.get("frac", 0.0))))
    filled = int(round(frac * width))
    bar = "#" * filled + "." * (width - filled)
    sim_days = float(event_dict.get("sim_time", 0.0)) / 86400.0
    return (
        f"[{bar}] {frac:4.0%}  {event_dict.get('phase', '?'):>6}  "
        f"sim {sim_days:6.2f}d  "
        f"events {int(event_dict.get('events', 0)):>10,}  "
        f"jobs {int(event_dict.get('jobs_completed', 0))}"
        f"/{int(event_dict.get('jobs_submitted', 0))}"
        f" ({int(event_dict.get('jobs_failed', 0))} failed)  "
        f"tickets {int(event_dict.get('tickets_open', 0))}"
    )
