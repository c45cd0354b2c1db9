"""Critical-path analysis over span trees.

Answers the Grid2003 operations question (§4.7): *where did this job
spend its time?*  :func:`job_breakdown` partitions one job's makespan
into the five phases the paper's troubleshooting workflow cares about —
queue, stage-in, compute, stage-out, retry — plus an ``other`` residual,
so the parts always sum exactly to the whole.  The grid-wide helpers
aggregate those partitions per VO and rank the slowest traces.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .spans import PHASES, Span, SpanStore

#: Phases measured from spans inside the final attempt.  ``register``
#: spans (RLS writes at the tail of the job) are folded into stage-out.
_PHASE_OF = {
    "queue": "queue",
    "stage-in": "stage-in",
    "compute": "compute",
    "stage-out": "stage-out",
    "register": "stage-out",
}


def _final_attempt(root: Span) -> Optional[Span]:
    """Last attempt span under a job root (None for attempt-less roots)."""
    last = None
    for span in root.children:
        if span.phase == "attempt":
            last = span
    return last


def job_breakdown(root: Span) -> Dict[str, float]:
    """Partition one job trace's makespan into phase durations.

    The partition invariant — ``sum(phases) == makespan`` to float
    tolerance — holds by construction:

    * ``retry``    = time from trace start to the final attempt's start
      (all earlier failed attempts plus their backoff waits);
    * ``queue`` / ``stage-in`` / ``compute`` / ``stage-out`` = measured
      phase spans inside the final attempt (register folds into
      stage-out);
    * ``other``    = the residual (matchmaking, GRAM handshakes,
      gaps between phases) so the identity is exact.

    Works on still-open traces too (open spans are clipped at the last
    closed instant seen in the tree), but the invariant is only
    guaranteed for finalized traces.
    """
    out = {phase: 0.0 for phase in PHASES}
    end = root.end if root.end >= 0 else max(
        (s.end for s in root.walk() if s.end >= 0), default=root.start
    )
    makespan = max(0.0, end - root.start)
    out["makespan"] = makespan
    out["status"] = root.status  # type: ignore[assignment]

    final = _final_attempt(root)
    if final is None:
        out["other"] = makespan
        return out

    out["retry"] = max(0.0, final.start - root.start)
    for span in final.walk():
        phase = _PHASE_OF.get(span.phase)
        if phase is not None and span.end >= 0:
            out[phase] += span.end - span.start
    measured = sum(out[p] for p in PHASES if p != "other")
    out["other"] = max(0.0, makespan - measured)
    return out


def aggregate_breakdown(
    roots: Iterable[Span], vo: Optional[str] = None
) -> Dict[str, object]:
    """Grid-wide phase totals across job traces (optionally one VO).

    Returns ``{"jobs": n, "vo": vo, "totals": {phase: seconds},
    "mean": {phase: seconds}, "share": {phase: fraction}}``.
    """
    totals = {phase: 0.0 for phase in PHASES}
    totals["makespan"] = 0.0
    count = 0
    for root in roots:
        if root.attrs.get("kind") != "job":
            continue
        if vo is not None and root.attrs.get("vo") != vo:
            continue
        breakdown = job_breakdown(root)
        for key in totals:
            totals[key] += breakdown[key]
        count += 1
    mean = {k: (v / count if count else 0.0) for k, v in totals.items()}
    whole = totals["makespan"]
    share = {
        phase: (totals[phase] / whole if whole else 0.0) for phase in PHASES
    }
    return {"jobs": count, "vo": vo, "totals": totals, "mean": mean,
            "share": share}


def slowest_traces(store: SpanStore, n: int = 10) -> List[Tuple[float, Span]]:
    """The ``n`` longest-makespan job traces, slowest first.

    Ties break on trace id (insertion order), keeping the ranking
    deterministic across same-seed runs.
    """
    ranked = sorted(
        ((job_breakdown(root)["makespan"], root)
         for root in store.roots() if root.attrs.get("kind") == "job"),
        key=lambda pair: (-pair[0], pair[1].trace_id),
    )
    return ranked[:n]


def render_span_tree(root: Span) -> List[str]:
    """ASCII render of one trace tree, one line per span.

    Offsets are relative to the root start so the timeline reads like a
    Gantt chart in text form.
    """
    lines = [
        f"trace {root.trace_id}: {root.name}  "
        f"[{root.status}, makespan {max(0.0, root.end - root.start):.1f}s]"
    ]

    def emit(span: Span, depth: int) -> None:
        offset = span.start - root.start
        dur = f"{span.duration:.1f}s" if span.end >= 0 else "open"
        phase = f" [{span.phase}]" if span.phase else ""
        note = f" !{span.status}" if span.status not in ("ok", "open") else ""
        lines.append(
            f"  {'  ' * depth}+{offset:9.1f}s  {span.name:<28s} "
            f"{dur:>10s}{phase}{note}"
        )
        for child in span.children:
            emit(child, depth + 1)

    for child in root.children:
        emit(child, 0)
    return lines


def render_breakdown(agg: Dict[str, object]) -> List[str]:
    """Text table for an :func:`aggregate_breakdown` result."""
    scope = f"vo={agg['vo']}" if agg.get("vo") else "all VOs"
    lines = [f"phase breakdown ({scope}, {agg['jobs']} jobs):"]
    mean: Dict[str, float] = agg["mean"]  # type: ignore[assignment]
    share: Dict[str, float] = agg["share"]  # type: ignore[assignment]
    for phase in PHASES:
        lines.append(
            f"  {phase:<10s} {mean.get(phase, 0.0):10.1f}s mean "
            f"{100.0 * share.get(phase, 0.0):6.1f}%"
        )
    lines.append(f"  {'makespan':<10s} {mean.get('makespan', 0.0):10.1f}s mean")
    return lines
