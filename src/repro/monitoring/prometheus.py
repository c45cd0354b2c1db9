"""Prometheus text exposition over the monitoring estate.

Grid2003's monitoring worked because every layer fed one aggregate view
at the iGOC (§5.2, Fig. 1).  This module is that unification for the
reproduction: any :class:`~repro.monitoring.MetricStore` — the
sched/data/trace stores, the HTTP service's own scrape history, and the
service-health view that derives its series from the downtime ledgers
and live counters at read time — renders to the `Prometheus text format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ (v0.0.4,
hand-rolled; no client library, tier-1 stays hermetic).

Exposition is *latest-per-(name, label set)*: each distinct tag
combination contributes one gauge line carrying its newest sample, so
the output is a snapshot, not a history dump.  For the service-health
view that is each service's liveness and availability at the last
hourly grid instant, and its counters as they stand now; a scrape
costs O(services), since nothing is stored to walk.  Names are sanitised to
the Prometheus grammar (``service.gatekeeper.up`` ->
``service_gatekeeper_up``); label values are escaped per the spec.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

from .core import MetricStore

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_FIRST_OK = re.compile(r"^[a-zA-Z_:]")


def sanitize_name(name: str) -> str:
    """Coerce a metric name to the Prometheus grammar.

    Dots and other illegal characters become underscores; a leading
    digit gets an underscore prefix.  Deterministic, so the same store
    always renders the same exposition.
    """
    out = _NAME_OK.sub("_", name)
    if not out or not _FIRST_OK.match(out):
        out = "_" + out
    return out


def escape_label_value(value: str) -> str:
    """Backslash-escape a label value per the exposition spec."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render a sample value (ints without the trailing .0)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        return "NaN"
    if number != number:
        return "NaN"
    if number in (float("inf"), -float("inf")):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_line(
    name: str, value: float, tags: Iterable[Tuple[str, str]] = ()
) -> str:
    """One ``name{labels} value`` sample line."""
    labels = ",".join(
        f'{sanitize_name(k)}="{escape_label_value(str(v))}"' for k, v in tags
    )
    body = f"{{{labels}}}" if labels else ""
    return f"{sanitize_name(name)}{body} {format_value(value)}"


def render_store(store: MetricStore, prefix: str = "") -> List[str]:
    """Every metric in ``store`` as exposition lines, latest sample per
    (name, label set), with a ``# TYPE ... gauge`` header per family.

    ``prefix`` namespaces the family (``repro_trace_`` etc.); it is
    applied before sanitisation so callers pass plain dotted names.
    """
    lines: List[str] = []
    for name in store.names():
        per_series = store.latest_values(name)
        if not per_series:
            continue
        family = sanitize_name(prefix + name)
        lines.append(f"# TYPE {family} gauge")
        for tags in sorted(per_series):
            lines.append(render_line(prefix + name, per_series[tags], tags))
    return lines


def render_flat(
    gauges: Dict[str, float],
    prefix: str = "",
    tags: Iterable[Tuple[str, str]] = (),
) -> List[str]:
    """A flat ``{name: value}`` dict as exposition lines (sorted)."""
    lines: List[str] = []
    for name in sorted(gauges):
        family = sanitize_name(prefix + name)
        lines.append(f"# TYPE {family} gauge")
        lines.append(render_line(prefix + name, gauges[name], tags))
    return lines


def grid_stores(grid) -> Dict[str, MetricStore]:
    """Every MetricStore in a grid's monitoring estate, by store name.

    Resolves the heterogeneous ``grid.monitors`` registry: bare
    MetricStores (``data``, ``trace``, ``sched``) pass through; agents
    holding a ``.store`` (the service-health view, Ganglia web)
    contribute it.
    """
    out: Dict[str, MetricStore] = {}
    for name, monitor in sorted(getattr(grid, "monitors", {}).items()):
        if isinstance(monitor, MetricStore):
            out[name] = monitor
        else:
            store = getattr(monitor, "store", None)
            if isinstance(store, MetricStore):
                out[name] = store
    return out


def grid_exposition(grid, progress: Optional[dict] = None) -> str:
    """The whole grid as one Prometheus text page.

    Covers the kernel counters, per-VO job tallies, ticket counts, and
    every MetricStore in the estate prefixed ``repro_<store>_``.  The
    optional ``progress`` dict (a ProgressEvent's plain form) adds the
    per-run progress gauges — the worker renders this at end of run so
    the service can serve a finished run's final exposition without
    holding the grid.
    """
    lines: List[str] = []
    lines.extend(render_flat({
        "engine_events_dispatched": float(grid.engine.dispatched),
        "engine_sim_seconds": float(grid.engine.now),
        "sites": float(len(grid.sites)),
        "tickets_total": float(len(grid.igoc.tickets)),
        "tickets_open": float(len(grid.igoc.tickets.open_tickets())),
    }, prefix="repro_"))
    for counter in ("submitted", "completed", "failed"):
        family = f"repro_jobs_{counter}"
        lines.append(f"# TYPE {family} gauge")
        for vo in sorted(grid.condorg):
            lines.append(render_line(
                family, float(getattr(grid.condorg[vo], counter)),
                (("vo", vo),),
            ))
    if progress:
        lines.extend(render_flat({
            f"run_progress_{key}": float(progress[key])
            for key in ("frac", "sim_time", "events", "jobs_submitted",
                        "jobs_completed", "jobs_failed", "tickets_open")
            if key in progress
        }, prefix="repro_"))
    for store_name, store in grid_stores(grid).items():
        lines.extend(render_store(
            store, prefix=f"repro_{sanitize_name(store_name)}_"
        ))
    return "\n".join(lines) + "\n"
