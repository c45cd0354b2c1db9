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

Rendering costs O(lines).  :func:`render_store` sanitises each family
name once, and builds the ``{k="v",...}`` part of each distinct tag
tuple once per scrape, in a label cache owned by the
:func:`grid_exposition` call and shared across its stores.  No cache
outlives its scrape: labels can carry values without bound, such as
the service's run ids.  :func:`render_line` builds the same part
uncached, so every line comes from one label formatter.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

from .core import MetricStore

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_FIRST_OK = re.compile(r"^[a-zA-Z_:]")
_INF = float("inf")

Tags = Tuple[Tuple[str, str], ...]
#: A scrape's label cache: tag tuple -> (the tuple it was built from,
#: whether that holds only ``str``, its ``{k="v",...}`` part).
LabelCache = Dict[Tags, Tuple[Tags, bool, str]]


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
    if type(value) is not float:
        try:
            value = float(value)
        except (TypeError, ValueError):
            return "NaN"
    if value != value:
        return "NaN"
    if value == _INF or value == -_INF:
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and -1e15 < value < 1e15:
        return str(int(value))
    return repr(value)


def _labels(tags: Iterable[Tuple[str, str]]) -> str:
    """The ``{k="v",...}`` part of a sample line ("" for no tags)."""
    body = ",".join(
        f'{sanitize_name(k)}="{escape_label_value(str(v))}"' for k, v in tags
    )
    return f"{{{body}}}" if body else ""


def _all_str(tags: Tags) -> bool:
    """Whether every key and value in ``tags`` is exactly a ``str``."""
    return all(type(k) is str and type(v) is str for k, v in tags)


def _scrape_labels(tags: Tags, cache: LabelCache) -> str:
    """:func:`_labels` of ``tags``, built once per scrape in ``cache``.

    Equal tag tuples can render differently: ``(("k", 1),)``,
    ``(("k", 1.0),)`` and ``(("k", True),)`` are equal, and so are
    ``0.0`` and ``-0.0``.  So a cached part serves the very tuple it was
    built from, or an equal one when both hold only ``str`` keys and
    values, which render by their characters alone.
    """
    hit = cache.get(tags)
    if hit is not None:
        seen, all_str, labels = hit
        if seen is tags or (all_str and _all_str(tags)):
            return labels
    labels = _labels(tags)
    cache[tags] = (tags, _all_str(tags), labels)
    return labels


def render_line(
    name: str, value: float, tags: Iterable[Tuple[str, str]] = ()
) -> str:
    """One ``name{labels} value`` sample line."""
    return f"{sanitize_name(name)}{_labels(tags)} {format_value(value)}"


def render_store(
    store: MetricStore, prefix: str = "", labels: Optional[LabelCache] = None
) -> List[str]:
    """Every metric in ``store`` as exposition lines, latest sample per
    (name, label set), with a ``# TYPE ... gauge`` header per family.

    ``prefix`` namespaces the family (``repro_trace_`` etc.); it is
    applied before sanitisation so callers pass plain dotted names.
    ``labels`` is the label cache of the scrape the store is part of
    (:func:`grid_exposition` shares one across its stores); by default
    the store gets its own.
    """
    if labels is None:
        labels = {}
    lines: List[str] = []
    for name in store.names():
        per_series = store.latest_values(name)
        if not per_series:
            continue
        family = sanitize_name(prefix + name)
        lines.append(f"# TYPE {family} gauge")
        for tags in sorted(per_series):
            lines.append(family + _scrape_labels(tags, labels) + " "
                         + format_value(per_series[tags]))
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
    labels: LabelCache = {}
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
            store, prefix=f"repro_{sanitize_name(store_name)}_", labels=labels
        ))
    return "\n".join(lines) + "\n"
