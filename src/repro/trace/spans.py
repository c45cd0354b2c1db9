"""Span primitives: the Dapper/OpenTelemetry-style core, sized for a DES.

A :class:`Span` is one timed operation in a job's life (an attempt, a
queue wait, a GridFTP transfer); spans form a tree rooted at the grid
job, linked by object references and ``(trace_id, span_id, parent_id)``
triples.  :class:`JobTracer` mints spans against simulated time and
files completed traces into a bounded :class:`SpanStore`.

Determinism contract (the §8 troubleshooting layer must never change
what it observes):

* span creation reads ``engine.now`` and appends to Python lists — it
  schedules **no events** and draws **no RNG**, so a traced run's event
  order is identical to an untraced run's;
* trace/span ids come from per-tracer counters, so same-seed runs emit
  byte-identical span dumps;
* with tracing disabled the :data:`NULL_TRACER` / :data:`NULL_SPAN`
  singletons absorb every call as a no-op, so instrumented call sites
  cost a method call and nothing else.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Phase labels the critical-path analyzer attributes makespan to.
PHASES = ("queue", "stage-in", "compute", "stage-out", "retry", "other")


class Span:
    """One timed operation inside a trace tree.

    ``end < 0`` means the span is still open.  ``phase`` is the
    critical-path category ("queue", "stage-in", "compute", "stage-out",
    "attempt", "transfer", "submit", "register", ...); ``name`` is the
    human label shown in renders and exports.
    """

    __slots__ = (
        "tracer", "trace_id", "span_id", "parent_id", "name", "phase",
        "start", "end", "status", "attrs", "children",
    )

    def __init__(
        self,
        tracer: "JobTracer",
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        phase: str,
        start: float,
        attrs: Dict[str, object],
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.phase = phase
        self.start = start
        self.end = -1.0
        self.status = "open"
        self.attrs = attrs
        self.children: List["Span"] = []

    # -- state -------------------------------------------------------------
    @property
    def open(self) -> bool:
        """True until :meth:`finish` is called."""
        return self.end < 0

    @property
    def duration(self) -> float:
        """Wall-clock (simulated) seconds; -1 while open."""
        if self.end < 0:
            return -1.0
        return self.end - self.start

    # -- building the tree ---------------------------------------------------
    def child(self, name: str, phase: str = "", **attrs: object) -> "Span":
        """Start a child span at the current simulated instant."""
        return self.tracer._start(self, name, phase, attrs)

    def open_child(self, name: str) -> Optional["Span"]:
        """The most recent still-open direct child named ``name``."""
        for span in reversed(self.children):
            if span.name == name and span.end < 0:
                return span
        return None

    def annotate(self, **attrs: object) -> "Span":
        """Attach key/value attributes without changing timing."""
        self.attrs.update(attrs)
        return self

    # -- ending ---------------------------------------------------------------
    def finish(self, status: str = "ok", **attrs: object) -> "Span":
        """Close the span at the current simulated instant (idempotent)."""
        if self.end < 0:
            self.end = self.tracer.engine.now
            self.status = status
            if attrs:
                self.attrs.update(attrs)
        return self

    def close_subtree(self, status: str = "ok") -> None:
        """Finish this span and every still-open descendant.

        Used when a job dies mid-phase: the phase span the failure
        escaped from is closed here, at the failure instant, carrying
        the terminal status.
        """
        for span in self.children:
            if span.end < 0:
                span.close_subtree(status)
        self.finish(status)

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, preorder (start order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        state = "open" if self.end < 0 else f"{self.duration:.3f}s {self.status}"
        return f"<Span {self.name!r} {self.phase or '-'} {state}>"


class _NullSpan:
    """The disabled-tracing span: absorbs the whole Span API as no-ops."""

    __slots__ = ()

    trace_id = -1
    span_id = -1
    parent_id = None
    name = ""
    phase = ""
    start = 0.0
    end = 0.0
    status = "ok"
    attrs: Dict[str, object] = {}
    children: List = []
    open = False
    duration = 0.0

    def __bool__(self) -> bool:
        return False

    def child(self, name: str, phase: str = "", **attrs: object) -> "_NullSpan":
        return self

    def open_child(self, name: str) -> None:
        return None

    def annotate(self, **attrs: object) -> "_NullSpan":
        return self

    def finish(self, status: str = "ok", **attrs: object) -> "_NullSpan":
        return self

    def close_subtree(self, status: str = "ok") -> None:
        return None

    def walk(self):
        return iter(())

    def __repr__(self) -> str:
        return "<NullSpan>"


#: Shared no-op span (falsy, so ``job.trace or NULL_SPAN`` composes).
NULL_SPAN = _NullSpan()


class SpanStore:
    """Bounded, deterministic archive of trace trees.

    Traces are kept whole: eviction drops the **oldest trace's entire
    tree**, never individual spans, so every retained trace stays a
    single rooted tree.  Insertion order is simulation order, which is
    identical across same-seed runs.
    """

    def __init__(self, max_traces: int = 20_000) -> None:
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self.max_traces = max_traces
        self._roots: "OrderedDict[int, Span]" = OrderedDict()
        self._job_index: Dict[int, int] = {}
        self._trace_jobs: Dict[int, List[int]] = {}
        #: Traces dropped by the ring bound (observability of the bound).
        self.evicted = 0

    # -- writes (tracer-internal) -------------------------------------------
    def add_root(self, root: Span) -> None:
        self._roots[root.trace_id] = root
        if len(self._roots) > self.max_traces:
            old_id, _old = self._roots.popitem(last=False)
            for job_id in self._trace_jobs.pop(old_id, ()):
                self._job_index.pop(job_id, None)
            self.evicted += 1

    def bind_job(self, job_id: int, trace_id: int) -> None:
        """Join an execution-side job id to its trace (the §8 link)."""
        if trace_id in self._roots:
            self._job_index[job_id] = trace_id
            self._trace_jobs.setdefault(trace_id, []).append(job_id)

    # -- reads ----------------------------------------------------------------
    def __len__(self) -> int:
        """Number of retained traces."""
        return len(self._roots)

    def span_count(self) -> int:
        """Total spans across retained traces (walks the trees)."""
        return sum(1 for root in self._roots.values() for _ in root.walk())

    def roots(self) -> List[Span]:
        """Trace roots, oldest first."""
        return list(self._roots.values())

    def get(self, trace_id: int) -> Optional[Span]:
        """Root span of one trace."""
        return self._roots.get(trace_id)

    def trace_for_job(self, job_id: int) -> Optional[Span]:
        """Root span of the trace owning an execution-side job id."""
        trace_id = self._job_index.get(job_id)
        return self._roots.get(trace_id) if trace_id is not None else None

    def jobs_for(self, trace_id: int) -> Tuple[int, ...]:
        """Execution-side job ids bound to one trace (attempt order)."""
        return tuple(self._trace_jobs.get(trace_id, ()))

    def job_ids(self) -> List[int]:
        """Every bound execution-side job id, ascending."""
        return sorted(self._job_index)

    def spans(self, trace_id: int) -> List[Span]:
        """One trace's spans, preorder ([] for unknown traces)."""
        root = self._roots.get(trace_id)
        return list(root.walk()) if root is not None else []


class JobTracer:
    """Mints spans against an engine's clock; archives whole traces.

    ``metrics`` is a lazily created
    :class:`~repro.monitoring.core.MetricStore`: when a job trace is
    finalized its critical-path breakdown is published as ``trace.*``
    samples tagged by VO, feeding the same query layer as every other
    monitoring producer.
    """

    enabled = True

    def __init__(self, engine, max_traces: int = 20_000) -> None:
        self.engine = engine
        self.store = SpanStore(max_traces)
        self._trace_seq = 0
        self._span_seq = 0
        self._metrics = None

    # -- metrics sink (lazy import keeps repro.trace cycle-free) -------------
    @property
    def metrics(self):
        """The ``trace.*`` MetricStore (created on first touch)."""
        if self._metrics is None:
            from ..monitoring.core import MetricStore
            self._metrics = MetricStore()
        return self._metrics

    # -- span factory ---------------------------------------------------------
    def _start(self, parent: Optional[Span], name: str, phase: str,
               attrs: Dict[str, object]) -> Span:
        self._span_seq += 1
        span = Span(
            tracer=self,
            trace_id=parent.trace_id if parent is not None else self._trace_seq,
            span_id=self._span_seq,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            phase=phase,
            start=self.engine.now,
            attrs=attrs,
        )
        if parent is not None:
            parent.children.append(span)
        return span

    def start_trace(self, name: str, kind: str = "job", **attrs: object) -> Span:
        """Open a new trace; returns its root span."""
        self._trace_seq += 1
        attrs = dict(attrs)
        attrs["kind"] = kind
        root = self._start(None, name, kind, attrs)
        self.store.add_root(root)
        return root

    def bind_job(self, job_id: int, span: Span) -> None:
        """Index an execution-side job id under ``span``'s trace."""
        self.store.bind_job(job_id, span.trace_id)

    # -- lifecycle ------------------------------------------------------------
    def finalize(self, root: Span, status: str = "ok") -> None:
        """Close a finished trace and publish its ``trace.*`` metrics.

        Any spans the job's failure path left open are closed here at
        the current instant with the trace's terminal status.
        """
        root.close_subtree(status)
        if root.attrs.get("kind") != "job":
            return
        from ..monitoring.core import MetricSample, make_tags
        from .analysis import job_breakdown
        breakdown = job_breakdown(root)
        vo = str(root.attrs.get("vo", ""))
        tags = make_tags(vo=vo, status=status)
        now = self.engine.now
        metrics = self.metrics
        metrics.append(
            MetricSample(now, "trace.makespan", breakdown["makespan"], tags)
        )
        for phase in PHASES:
            value = breakdown.get(phase, 0.0)
            if value:
                metrics.append(
                    MetricSample(now, f"trace.phase.{phase}", value, tags)
                )

    def __repr__(self) -> str:
        return f"<JobTracer traces={len(self.store)} spans~{self._span_seq}>"


class NullTracer:
    """Disabled tracing: the same API, zero work, no archive."""

    enabled = False
    store = None
    metrics = None
    engine = None

    def start_trace(self, name: str, kind: str = "job", **attrs: object) -> _NullSpan:
        return NULL_SPAN

    def bind_job(self, job_id: int, span) -> None:
        return None

    def finalize(self, root, status: str = "ok") -> None:
        return None

    def __repr__(self) -> str:
        return "<NullTracer>"


#: Shared disabled tracer, handed out when ``Grid3Config.tracing`` is off.
NULL_TRACER = NullTracer()
