"""Distributed tracing for the Grid3 repro: spans, critical paths,
exports.

The paper's operators (§4.7, §5) reconstructed job paths by hand,
correlating GridFTP transfer logs with MonALISA service metrics; this
package gives the repro the cross-layer view directly — a
span tree per grid job threading submission → gatekeeper → queue →
stage-in → compute → stage-out → registration, a critical-path
analyzer over the tree, and Chrome-trace/JSONL exporters.

Module-level imports here must stay dependency-light (stdlib only):
``middleware.gridftp`` imports this package, so pulling in
``repro.core`` or ``repro.monitoring`` at import time would cycle.
"""

from .analysis import (
    aggregate_breakdown,
    job_breakdown,
    render_breakdown,
    render_span_tree,
    slowest_traces,
)
from .export import (
    span_to_dict,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .spans import (
    NULL_SPAN,
    NULL_TRACER,
    PHASES,
    JobTracer,
    NullTracer,
    Span,
    SpanStore,
)

__all__ = [
    "PHASES",
    "Span",
    "SpanStore",
    "JobTracer",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "job_breakdown",
    "aggregate_breakdown",
    "slowest_traces",
    "render_span_tree",
    "render_breakdown",
    "span_to_dict",
    "to_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
