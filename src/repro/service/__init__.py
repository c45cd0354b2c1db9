"""Grid-as-a-service: the HTTP front end over the Grid3 simulator.

Grid2003's defining property was that it ran as a persistent, centrally
operated *service* consumed by applications (§3, §6) — not as scripts
people re-ran by hand.  This package is that step for the reproduction:
a stdlib-only HTTP API that accepts simulation requests, runs them on a
bounded job queue feeding an out-of-process worker pool, caches results
by the :meth:`~repro.Grid3Config.canonical_digest` of the requested
``(config, seed)`` — so a million identical what-if queries cost one
run — and serves the ops/troubleshooting/trace reports as paginated
sorted-key JSON built from the frozen :class:`~repro.ReportRecord`
types.

Layering (each module one concern):

* :mod:`~repro.service.schemas`     — request parsing/validation (400s)
  and the uniform error envelope;
* :mod:`~repro.service.store`       — the run registry: state machine,
  byte-budgeted LRU of resident results, and one sqlite table that
  survives restarts (``--state-dir``);
* :mod:`~repro.service.admission`   — fair-share dispatch order, lanes,
  and per-client quotas;
* :mod:`~repro.service.queue`       — bounded queue + process worker pool;
* :mod:`~repro.service.reports`     — report payload builders (the byte-
  identity contract with the ``repro`` facade lives here);
* :mod:`~repro.service.app`         — versioned (``/v1``) routing +
  the HTTP server.

Typical use::

    from repro.service import ReproService

    svc = ReproService(port=8080, workers=4, state_dir="./state")
    svc.start()
    # POST /v1/runs, GET /v1/runs/{id}, GET /v1/runs/{id}/report/ops, ...
    svc.close(drain=True)

or from a shell: ``python -m repro serve --port 8080 --workers 4``;
the typed in-process client is :class:`repro.client.GridClient`.
"""

from .admission import LANES, AdmissionPolicy, QuotaExceededError
from .app import API_PREFIX, ReproService, ServiceApp, serve, strip_version
from .progress import (
    ProgressLog,
    ProgressSender,
    iter_sse_events,
    parse_sse_stream,
    sse_format,
)
from .queue import JobQueue, QueueFullError, execute_run
from .reports import REPORT_KINDS, collect_reports, summarize_run
from .schemas import (
    ERROR_CODES,
    ApiError,
    HealthView,
    RunEvents,
    RunRequest,
    RunSubmitted,
    RunView,
    SchemaError,
    parse_pagination,
    parse_submission,
)
from .store import RunRecord, RunStore

__all__ = [
    "API_PREFIX",
    "AdmissionPolicy",
    "ApiError",
    "ERROR_CODES",
    "HealthView",
    "JobQueue",
    "LANES",
    "ProgressLog",
    "ProgressSender",
    "QueueFullError",
    "QuotaExceededError",
    "REPORT_KINDS",
    "ReproService",
    "RunEvents",
    "RunRecord",
    "RunRequest",
    "RunStore",
    "RunSubmitted",
    "RunView",
    "SchemaError",
    "ServiceApp",
    "collect_reports",
    "execute_run",
    "iter_sse_events",
    "parse_pagination",
    "parse_sse_stream",
    "parse_submission",
    "serve",
    "sse_format",
    "strip_version",
    "summarize_run",
]
