"""Routing/dispatch and the HTTP server for grid-as-a-service.

:class:`ServiceApp` is the pure request handler — ``respond(method,
path, query, body)`` returns ``(status, json_body, headers)`` and can
be unit tested without a socket.  :class:`ReproService` wraps it in a
``ThreadingHTTPServer`` (stdlib only, so tier-1 stays hermetic) on an
ephemeral or fixed port; :func:`serve` is the blocking CLI entry.

The API is **versioned**: every endpoint lives under ``/v1/``; a bare
unversioned path answers ``404 not_found`` with a hint pointing there.

Endpoints::

    POST /v1/runs                         submit (dedup via result cache;
                                          fair-share admission + quotas)
    GET  /v1/runs                         run listing (paginated)
    GET  /v1/runs/{id}                    state machine + summary
    GET  /v1/runs/{id}/report/{kind}      paginated report (ops |
                                          troubleshooting | trace)
    GET  /v1/runs/{id}/events             live progress (SSE stream;
                                          ?since=seq = JSON delta poll)
    GET  /v1/runs/{id}/metrics            the run's Prometheus exposition
    GET  /v1/healthz                      liveness (+ durability info)
    GET  /v1/metrics                      Prometheus text (service gauges,
                                          admission gauges, per-run
                                          progress, alert states;
                                          ?format=json = flat JSON)
    GET  /v1/alerts                       live alert-rule states

Every non-2xx response carries the uniform envelope
``{"error": {"code", "message", "hint"}}``; 429s carry ``Retry-After``.

The dedup contract (the acceptance criterion): an identical ``(config,
seed)`` submission never runs a second simulation — it returns the
first run's id with ``dedup`` set to ``"cached"`` (finished) or
``"joined"`` (still in flight), observable via the
``service.queue.executed`` counter.

Durability: pass ``state_dir`` and the run registry's sqlite table
lives in ``<state_dir>/runs.sqlite3`` (WAL); a restart reopens it, so
finished runs serve byte-identical report bytes across restarts and
in-flight runs come back ``interrupted`` (terminal, resubmittable).

Admission: submissions name a ``client`` and a ``lane``; dispatch is
fair-share-ordered via :class:`~repro.service.admission.AdmissionPolicy`
(reusing the scheduler's ledger) and per-client quotas answer 429 +
``Retry-After`` on breach, published as ``service.admission.*``.
"""

from __future__ import annotations

import json
import os
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from multiprocessing.connection import Connection
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.grid3 import Grid3Config
from ..core.results import paginate
from .admission import AdmissionPolicy, QuotaExceededError
from .progress import sse_end_frame, sse_format
from .queue import JobQueue, QueueFullError, execute_run
from .reports import REPORT_KINDS
from .schemas import (
    ApiError,
    HealthView,
    RunEvents,
    RunRequest,
    RunSubmitted,
    SchemaError,
    parse_pagination,
    parse_submission,
    split_hint,
)
from .store import RunRecord, RunStore

_RUN_PATH = re.compile(r"^/runs/(\d+)$")
_REPORT_PATH = re.compile(r"^/runs/(\d+)/report/([a-z]+)$")
_EVENTS_PATH = re.compile(r"^/runs/(\d+)/events$")
_RUN_METRICS_PATH = re.compile(r"^/runs/(\d+)/metrics$")

#: The API version prefix every canonical route lives under.
API_PREFIX = "/v1"

#: Retained scrape-history samples per metric: a long-lived server must
#: not grow its own telemetry without bound (ring semantics; ~2048
#: scrapes of history per gauge is days at a 1-minute cadence).
SCRAPE_HISTORY = 2048

#: (status, body, headers) — what :meth:`ServiceApp.respond` returns.
Response = Tuple[int, str, List[Tuple[str, str]]]


def strip_version(path: str) -> Tuple[str, bool]:
    """``/v1/runs -> ("/runs", True)``; bare paths pass through."""
    if path == API_PREFIX:
        return "/", True
    if path.startswith(API_PREFIX + "/"):
        return path[len(API_PREFIX):], True
    return path, False


def _no_route(path: str) -> Tuple[int, str]:
    return 404, ApiError(
        code="not_found", message=f"no route {path}",
        hint=f"canonical routes live under {API_PREFIX}/",
    ).to_json()


class ServiceApp:
    """The service brain: run store + queue behind a route table."""

    def __init__(
        self,
        workers: int = 2,
        queue_depth: int = 64,
        cache_bytes: int = 64 * 1024 * 1024,
        pool_factory: Optional[Callable] = None,
        runner: Callable[[Grid3Config, Connection], Dict[str, object]] = execute_run,
        clock: Callable[[], float] = time.time,
        state_dir: Optional[str] = None,
        quota_per_client: int = 0,
        admission_half_life_s: float = 300.0,
    ) -> None:
        self._clock = clock
        self.started_at = clock()
        #: Where the run registry persists (None = in memory, the
        #: embedded and unit-test default).
        self.state_dir = state_dir
        path = ":memory:"
        if state_dir is not None:
            os.makedirs(state_dir, exist_ok=True)
            path = os.path.join(state_dir, "runs.sqlite3")
        self.store = RunStore(path, clock=clock, cache_bytes=cache_bytes)
        self.admission = AdmissionPolicy(
            quota=quota_per_client, half_life=admission_half_life_s,
            clock=clock,
        )
        #: Submissions that joined an in-flight identical run.
        self.joined = 0
        self._submit_lock = threading.Lock()
        self.queue = JobQueue(
            workers=workers,
            depth=queue_depth,
            runner=runner,
            pool_factory=pool_factory,
            on_start=self.store.mark_running,
            on_done=self._on_done,
            on_error=self._on_error,
            on_interrupted=self._on_interrupted,
            admission=self.admission,
        )
        # Scrape history: every /metrics hit appends the service.*
        # gauges as samples, so the estate's MetricStore reads
        # (latest/window_stats, which the alert rules use) work on
        # service telemetry too.
        # Bounded (ring per metric): a long-lived server's own
        # telemetry must not leak.
        from ..monitoring.core import MetricStore
        self.metrics_store = MetricStore(max_samples=SCRAPE_HISTORY)
        # Live alerting over the scrape history: the same AlertEngine
        # the simulation runs in-sim, evaluated against service.* on
        # every scrape; states are served at /alerts and exposed as
        # gauges in /metrics.
        from ..ops.alerts import AlertEngine, service_rules
        self.alerts = AlertEngine(
            service_rules(queue_depth, workers),
            {"service": self.metrics_store},
        )

    # -- queue callbacks ------------------------------------------------------
    def _charge(self, record: RunRecord) -> None:
        """Account a terminal run's wall-clock cost to its client."""
        self.admission.release(record.client)
        if record.started_at is not None:
            finished = record.finished_at
            if finished is None:
                finished = self._clock()
            self.admission.charge(
                record.client, max(0.0, finished - record.started_at))

    def _on_done(self, record: RunRecord, payload: Dict[str, object]) -> None:
        self.store.mark_done(record, payload)
        self._charge(record)

    def _on_error(self, record: RunRecord, detail: str) -> None:
        self.store.mark_failed(record, detail)
        self._charge(record)

    def _on_interrupted(self, record: RunRecord) -> None:
        """Graceful-drain leftover: persist as resubmittable, not lost."""
        self.store.mark_interrupted(record)
        self.admission.release(record.client)

    # -- submission (the dedup path) ------------------------------------------
    def submit(self, request: RunRequest) -> Tuple[int, RunSubmitted]:
        """Dedup-or-enqueue one validated submission."""
        config, digest = request.config, request.digest
        with self._submit_lock:
            cached = self.store.cached(digest)
            if cached is not None:
                return 200, RunSubmitted(
                    run_id=cached.run_id, state=cached.state,
                    dedup="cached", digest=digest,
                )
            existing = self.store.lookup(digest)
            if existing is not None and existing.state in ("queued", "running"):
                self.joined += 1
                return 202, RunSubmitted(
                    run_id=existing.run_id, state=existing.state,
                    dedup="joined", digest=digest,
                )
            if existing is not None and existing.state in (
                    "failed", "interrupted"):
                # A failed or interrupted run does not poison the digest
                # forever: resubmission re-runs.
                self.store.unlink(digest)
            # The quota gate: counts this client's active runs; raises
            # QuotaExceededError (429 + Retry-After) on breach.  Only
            # *this* client is affected — quotas are per-client.
            self.admission.admit(request.client, request.lane)
            record = self.store.create(digest, config,
                                       client=request.client,
                                       lane=request.lane)
            try:
                self.queue.submit(record)
            except QueueFullError:
                self.admission.release(request.client)
                self.store.mark_failed(record, "rejected: queue full")
                self.store.unlink(digest)
                raise
            return 202, RunSubmitted(
                run_id=record.run_id, state=record.state,
                dedup="new", digest=digest,
            )

    # -- metrics ---------------------------------------------------------------
    def service_metrics(self) -> Dict[str, float]:
        """Every ``service.*`` gauge/counter, flat."""
        out: Dict[str, float] = {}
        for key, value in self.store.cache_stats().items():
            out[f"service.cache.{key}"] = value
        queue_stats = self.queue.stats()
        for key in ("depth", "max_depth", "executed", "failed", "rejected"):
            out[f"service.queue.{key}"] = queue_stats[key]
        out["service.queue.joined"] = self.joined
        for key in ("busy", "workers", "utilization"):
            out[f"service.workers.{key}"] = queue_stats[key]
        for state, count in self.store.counts().items():
            out[f"service.runs.{state}"] = count
        out["service.runs.recovered"] = self.store.recovered_interrupted
        admission = self.admission.stats(self.queue.pending_records())
        for key, value in admission.items():
            out[f"service.admission.{key}"] = value
        out["service.uptime_s"] = round(self._clock() - self.started_at, 6)
        return out

    def _scrape(self) -> Dict[str, float]:
        """Snapshot the gauges, file them into the MetricStore, and
        give the live alert rules an evaluation pass."""
        from ..monitoring.core import MetricSample
        gauges = self.service_metrics()
        now = self._clock() - self.started_at
        self.metrics_store.extend(
            MetricSample(now, name, float(value))
            for name, value in sorted(gauges.items())
        )
        self.alerts.evaluate(now)
        return gauges

    def metrics_text(self) -> str:
        """The full Prometheus exposition: service gauges, per-run
        progress gauges, and alert states (one scrape pass)."""
        from ..monitoring.prometheus import render_flat, render_line
        lines = render_flat(self._scrape())
        progress_keys = ("frac", "sim_time", "events", "jobs_submitted",
                         "jobs_completed", "jobs_failed", "tickets_open")
        snapshots = []
        for record in self.store.runs():
            event = record.progress.last()
            if event is not None:
                snapshots.append((record, event))
        if snapshots:
            for key in progress_keys:
                family = f"service_run_progress_{key}"
                lines.append(f"# TYPE {family} gauge")
                for record, event in snapshots:
                    if key not in event:
                        continue
                    lines.append(render_line(
                        family, float(event[key]),  # type: ignore[arg-type]
                        (("run", str(record.run_id)),
                         ("state", record.state)),
                    ))
        rows = self.alerts.status_rows()
        if rows:
            lines.append("# TYPE service_alert_firing gauge")
            for row in rows:
                lines.append(render_line(
                    "service_alert_firing", 1.0 if row.firing else 0.0,
                    (("rule", row.name), ("severity", row.severity)),
                ))
        return "\n".join(lines) + "\n"

    @staticmethod
    def wants_text(path: str, query: Dict[str, str]) -> bool:
        """Does this request get a text/plain (Prometheus) response?"""
        bare, _ = strip_version(path)
        if bare == "/metrics":
            return query.get("format") != "json"
        return bool(_RUN_METRICS_PATH.match(bare))

    # -- the route table -------------------------------------------------------
    @staticmethod
    def _known_path(bare: str) -> bool:
        """Is ``bare`` the shape of a real route (405, not 404)?"""
        return bool(
            bare in ("/healthz", "/metrics", "/runs", "/alerts")
            or _RUN_PATH.match(bare) or _REPORT_PATH.match(bare)
            or _EVENTS_PATH.match(bare) or _RUN_METRICS_PATH.match(bare)
        )

    def respond(self, method: str, path: str, query: Dict[str, str],
                body: bytes) -> Response:
        """Dispatch one request; ``(status, json_body, headers)``.

        Only canonical ``/v1/...`` paths route; anything else is a 404.
        """
        bare, versioned = strip_version(path)
        headers: List[Tuple[str, str]] = []
        try:
            if not versioned:
                status, payload = _no_route(path)
            else:
                status, payload = self._route(method, bare, query, body)
        except SchemaError as exc:
            message, hint = split_hint(str(exc))
            status, payload = 400, ApiError(
                code="bad_request", message=message, hint=hint,
            ).to_json()
        except QuotaExceededError as exc:
            headers.append(("Retry-After", str(exc.retry_after)))
            status, payload = 429, ApiError(
                code="quota_exceeded", message=str(exc),
                hint="wait Retry-After seconds, or submit as a different "
                     "client; other clients' lanes are unaffected",
            ).to_json()
        except QueueFullError as exc:
            headers.append(("Retry-After", "1"))
            status, payload = 429, ApiError(
                code="queue_full", message=str(exc),
                hint="the whole queue is at depth; retry with backoff",
            ).to_json()
        except Exception as exc:  # noqa: BLE001 - the 500 of last resort
            status, payload = 500, ApiError(
                code="internal_error",
                message=f"{type(exc).__name__}: {exc}",
                hint="this is a server-side bug; the run registry is intact",
            ).to_json()
        return status, payload, headers

    def _route(self, method: str, path: str, query: Dict[str, str],
               body: bytes) -> Tuple[int, str]:
        if path == "/healthz" and method == "GET":
            return 200, HealthView(
                status="ok",
                uptime_s=round(self._clock() - self.started_at, 6),
                queue_depth=self.queue.depth,
                workers=self.queue.workers,
                durable=self.state_dir is not None,
                recovered_runs=self.store.recovered_interrupted,
            ).to_json()
        if path == "/metrics" and method == "GET":
            if query.get("format") == "json":
                return 200, json.dumps(self._scrape(), sort_keys=True)
            return 200, self.metrics_text()
        if path == "/alerts" and method == "GET":
            self._scrape()  # evaluate against fresh gauges
            rows = self.alerts.status_rows()
            return 200, json.dumps({
                "rules": [row.as_dict() for row in rows],
                "firing": sum(1 for row in rows if row.firing),
            }, sort_keys=True)
        if path == "/runs" and method == "POST":
            status, submitted = self.submit(parse_submission(body))
            return status, submitted.to_json()
        if path == "/runs" and method == "GET":
            offset, limit = parse_pagination(query)
            now = self._clock()
            views = [r.view(now) for r in self.store.runs()]
            return 200, paginate(views, offset, limit).to_json()
        match = _RUN_PATH.match(path)
        if match and method == "GET":
            record = self.store.get(int(match.group(1)))
            if record is None:
                return 404, ApiError(
                    code="not_found",
                    message=f"no run {match.group(1)}",
                    hint="list runs at GET /v1/runs",
                ).to_json()
            return 200, record.view(self._clock()).to_json()
        match = _REPORT_PATH.match(path)
        if match and method == "GET":
            return self._report(int(match.group(1)), match.group(2), query)
        match = _EVENTS_PATH.match(path)
        if match and method == "GET":
            return self._events(int(match.group(1)), query)
        match = _RUN_METRICS_PATH.match(path)
        if match and method == "GET":
            return self._run_metrics(int(match.group(1)))
        if self._known_path(path):
            return 405, ApiError(
                code="method_not_allowed",
                message=f"{method} {path}",
                hint="see docs/API.md for each route's methods",
            ).to_json()
        return _no_route(path)

    def _not_finished(self, record: RunRecord,
                      run_id: int) -> Optional[Tuple[int, str]]:
        """The shared 409/410 ladder for result-bearing endpoints."""
        if record.state == "interrupted":
            return 409, ApiError(
                code="run_interrupted",
                message=record.error or "run interrupted",
                hint="resubmit the same config (same digest) to re-run",
            ).to_json()
        if record.state == "failed":
            return 409, ApiError(
                code="run_failed", message=record.error or "run failed",
                hint="fix the config or resubmit; failed digests re-run",
            ).to_json()
        if record.state != "done":
            return 409, ApiError(
                code="run_not_finished",
                message=f"run {run_id} is {record.state}",
                hint=f"poll /v1/runs/{run_id} or stream "
                     f"/v1/runs/{run_id}/events until done",
            ).to_json()
        if record.payload is None:
            return 410, ApiError(
                code="result_evicted",
                message="the result cache dropped this run's payload",
                hint="resubmit the config to re-run it",
            ).to_json()
        return None

    def _events(self, run_id: int,
                query: Dict[str, str]) -> Tuple[int, str]:
        """The ``?since=`` delta-poll body (the SSE stream lives in the
        handler, which needs the socket; this path is socketless)."""
        record = self.store.get(run_id)
        if record is None:
            return 404, ApiError(
                code="not_found", message=f"no run {run_id}",
                hint="list runs at GET /v1/runs",
            ).to_json()
        raw = query.get("since", "-1")
        try:
            since = int(raw)
        except ValueError as exc:
            raise SchemaError(
                f"since must be an integer event seq, got {raw!r}"
            ) from exc
        events, closed = record.progress.since(since)
        next_since = int(events[-1]["seq"]) if events else since
        return 200, RunEvents(
            run_id=run_id,
            state=record.state,
            since=since,
            next_since=next_since,
            closed=closed,
            events=events,
        ).to_json()

    def _run_metrics(self, run_id: int) -> Tuple[int, str]:
        """A finished run's Prometheus exposition (worker-rendered)."""
        record = self.store.get(run_id)
        if record is None:
            return 404, ApiError(
                code="not_found", message=f"no run {run_id}",
                hint="list runs at GET /v1/runs",
            ).to_json()
        blocked = self._not_finished(record, run_id)
        if blocked is not None:
            return blocked
        text = record.payload.get("metrics_text")
        if not isinstance(text, str):
            return 404, ApiError(
                code="not_found",
                message="this run predates metrics exposition",
                hint="resubmit the config to get a metrics-bearing run",
            ).to_json()
        return 200, text

    def _report(self, run_id: int, kind: str,
                query: Dict[str, str]) -> Tuple[int, str]:
        record = self.store.get(run_id)
        if record is None:
            return 404, ApiError(
                code="not_found", message=f"no run {run_id}",
                hint="list runs at GET /v1/runs",
            ).to_json()
        if kind not in REPORT_KINDS:
            return 404, ApiError(
                code="not_found",
                message=f"unknown report kind {kind!r}",
                hint=f"one of {list(REPORT_KINDS)}",
            ).to_json()
        blocked = self._not_finished(record, run_id)
        if blocked is not None:
            return blocked
        offset, limit = parse_pagination(query)
        rows = record.payload["reports"][kind]  # type: ignore[index]
        return 200, paginate(rows, offset, limit).to_json()

    # -- lifecycle -------------------------------------------------------------
    def close(self, drain: bool = True, timeout: float = 300.0) -> bool:
        """Shut the queue down.  With ``drain`` the accepted work
        finishes; whatever stays queued is stored ``interrupted``
        (resubmittable), never silently dropped."""
        finished = self.queue.shutdown(drain=drain, timeout=timeout)
        self.store.close()
        return finished


class _Handler(BaseHTTPRequestHandler):
    """Thin socket adapter over :meth:`ServiceApp.respond`."""

    app: ServiceApp  # set by ReproService's handler subclass
    server_version = "repro-grid-service/2.0"
    protocol_version = "HTTP/1.1"
    # A response goes out in two sends (headers, then body).  On a
    # kept-alive connection Nagle would hold the body back until the
    # peer's delayed ACK of the headers, about 40 ms per request.
    disable_nagle_algorithm = True

    def _dispatch(self, method: str) -> None:
        from urllib.parse import parse_qsl, urlsplit
        split = urlsplit(self.path)
        query = dict(parse_qsl(split.query))
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        bare, versioned = strip_version(split.path)
        match = _EVENTS_PATH.match(bare)
        record = self.app.store.get(int(match.group(1))) if match else None
        if (method == "GET" and versioned and "since" not in query
                and record is not None):
            self._stream_events(record)
            return
        status, payload, headers = self.app.respond(
            method, split.path, query, body)
        data = payload.encode("utf-8")
        content_type = "application/json"
        if status == 200 and self.app.wants_text(split.path, query):
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _stream_events(self, record: RunRecord) -> None:
        """``GET /v1/runs/{id}/events`` without ``?since=``: the SSE
        path (an unknown run falls through to the routed 404).

        Streams the run's ProgressLog as Server-Sent Events until the
        run reaches a terminal state (then an ``end`` frame and EOF).
        A dropped client only kills this handler thread — the run, its
        log, and other streams are unaffected.  ``Last-Event-ID``
        resumes a reconnect from where the previous stream stopped.
        """
        try:
            seq = int(self.headers.get("Last-Event-ID") or -1)
        except ValueError:
            seq = -1
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        log = record.progress
        try:
            while True:
                events, closed = log.wait_for(seq, timeout=15.0)
                for event in events:
                    self.wfile.write(sse_format(event))
                    seq = max(seq, int(event["seq"]))  # type: ignore[arg-type]
                self.wfile.flush()
                if closed:
                    # Drain any final events that raced the close.
                    tail, _ = log.since(seq)
                    for event in tail:
                        self.wfile.write(sse_format(event))
                    self.wfile.write(sse_end_frame())
                    self.wfile.flush()
                    return
                if not events:
                    # Keepalive comment so idle streams detect drops.
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away; the run is untouched

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # requests are observable via /metrics, not stderr noise


class _Server(ThreadingHTTPServer):
    """A ThreadingHTTPServer that can end its kept-alive connections.

    An HTTP/1.1 client holds its connection open between requests, and
    the handler thread waits on it.  ``server_close`` shuts every open
    connection down so those threads see EOF and exit.  ``shutdown``,
    not ``close``: a forked pool worker holds copies of the
    descriptors, so closing ours alone would not end the connection.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], handler: type) -> None:
        super().__init__(address, handler)
        self._open: Set[socket.socket] = set()
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._open_lock:
            open_now = list(self._open)
        for request in open_now:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer already went away


class ReproService:
    """The running service: a ThreadingHTTPServer around a ServiceApp.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` —
    the integration suite's pattern).  ``start()`` serves on a
    background thread; ``close(drain=True)`` stops intake, lets queued
    runs finish, and tears the listener down.  ``state_dir`` makes the
    run registry durable: a later service on the same dir resumes with
    every prior run intact.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_depth: int = 64,
        cache_bytes: int = 64 * 1024 * 1024,
        app: Optional[ServiceApp] = None,
        pool_factory: Optional[Callable] = None,
        state_dir: Optional[str] = None,
        quota_per_client: int = 0,
    ) -> None:
        self.app = app if app is not None else ServiceApp(
            workers=workers, queue_depth=queue_depth,
            cache_bytes=cache_bytes, pool_factory=pool_factory,
            state_dir=state_dir, quota_per_client=quota_per_client,
        )

        class _BoundHandler(_Handler):
            app = self.app

        self.httpd = _Server((host, port), _BoundHandler)
        self.host = host
        self.port = self.httpd.server_address[1]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproService":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever,
                name="repro-service", daemon=True,
            )
            self._thread.start()
        return self

    def close(self, drain: bool = True, timeout: float = 300.0) -> bool:
        """Graceful shutdown: drain the queue, then stop the listener."""
        drained = self.app.close(drain=drain, timeout=timeout)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        return drained

    def serve_forever(self) -> None:
        """Block in the listener (the CLI path); Ctrl-C drains and exits."""
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.app.close(drain=True)
            self.httpd.server_close()


def serve(
    port: int = 8080,
    workers: int = 2,
    host: str = "127.0.0.1",
    queue_depth: int = 64,
    cache_bytes: int = 64 * 1024 * 1024,
    state_dir: Optional[str] = None,
    quota_per_client: int = 16,
    out: Callable[[str], None] = print,
) -> int:
    """Run the service until interrupted (the ``repro serve`` body)."""
    service = ReproService(
        host=host, port=port, workers=workers,
        queue_depth=queue_depth, cache_bytes=cache_bytes,
        state_dir=state_dir, quota_per_client=quota_per_client,
    )
    durable = f"durable registry at {state_dir}" if state_dir \
        else "in-memory registry (pass --state-dir to survive restarts)"
    recovered = service.app.store.recovered_interrupted
    out(f"grid-as-a-service listening on {service.url} "
        f"({workers} worker(s), queue depth {queue_depth}, {durable})")
    if recovered:
        out(f"  recovered {len(service.app.store)} run(s) from the state dir; "
            f"{recovered} interrupted run(s) are resubmittable")
    out(f"  POST {service.url}/v1/runs                submit a simulation "
        f"(client= and lane= for admission)")
    out(f"  GET  {service.url}/v1/runs                list runs (paginated)")
    out(f"  GET  {service.url}/v1/runs/<id>           poll its state")
    out(f"  GET  {service.url}/v1/runs/<id>/events    live progress "
        f"(SSE; ?since=seq polls)")
    out(f"  GET  {service.url}/v1/runs/<id>/report/"
        f"ops|troubleshooting|trace")
    out(f"  GET  {service.url}/v1/runs/<id>/metrics   finished run's "
        f"Prometheus exposition")
    out(f"  GET  {service.url}/v1/healthz             liveness + durability")
    out(f"  GET  {service.url}/v1/metrics             Prometheus text "
        f"(?format=json for flat JSON)")
    out(f"  GET  {service.url}/v1/alerts              live alert-rule states")
    service.serve_forever()
    return 0
