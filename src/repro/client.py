"""A typed, stdlib-only client for the v1 grid-as-a-service API.

:class:`GridClient` wraps the HTTP surface :mod:`repro.service` exposes
— submit, poll, reports, events, health, metrics — against the
canonical ``/v1`` routes, and returns the same frozen
:class:`~repro.core.results.ReportRecord` types the server serialises
(:class:`~repro.service.schemas.RunSubmitted`,
:class:`~repro.service.schemas.RunView`, ...), so a client-side caller
and an embedded-``ServiceApp`` caller handle identical shapes.

Errors are typed too: every non-2xx response carries the uniform
``{"error": {"code", "message", "hint"}}`` envelope, which surfaces
here as :class:`GridServiceError` with ``status``, ``code``, ``hint``,
and (for 429s) ``retry_after`` attributes — so callers branch on
``exc.code == "quota_exceeded"`` instead of parsing message strings.

The transport is :mod:`http.client` over persistent HTTP/1.1
connections: a call takes an idle connection (or opens one), sends its
request, reads the whole response and gives the connection back, so a
single-threaded caller sends everything over one TCP connection and
concurrent callers each hold their own.  A server may close an idle
connection at any time; when a *reused* connection is found closed
before any status line came back, the request is sent once more on a
fresh one.  A timeout, or a failure on a fresh connection, is never
retried.  (A replayed ``POST /v1/runs`` is harmless: digest dedup
answers it ``joined`` or ``cached``.)  ``close()`` — or leaving a
``with GridClient(...)`` block — closes the idle connections, which
lets the server's handler threads exit; the client stays usable and
reconnects on its next call.

Typical use::

    from repro.client import GridClient

    with GridClient("http://127.0.0.1:8080") as client:
        submitted = client.submit({"scale": 6000}, client_id="alice",
                                  lane="interactive")
        view = client.wait(submitted.run_id)
        page = client.report(view.run_id, "ops")
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Dict, Iterator, List, Optional

from .core.results import ReportPage
from .errors import GridError
from .service.schemas import HealthView, RunEvents, RunSubmitted, RunView

#: The API version prefix the client speaks (matches the server's).
API_PREFIX = "/v1"


class GridServiceError(GridError):
    """A non-2xx response, decoded from the v1 error envelope.

    ``status`` is the HTTP status; ``code`` is the stable slug from
    :data:`~repro.service.schemas.ERROR_CODES`; ``hint`` is the
    server's what-to-do-about-it text; ``retry_after`` is the parsed
    ``Retry-After`` header in seconds (None unless the server sent
    one — 429s always do).
    """

    def __init__(self, status: int, code: str, message: str,
                 hint: str = "", retry_after: Optional[int] = None) -> None:
        text = f"[{status} {code}] {message}"
        if hint:
            text += f" (hint: {hint})"
        super().__init__(text)
        self.status = status
        self.code = code
        self.hint = hint
        self.retry_after = retry_after


class GridClient:
    """Typed access to one grid service at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        split = urllib.parse.urlsplit(self.base_url)
        if split.scheme not in ("http", "https"):
            raise ValueError(
                f"base_url must be an http(s) URL, got {base_url!r}")
        self._netloc = split.netloc
        self._root = split.path + API_PREFIX
        self._connection_class = (
            http.client.HTTPSConnection if split.scheme == "https"
            else http.client.HTTPConnection)
        self._idle: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    # -- transport -------------------------------------------------------------
    def close(self) -> None:
        """Close the idle connections (the client stays usable)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "GridClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _request(self, method: str, path: str,
                 query: Optional[Dict[str, object]] = None,
                 body: Optional[Dict[str, object]] = None) -> bytes:
        """One round trip; the 2xx body, or :class:`GridServiceError`."""
        url = self._root + path
        if query:
            url += "?" + urllib.parse.urlencode(
                {k: v for k, v in query.items() if v is not None})
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            connection = self._connection_class(
                self._netloc, timeout=self.timeout)
        try:
            response = self._exchange(connection, method, url, data, headers)
            raw = response.read()
        except BaseException:
            connection.close()  # reconnects on its next use
            raise
        finally:
            with self._lock:
                self._idle.append(connection)
        if not 200 <= response.status < 300:
            raise self._decode_error(response.status, response.headers, raw)
        return raw

    @staticmethod
    def _exchange(connection: http.client.HTTPConnection, method: str,
                  url: str, data: Optional[bytes],
                  headers: Dict[str, str]) -> http.client.HTTPResponse:
        """Send one request and read its status line, retrying once on
        a fresh connection if a reused one was closed under us."""
        reused = connection.sock is not None
        try:
            connection.request(method, url, body=data, headers=headers)
            return connection.getresponse()
        except (ConnectionResetError, BrokenPipeError):
            # http.client.RemoteDisconnected is a ConnectionResetError:
            # the server closed the connection before a status line.
            if not reused:
                raise
            connection.close()
        connection.request(method, url, body=data, headers=headers)
        return connection.getresponse()

    @staticmethod
    def _decode_error(status: int, headers: http.client.HTTPMessage,
                      raw: bytes) -> GridServiceError:
        code, message, hint = "internal_error", raw.decode(
            "utf-8", "replace"), ""
        try:
            envelope = json.loads(raw).get("error", {})
            code = str(envelope.get("code", code))
            message = str(envelope.get("message", message))
            hint = str(envelope.get("hint", ""))
        except (ValueError, AttributeError):
            pass  # not an envelope (shouldn't happen on a v1 server)
        retry_after: Optional[int] = None
        raw_retry = headers.get("Retry-After")
        if raw_retry is not None:
            try:
                retry_after = int(raw_retry)
            except ValueError:
                retry_after = None
        return GridServiceError(status, code, message, hint,
                                retry_after=retry_after)

    def _get_json(self, path: str,
                  query: Optional[Dict[str, object]] = None) -> Dict:
        return json.loads(self._request("GET", path, query=query))

    # -- submission & polling --------------------------------------------------
    def submit(self, config: Optional[Dict[str, object]] = None,
               scenario: Optional[str] = None,
               client_id: str = "anonymous",
               lane: str = "batch") -> RunSubmitted:
        """``POST /v1/runs``: submit (or dedup-join) one simulation.

        ``config`` is a dict of :class:`~repro.Grid3Config` knobs (on
        top of ``scenario`` when both are given); ``client_id``/``lane``
        are the admission identity.  Raises :class:`GridServiceError`
        with ``code="quota_exceeded"`` (and ``retry_after`` set) on a
        quota breach.
        """
        body: Dict[str, object] = {"client": client_id, "lane": lane}
        if config is not None:
            body["config"] = config
        if scenario is not None:
            body["scenario"] = scenario
        return RunSubmitted(**json.loads(
            self._request("POST", "/runs", body=body)))

    def run(self, run_id: int) -> RunView:
        """``GET /v1/runs/{id}``: the run's current state snapshot."""
        return RunView(**self._get_json(f"/runs/{run_id}"))

    def runs(self, offset: int = 0, limit: int = 500) -> ReportPage:
        """``GET /v1/runs``: the paginated run listing (raw dict rows)."""
        data = self._get_json("/runs", {"offset": offset, "limit": limit})
        return self._page(data)

    def wait(self, run_id: int, timeout: float = 600.0,
             poll_s: float = 0.2) -> RunView:
        """Poll ``/v1/runs/{id}`` until the run is terminal.

        Returns the terminal :class:`RunView` whatever the outcome —
        callers check ``view.state`` (``done``/``failed``/
        ``interrupted``).  Raises :class:`TimeoutError` if the run is
        still going when ``timeout`` elapses.
        """
        deadline = time.monotonic() + timeout
        while True:
            view = self.run(run_id)
            if view.state in ("done", "failed", "interrupted"):
                return view
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"run {run_id} still {view.state!r} after {timeout}s")
            time.sleep(poll_s)

    # -- results ---------------------------------------------------------------
    @staticmethod
    def _page(data: Dict) -> ReportPage:
        """A served pagination envelope back as the frozen ReportPage
        (the wire shape nests offset/limit under ``slice``)."""
        slice_ = data["slice"]
        return ReportPage(rows=tuple(data["items"]), total=data["total"],
                          offset=slice_["offset"], limit=slice_["limit"])

    def report(self, run_id: int, kind: str, offset: int = 0,
               limit: int = 500) -> ReportPage:
        """``GET /v1/runs/{id}/report/{kind}``: one paginated report."""
        data = self._get_json(f"/runs/{run_id}/report/{kind}",
                              {"offset": offset, "limit": limit})
        return self._page(data)

    def report_rows(self, run_id: int, kind: str,
                    page_size: int = 500) -> Iterator[Dict[str, object]]:
        """Every row of one report, walking the pagination for you."""
        offset = 0
        while True:
            page = self.report(run_id, kind, offset=offset, limit=page_size)
            for row in page.rows:
                yield row
            offset += len(page.rows)
            if offset >= page.total or not page.rows:
                return

    def events(self, run_id: int, since: int = -1) -> RunEvents:
        """``GET /v1/runs/{id}/events?since=N``: the progress delta."""
        data = self._get_json(f"/runs/{run_id}/events", {"since": since})
        return RunEvents(**data)

    def run_metrics(self, run_id: int) -> str:
        """``GET /v1/runs/{id}/metrics``: the run's Prometheus text."""
        return self._request("GET", f"/runs/{run_id}/metrics").decode("utf-8")

    # -- service-level surfaces ------------------------------------------------
    def health(self) -> HealthView:
        """``GET /v1/healthz`` as the typed record."""
        return HealthView(**self._get_json("/healthz"))

    def metrics(self) -> Dict[str, float]:
        """``GET /v1/metrics?format=json``: the flat gauge snapshot."""
        return self._get_json("/metrics", {"format": "json"})

    def metrics_text(self) -> str:
        """``GET /v1/metrics``: the Prometheus text exposition."""
        return self._request("GET", "/metrics").decode("utf-8")

    def alerts(self) -> List[Dict[str, object]]:
        """``GET /v1/alerts``: the live alert-rule state rows."""
        return self._get_json("/alerts")["rules"]
