"""Request/response schemas for the service HTTP layer.

Requests are parsed and validated *here*, before anything touches the
queue: a malformed body, an unknown knob, or a bad value raises
:class:`SchemaError`, which the app maps to a 400 with the message in
the response body — the §8 "direct information" principle applied to
the API's own errors.  Responses are frozen dataclasses on the shared
:class:`~repro.core.results.ReportRecord` convention, so every wire
payload is sorted-key JSON.

Since the v1 redesign every non-2xx response shares **one envelope**::

    {"error": {"code": "...", "message": "...", "hint": "..."}}

``code`` is a stable machine-readable slug (see ``ERROR_CODES``),
``message`` says what happened, and ``hint`` says what to do about it —
did-you-mean suggestions live there, not inside the message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from ..core.grid3 import Grid3Config, did_you_mean, knob_type_mismatch
from ..core.results import ReportRecord
from ..errors import GridError

#: Body keys `POST /v1/runs` accepts.
_REQUEST_KEYS = ("config", "scenario", "client", "lane")

#: Knobs that cannot cross the JSON boundary (they take live objects);
#: scenarios are the supported way to get non-default values for them.
_NON_WIRE_KNOBS = ("failures",)

#: Every machine-readable error code the API can answer with, mapped to
#: its meaning (documented in docs/API.md; the test suite asserts the
#: envelope only ever carries one of these).
ERROR_CODES = {
    "bad_request": "the request body or query failed validation",
    "not_found": "no such route, run, or report kind",
    "method_not_allowed": "the route exists but not for this method",
    "queue_full": "the bounded job queue is at depth",
    "quota_exceeded": "the client is at its per-client active-run quota",
    "run_failed": "the referenced run ended in failure",
    "run_not_finished": "the referenced run has not completed yet",
    "run_interrupted": "the run was interrupted by a service shutdown",
    "result_evicted": "the result cache dropped this run's payload",
    "internal_error": "unhandled server-side exception",
}


class SchemaError(GridError):
    """A request failed validation; the message is the 400 body."""


@dataclass(frozen=True)
class ApiError(ReportRecord):
    """The uniform error envelope every non-2xx response carries."""

    code: str
    message: str
    hint: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {"error": {"code": self.code, "message": self.message,
                          "hint": self.hint}}


def split_hint(message: str) -> Tuple[str, str]:
    """Split a validation message into ``(message, hint)``.

    Did-you-mean suggestions (the config validator appends
    ``"; did you mean 'x'?"``) move into the envelope's ``hint`` field.
    """
    marker = "; did you mean "
    if marker in message:
        head, _, tail = message.partition(marker)
        return head, "did you mean " + tail
    return message, ""


@dataclass(frozen=True)
class RunRequest:
    """One validated `POST /v1/runs` submission.

    ``client`` is the fair-share/quota accounting identity (free-form
    string; defaults to ``"anonymous"``); ``lane`` picks the dispatch
    lane (``"interactive"`` beats ``"batch"``).  ``digest`` is the
    config's :meth:`~repro.Grid3Config.canonical_digest`, the result-cache
    key, computed once while the submission is validated.
    """

    config: Grid3Config
    digest: str
    client: str = "anonymous"
    lane: str = "batch"


@dataclass(frozen=True)
class RunSubmitted(ReportRecord):
    """`POST /v1/runs` response: where the submission landed.

    ``dedup`` is ``"new"`` (a simulation was enqueued), ``"joined"``
    (an identical run is already queued/running — same id returned), or
    ``"cached"`` (an identical run already finished — its result is
    served without running anything).
    """

    run_id: int
    state: str
    dedup: str
    digest: str


@dataclass(frozen=True)
class RunView(ReportRecord):
    """`GET /v1/runs/{id}` response: the run's state machine, observable.

    States walk ``queued -> running -> done | failed | interrupted``;
    ``elapsed_s`` is wall time since submission (until completion, once
    finished).  ``client``/``lane`` are the admission identity the run
    was accounted under.
    """

    run_id: int
    state: str
    digest: str
    client: str
    lane: str
    elapsed_s: float
    submitted_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    error: Optional[str]
    summary: Optional[Dict[str, object]]


@dataclass(frozen=True)
class HealthView(ReportRecord):
    """`GET /v1/healthz` response."""

    status: str
    uptime_s: float
    queue_depth: int
    workers: int
    durable: bool
    recovered_runs: int


@dataclass(frozen=True)
class RunEvents(ReportRecord):
    """`GET /v1/runs/{id}/events?since=N` response: the delta-poll view.

    ``events`` are every progress event with ``seq > since`` (the same
    deterministic sequence the SSE stream carries); ``next_since`` is
    what the client passes next (unchanged when no news); ``closed``
    means the run reached a terminal state and no further events will
    ever arrive.
    """

    run_id: int
    state: str
    since: int
    next_since: int
    closed: bool
    events: List[Dict[str, object]]


def _wire_value(knob: str, default: object, value: object) -> object:
    """Type-check one JSON knob value by :func:`knob_type_mismatch` and
    give float knobs a float: JSON has one number type, so 14 arrives
    for a 14.0 knob.  Other knobs are left to :meth:`Grid3Config.validate`.
    """
    want = knob_type_mismatch(default, value)
    if want:
        raise SchemaError(f"knob {knob!r} must be {want}, got {value!r}")
    if isinstance(default, float):
        return float(value)  # type: ignore[arg-type]
    return value


def parse_submission(body: bytes) -> RunRequest:
    """Parse and validate a `POST /v1/runs` body.

    The body is ``{"config": {<Grid3Config knobs>}}``, optionally with
    ``"scenario": "<name>"`` to start from a canned scenario config
    (knobs in ``config`` override it, mirroring the CLI),
    ``"client": "<id>"`` naming the submitter for fair-share/quota
    accounting, and ``"lane": "interactive"|"batch"``.  Every
    validation failure raises :class:`SchemaError` with an actionable
    message; unknown knobs get the same did-you-mean treatment as
    :meth:`Grid3Config.validate`.
    """
    from ..errors import ConfigurationError
    from ..scenarios import SCENARIOS
    from .admission import LANES

    try:
        payload = json.loads(body or b"{}")
    except ValueError as exc:  # also bad UTF-8 and over-long integers
        raise SchemaError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(_REQUEST_KEYS))
    if unknown:
        raise SchemaError(
            f"unknown request key(s) {unknown!r}; accepted: {list(_REQUEST_KEYS)}"
        )

    client = payload.get("client", "anonymous")
    if not isinstance(client, str) or not client.strip():
        raise SchemaError(
            f"'client' must be a non-empty string, got {client!r}"
        )
    client = client.strip()
    if len(client) > 128:
        raise SchemaError("'client' must be at most 128 characters")

    lane = payload.get("lane", "batch")
    if lane not in LANES:
        raise SchemaError(
            f"unknown lane {lane!r}; one of {list(LANES)}"
        )

    scenario = payload.get("scenario")
    if scenario is not None:
        if not isinstance(scenario, str) or scenario not in SCENARIOS:
            raise SchemaError(
                f"unknown scenario {scenario!r}; one of {sorted(SCENARIOS)}"
            )
        config = SCENARIOS[scenario]()
    else:
        config = Grid3Config()

    overrides = payload.get("config", {})
    if not isinstance(overrides, dict):
        raise SchemaError(
            f"'config' must be a JSON object of Grid3Config knobs, got "
            f"{type(overrides).__name__}"
        )
    for knob in _NON_WIRE_KNOBS:
        if knob in overrides:
            raise SchemaError(
                f"knob {knob!r} is not settable over the API (it takes a "
                f"live object); pick a 'scenario' that configures it"
            )
    defaults = {f.name: f.default for f in fields(Grid3Config)}
    for knob, value in overrides.items():
        if knob not in defaults:
            raise SchemaError(f"unknown Grid3Config knob {knob!r}"
                              f"{did_you_mean(knob, sorted(defaults))}")
        setattr(config, knob, _wire_value(knob, defaults[knob], value))
    try:
        digest = config.canonical_digest()  # validates the config first
    except ConfigurationError as exc:
        raise SchemaError(str(exc)) from exc
    return RunRequest(config=config, digest=digest, client=client, lane=lane)


def parse_pagination(
    query: Dict[str, str], default_limit: int = 500
) -> Tuple[int, int]:
    """``?offset=&limit=`` query parameters as validated ints."""
    def as_int(key: str, default: int) -> int:
        raw = query.get(key)
        if raw is None or raw == "":
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise SchemaError(f"{key} must be an integer, got {raw!r}") from exc

    offset = as_int("offset", 0)
    limit = as_int("limit", default_limit)
    if offset < 0:
        raise SchemaError(f"offset must be >= 0, got {offset}")
    if limit < 1:
        raise SchemaError(f"limit must be >= 1, got {limit}")
    return offset, limit
