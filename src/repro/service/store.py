"""The run registry: every submission's state machine + results.

One :class:`RunRecord` per *distinct* simulation (dedup means an
identical resubmission returns the existing record's id rather than
minting a new one).  The store owns the ``queued -> running -> done |
failed | interrupted`` transitions, the digest index the dedup path
looks up, and the byte-budgeted LRU of resident finished payloads: an
identical what-if query costs one run while its result is resident,
and an evicted run re-runs.

Grid3 ran as a *persistent* service whose accounting survived restarts
(§5–6), so the registry is one sqlite table ``runs`` with a row per
run.  Each transition is one ``INSERT``/``UPDATE`` committed inside the
mutating critical section (WAL, ``synchronous=NORMAL``); a ``done`` and
the evictions it causes share one commit.  Reads are served from the
in-memory records; the table is read only at open, which is also crash
recovery: rows still ``queued``/``running`` become ``interrupted`` (a
terminal, resubmittable state the digest index skips), finished runs
come back with their exact payload bytes, and the LRU is rebuilt in
``(finished_at, run_id)`` order.  Without a state directory the table
lives in ``":memory:"`` — the same code path.

Configs are stored as pickles, as they already cross the worker-pool
boundary; payloads as the sorted-key JSON bytes the service serves.
All methods are thread-safe.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.grid3 import Grid3Config
from .progress import ProgressLog
from .schemas import RunView

#: Legal states, in lifecycle order.  ``interrupted`` is terminal: the
#: service stopped (gracefully or not) before the run completed; the
#: config is intact and a resubmission re-runs it.
STATES = ("queued", "running", "done", "failed", "interrupted")

#: The error string an interrupted record carries (also the API hint).
INTERRUPTED_ERROR = (
    "run interrupted by service shutdown before completion; "
    "resubmit the same config to re-run it"
)

#: The table layout's version (bumped only on incompatible change).
SCHEMA_VERSION = 2

_RUNS_TABLE = """
CREATE TABLE runs (
    run_id       INTEGER PRIMARY KEY,
    digest       TEXT NOT NULL,
    client       TEXT NOT NULL,
    lane         TEXT NOT NULL,
    config       BLOB NOT NULL,
    state        TEXT NOT NULL,
    submitted_at REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL,
    error        TEXT,
    payload      BLOB
)
"""


class StoreError(Exception):
    """The state file is unusable (schema version mismatch)."""


class RunRecord:
    """One submitted simulation: config, state, timestamps, results."""

    __slots__ = (
        "run_id", "digest", "config", "client", "lane", "state",
        "submitted_at", "started_at", "finished_at", "error", "payload",
        "payload_bytes", "progress",
    )

    def __init__(self, run_id: int, digest: str, config: Grid3Config,
                 submitted_at: float, client: str = "anonymous",
                 lane: str = "batch") -> None:
        self.run_id = run_id
        self.digest = digest
        self.config = config
        #: Who submitted (the fair-share/quota accounting key).
        self.client = client
        #: Admission lane: ``interactive`` dispatches before ``batch``.
        self.lane = lane
        self.state = "queued"
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.error: Optional[str] = None
        #: ``{"reports": {...}, "summary": {...}}`` once done (and until
        #: the LRU evicts it).
        self.payload: Optional[Dict[str, object]] = None
        self.payload_bytes = 0
        #: Live progress events streamed from the worker; closed when
        #: the run reaches a terminal state (SSE streams end then).
        self.progress = ProgressLog()

    def view(self, now: float) -> RunView:
        """The wire-shape snapshot of this record."""
        end = self.finished_at if self.finished_at is not None else now
        summary = None
        if self.payload is not None:
            summary = self.payload.get("summary")  # type: ignore[assignment]
        return RunView(
            run_id=self.run_id,
            state=self.state,
            digest=self.digest,
            client=self.client,
            lane=self.lane,
            elapsed_s=round(max(0.0, end - self.submitted_at), 6),
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            error=self.error,
            summary=summary,
        )


class RunStore:
    """Registry of every run over one sqlite ``runs`` table.

    ``path`` is the database file (``":memory:"`` for a registry that
    dies with the process); opening a non-empty file recovers it.
    ``cache_bytes`` is the budget of resident finished payloads.
    """

    def __init__(self, path: str = ":memory:", clock=time.time,
                 cache_bytes: int = 64 * 1024 * 1024) -> None:
        if cache_bytes < 1:
            raise ValueError(f"cache_bytes must be >= 1, got {cache_bytes}")
        self._clock = clock
        self._lock = threading.RLock()
        self._runs: Dict[int, RunRecord] = {}
        self._by_digest: Dict[str, int] = {}
        self._seq = 0
        #: Resident finished runs, least recently used first.
        self._lru: "OrderedDict[str, RunRecord]" = OrderedDict()
        self._bytes = 0
        #: The resident-payload budget (bytes).
        self.max_bytes = cache_bytes
        #: LRU counters (the dedup proof the acceptance test reads).
        self._counters = {"hits": 0, "misses": 0, "evictions": 0}
        #: Runs recovered as ``interrupted`` at open (the
        #: restart-visibility number ``/healthz`` and metrics report).
        self.recovered_interrupted = 0
        self._closed = False
        self._db = sqlite3.connect(path, check_same_thread=False,
                                   timeout=30.0)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._open(path)

    # -- open & recovery ------------------------------------------------------
    def _open(self, path: str) -> None:
        """Check the schema, recover a dead process's rows, load them."""
        db = self._db
        db.execute("CREATE TABLE IF NOT EXISTS meta "
                   "(key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        row = db.execute(
            "SELECT value FROM meta WHERE key='schema_version'").fetchone()
        if row is None:
            db.execute("INSERT INTO meta (key, value) "
                       "VALUES ('schema_version', ?)", (str(SCHEMA_VERSION),))
            db.execute(_RUNS_TABLE)
        elif int(row[0]) != SCHEMA_VERSION:
            db.close()
            raise StoreError(
                f"{path} has schema version {row[0]}, this build expects "
                f"{SCHEMA_VERSION}; move the state dir aside"
            )
        # Crash recovery: anything non-terminal lost its worker when the
        # old process died.
        self.recovered_interrupted = db.execute(
            "UPDATE runs SET state='interrupted', finished_at=?, error=? "
            "WHERE state IN ('queued', 'running')",
            (self._clock(), INTERRUPTED_ERROR),
        ).rowcount
        db.commit()
        finished = []
        for (run_id, digest, client, lane, config, state, submitted_at,
             started_at, finished_at, error, payload) in db.execute(
                "SELECT * FROM runs ORDER BY run_id"):
            record = RunRecord(run_id, digest, pickle.loads(config),
                               submitted_at, client=client, lane=lane)
            record.state = state
            record.started_at = started_at
            record.finished_at = finished_at
            record.error = error
            if payload is not None:
                record.payload = json.loads(payload.decode("utf-8"))
                record.payload_bytes = len(payload)
                finished.append(record)
            # No loaded run has a live worker: SSE streams against it
            # terminate immediately.
            record.progress.close()
            self._runs[run_id] = record
            self._seq = run_id
            # A later run of the same digest supersedes an earlier one;
            # interrupted and evicted runs never satisfy dedup.
            if state == "interrupted" or (state == "done" and payload is None):
                self._by_digest.pop(digest, None)
            else:
                self._by_digest[digest] = run_id
        finished.sort(key=lambda r: (r.finished_at or 0.0, r.run_id))
        self._write([write for record in finished
                     for write in self._admit(record)])

    def _write(self, statements: Sequence[Tuple[str, tuple]]) -> None:
        """Run ``(sql, params)`` statements as one commit (lock held).

        Writes after :meth:`close` are dropped: they are late-shutdown
        stragglers (a worker finishing after the drain window closed)
        whose runs the next open marks ``interrupted`` — recording a
        result the service never served would be the lie.
        """
        if self._closed or not statements:
            return
        for sql, params in statements:
            self._db.execute(sql, params)
        self._db.commit()

    # -- the resident-payload LRU ------------------------------------------------
    def _admit(self, record: RunRecord) -> List[Tuple[str, tuple]]:
        """Make ``record`` the most recent resident run, evicting the
        least recent to stay under the byte budget (lock held); return
        the writes that drop the evicted payloads.

        The newest entry always stays, even if it alone exceeds the
        budget — otherwise an oversized (but just-computed) result would
        be instantly forgotten and identical submissions would re-run
        forever.
        """
        replaced = self._lru.pop(record.digest, None)
        if replaced is not None:
            self._bytes -= replaced.payload_bytes
        self._lru[record.digest] = record
        self._bytes += record.payload_bytes
        evicted = []
        while self._bytes > self.max_bytes and len(self._lru) > 1:
            _digest, victim = self._lru.popitem(last=False)
            self._bytes -= victim.payload_bytes
            self._counters["evictions"] += 1
            victim.payload = None
            victim.payload_bytes = 0
            # Metadata stays queryable, but an identical future
            # submission re-runs instead of hitting the cache.
            if self._by_digest.get(victim.digest) == victim.run_id:
                del self._by_digest[victim.digest]
            evicted.append(("UPDATE runs SET payload=NULL WHERE run_id=?",
                            (victim.run_id,)))
        return evicted

    def cached(self, digest: str) -> Optional[RunRecord]:
        """The resident finished run for ``digest`` (counts a hit or a
        miss and refreshes recency)."""
        with self._lock:
            record = self._lru.get(digest)
            if record is None:
                self._counters["misses"] += 1
                return None
            self._lru.move_to_end(digest)
            self._counters["hits"] += 1
            return record

    def cache_stats(self) -> Dict[str, int]:
        """The ``service.cache.*`` counter snapshot."""
        with self._lock:
            return dict(self._counters, entries=len(self._lru),
                        stored_bytes=self._bytes, max_bytes=self.max_bytes)

    # -- creation & lookup --------------------------------------------------
    def create(self, digest: str, config: Grid3Config,
               client: str = "anonymous", lane: str = "batch") -> RunRecord:
        """Mint a queued record and index it under ``digest``."""
        with self._lock:
            self._seq += 1
            record = RunRecord(self._seq, digest, config, self._clock(),
                               client=client, lane=lane)
            self._runs[record.run_id] = record
            self._by_digest[digest] = record.run_id
            self._write([(
                "INSERT INTO runs (run_id, digest, client, lane, config, "
                "state, submitted_at) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (record.run_id, digest, client, lane,
                 pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL),
                 record.state, record.submitted_at),
            )])
            return record

    def get(self, run_id: int) -> Optional[RunRecord]:
        with self._lock:
            return self._runs.get(run_id)

    def lookup(self, digest: str) -> Optional[RunRecord]:
        """The run currently indexed under ``digest`` (dedup target)."""
        with self._lock:
            run_id = self._by_digest.get(digest)
            return self._runs.get(run_id) if run_id is not None else None

    def runs(self) -> List[RunRecord]:
        """Every record, submission order."""
        with self._lock:
            return [self._runs[k] for k in sorted(self._runs)]

    # -- state machine ------------------------------------------------------
    def mark_running(self, record: RunRecord) -> None:
        with self._lock:
            record.state = "running"
            record.started_at = self._clock()
            self._write([(
                "UPDATE runs SET state=?, started_at=? WHERE run_id=?",
                (record.state, record.started_at, record.run_id),
            )])

    def mark_done(self, record: RunRecord, payload: Dict[str, object]) -> None:
        """Finish a run and make its result resident.

        The payload is stored as its sorted-key JSON encoding, so a
        reopened store serves byte-identical reports; that encoding's
        length is what the LRU budget counts.
        """
        raw = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
        with self._lock:
            record.state = "done"
            record.finished_at = self._clock()
            record.payload = payload
            record.payload_bytes = len(raw)
            self._write([(
                "UPDATE runs SET state=?, finished_at=?, payload=? "
                "WHERE run_id=?",
                (record.state, record.finished_at, raw, record.run_id),
            )] + self._admit(record))
        # Outside the lock: closing wakes every waiting SSE stream.
        record.progress.close()

    def mark_failed(self, record: RunRecord, error: str) -> None:
        # A failed digest stays indexed, so the app can see the failure
        # and choose to re-run.
        with self._lock:
            self._finish(record, "failed", error)
        record.progress.close()

    def mark_interrupted(self, record: RunRecord) -> None:
        """Terminal shutdown state for a run that never got to finish:
        the graceful-drain leftover path (queued work persisted, not
        dropped) lands here; the crash path is recovered at open."""
        with self._lock:
            if record.state in ("done", "failed", "interrupted"):
                return  # already terminal; nothing to interrupt
            # Interrupted digests never satisfy dedup: resubmission of
            # the same config must re-run, not join a dead record.
            if self._by_digest.get(record.digest) == record.run_id:
                del self._by_digest[record.digest]
            self._finish(record, "interrupted", INTERRUPTED_ERROR)
        record.progress.close()

    def _finish(self, record: RunRecord, state: str, error: str) -> None:
        record.state = state
        record.finished_at = self._clock()
        record.error = error
        self._write([(
            "UPDATE runs SET state=?, finished_at=?, error=? WHERE run_id=?",
            (state, record.finished_at, error, record.run_id),
        )])

    def unlink(self, digest: str) -> None:
        """Remove a digest from the dedup index (e.g. before re-running
        a previously failed config)."""
        with self._lock:
            self._by_digest.pop(digest, None)

    # -- stats & lifecycle ------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Run counts by state (every state present, zero-filled)."""
        with self._lock:
            out = {state: 0 for state in STATES}
            for record in self._runs.values():
                out[record.state] += 1
            out["total"] = len(self._runs)
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._runs)

    def close(self) -> None:
        """Commit and release the database; later writes are dropped."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._db.commit()
                self._db.close()
            except sqlite3.Error:
                pass
