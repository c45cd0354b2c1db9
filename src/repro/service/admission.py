"""Fair-share admission control for the service's job queue.

The paper's grid admitted jobs from competing VOs under usage policies
(§5–6); one greedy submitter was never allowed to starve the rest (the
CMS Integration Grid Testbed lesson).  The service front end gets the
same discipline here, reusing the scheduling package's
:class:`~repro.scheduling.fairshare.FairShareLedger` — the exact
exponential-decay machinery Condor-G matchmaking runs in-sim — keyed by
*client* instead of VO:

* **Dispatch order** replaces FIFO: among queued runs, ``interactive``
  lane beats ``batch``, then the client with the highest fair-share
  priority factor (least decayed usage relative to its equal target)
  wins, with submission order as the tie-break.  A client that floods
  the queue accumulates usage and sinks behind light users.
* **Quotas** bound each client's *active* (queued + running) runs.  A
  breach is rejected at submit time with HTTP 429 + ``Retry-After`` —
  and only that client's submissions are affected: lanes and quotas are
  per-client, so one hog's rejections never block another client.
* **Accounting**: completed runs charge their wall-clock duration to
  the submitting client; usage decays with ``half_life`` (service
  scale: minutes, not the scheduler's 24 h), so an idle client regains
  priority on its own.

Every decision is published as ``service.admission.*`` metrics through
the app's scrape path, so the Prometheus exposition and the alert rules
see quota pressure the same way they see queue depth.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import GridError
from ..monitoring.core import MetricStore
from ..scheduling.fairshare import FairShareLedger

#: Dispatch lanes, priority order.  ``interactive`` is the low-latency
#: lane (small what-if runs a human is waiting on); ``batch`` is the
#: default for everything else.
LANES = ("interactive", "batch")

#: Usage half-life for service-level fair share: five minutes, not the
#: scheduler's 24 h — service contention plays out in seconds.
DEFAULT_HALF_LIFE_S = 300.0


class QuotaExceededError(GridError):
    """A client is at its active-run quota; the submission was rejected.

    Carries ``retry_after`` (seconds, int >= 1) so the HTTP layer can
    answer 429 with an honest ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: int = 1) -> None:
        super().__init__(message)
        self.retry_after = max(1, int(retry_after))


class AdmissionPolicy:
    """Quota gate + fair-share dispatch order over the pending queue.

    ``quota`` bounds one client's queued+running runs (0 = unlimited —
    the embedded/test default; ``repro serve`` turns it on).  The
    ledger's client set grows lazily: the first submission from a new
    client rebuilds the :class:`FairShareLedger` with the decayed usage
    carried over, so history survives the expansion.
    """

    def __init__(
        self,
        quota: int = 0,
        half_life: float = DEFAULT_HALF_LIFE_S,
        clock: Callable[[], float] = time.time,
        store: Optional[MetricStore] = None,
    ) -> None:
        if quota < 0:
            raise ValueError(f"quota must be >= 0 (0 = unlimited), got {quota}")
        if half_life <= 0:
            raise ValueError(f"half_life must be positive, got {half_life}")
        self.quota = quota
        self.half_life = float(half_life)
        self._clock = clock
        self._t0 = clock()
        self._lock = threading.Lock()
        #: sched.fairshare.* samples from the ledger land here (kept
        #: across ledger rebuilds so the history is continuous).
        self.store = store if store is not None else MetricStore(max_samples=4096)
        self._ledger: Optional[FairShareLedger] = None
        #: Active (queued + running) runs per client — the quota gauge.
        self._active: Dict[str, int] = {}
        #: Dispatch + rejection counters (the service.admission.* feed).
        self.quota_rejections = 0
        self.dispatched: Dict[str, int] = {lane: 0 for lane in LANES}
        #: EWMA of completed-run wall seconds (the Retry-After estimate).
        self._mean_run_s = 1.0

    # -- time base ------------------------------------------------------------
    def _now(self) -> float:
        """Seconds since policy start (the ledger's decay clock)."""
        return self._clock() - self._t0

    # -- ledger management -----------------------------------------------------
    def _ensure_client(self, client: str) -> FairShareLedger:
        """The ledger, grown to include ``client`` (usage carried over)."""
        if self._ledger is not None and client in self._ledger.targets:
            return self._ledger
        now = self._now()
        usage: Dict[str, float] = {}
        if self._ledger is not None:
            usage = {
                vo: self._ledger.decayed_usage(vo, now)
                for vo in self._ledger.vos
            }
        members = sorted(set(usage) | {client})
        self._ledger = FairShareLedger(
            members, half_life=self.half_life, store=self.store,
        )
        for vo, consumed in usage.items():
            if consumed > 0.0:
                # charge() re-adds the decayed total at `now`, which is
                # exactly the carried-over state (decay-to-now of a
                # just-charged amount is the amount itself).
                self._ledger.charge(vo, consumed, now)
        return self._ledger

    # -- the quota gate (submit path) ------------------------------------------
    def admit(self, client: str, lane: str) -> None:
        """Gate one submission; raises :class:`QuotaExceededError` on a
        quota breach.  Call under the app's submit lock, *before* the
        record is created; on success the client's active count is up."""
        if lane not in LANES:
            raise ValueError(f"lane must be one of {LANES}, got {lane!r}")
        with self._lock:
            self._ensure_client(client)
            active = self._active.get(client, 0)
            if self.quota and active >= self.quota:
                self.quota_rejections += 1
                retry = max(1, math.ceil(
                    self._mean_run_s * (active - self.quota + 1)))
                raise QuotaExceededError(
                    f"client {client!r} is at its quota of {self.quota} "
                    f"active run(s); finish or wait for queued work",
                    retry_after=retry,
                )
            self._active[client] = active + 1

    def release(self, client: str) -> None:
        """One of ``client``'s active runs left the system (finished,
        failed, interrupted, or was never enqueued after admit)."""
        with self._lock:
            active = self._active.get(client, 0)
            if active <= 1:
                self._active.pop(client, None)
            else:
                self._active[client] = active - 1

    # -- the dispatch order (queue path) ----------------------------------------
    def select(self, pending: Sequence) -> Optional[object]:
        """The next record to dispatch out of ``pending`` (which is in
        submission order).  Lane first, then fair-share priority, then
        submission order — so with one client (or a cold ledger) this
        degrades to exact FIFO."""
        if not pending:
            return None
        with self._lock:
            now = self._now()
            factors: Dict[str, float] = {}
            best = None
            best_key = None
            for record in pending:
                client = getattr(record, "client", "anonymous")
                if client not in factors:
                    ledger = self._ensure_client(client)
                    factors[client] = ledger.priority_factor(client, now)
                lane = getattr(record, "lane", "batch")
                lane_rank = 0 if lane == "interactive" else 1
                key = (lane_rank, -factors[client], record.run_id)
                if best_key is None or key < best_key:
                    best, best_key = record, key
            if best is not None:
                lane = getattr(best, "lane", "batch")
                self.dispatched[lane if lane in LANES else "batch"] += 1
            return best

    # -- accounting (completion path) -------------------------------------------
    def charge(self, client: str, wall_seconds: float) -> None:
        """Charge a finished run's wall-clock cost to its client."""
        with self._lock:
            ledger = self._ensure_client(client)
            cost = max(0.0, float(wall_seconds))
            ledger.charge(client, cost, self._now())
            # EWMA with 0.3 step: recent runs dominate the estimate.
            self._mean_run_s += 0.3 * (cost - self._mean_run_s)

    # -- observability -----------------------------------------------------------
    def priority_factor(self, client: str) -> float:
        """``client``'s current fair-share factor (1.0 when unknown)."""
        with self._lock:
            if self._ledger is None or client not in self._ledger.targets:
                return 1.0
            return self._ledger.priority_factor(client, self._now())

    def report(self) -> List:
        """Per-client :class:`~repro.scheduling.FairShareStatus` rows."""
        with self._lock:
            if self._ledger is None:
                return []
            return self._ledger.report(self._now())

    def stats(self, pending: Sequence = ()) -> Dict[str, float]:
        """The ``service.admission.*`` gauge/counter snapshot."""
        lanes = {lane: 0 for lane in LANES}
        for record in pending:
            lane = getattr(record, "lane", "batch")
            lanes[lane if lane in LANES else "batch"] += 1
        with self._lock:
            return {
                "quota": float(self.quota),
                "quota_rejections": float(self.quota_rejections),
                "clients": float(
                    len(self._ledger.vos) if self._ledger is not None else 0),
                "active_runs": float(sum(self._active.values())),
                "queued_interactive": float(lanes["interactive"]),
                "queued_batch": float(lanes["batch"]),
                "dispatched_interactive": float(
                    self.dispatched["interactive"]),
                "dispatched_batch": float(self.dispatched["batch"]),
                "mean_run_s": round(self._mean_run_s, 6),
            }
