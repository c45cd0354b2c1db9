"""GRAM: the gatekeeper and jobmanagers, with the §6.4 load model.

The paper's gatekeeper characterisation, reproduced here verbatim as
model constants:

  "a typical gatekeeper using a queue manager will experience a
  sustained one minute load of ~225 when managing ~1000 computational
  jobs.  This load can sharply increase when the job submission
  frequency is high ... For computational jobs that only require a
  minimal amount of production node file staging, a factor of two can
  be applied to the sustained load; on the other hand computational
  jobs requiring a substantial amount of file staging the factor can
  increase to three or four."

So: base load = 0.225 per managed job, multiplied by the job's staging
factor (1 / 2 / 3.5), plus a submission-frequency spike term (recent
submissions in the last minute).  Above an overload threshold the
gatekeeper sheds incoming submissions — §6.1 names "gatekeeper
overloading" as a leading site failure.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from ..core.job import Job, JobSpec, JobState
from ..errors import (
    AuthenticationError,
    AuthorizationError,
    GatekeeperOverloadError,
    SubmissionError,
)
from ..services import GridService
from ..sim.engine import Engine
from ..sim.units import MINUTE
from ..trace import NULL_SPAN
from .gsi import Authenticator, Proxy

#: §6.4: load ~225 at ~1000 managed jobs.
LOAD_PER_MANAGED_JOB = 225.0 / 1000.0
#: Transient load added per submission, decaying over one minute.
SUBMISSION_SPIKE_LOAD = 0.5
#: Above this one-minute load the gatekeeper sheds new submissions.
DEFAULT_OVERLOAD_THRESHOLD = 450.0


class Gatekeeper(GridService):
    """A site's GRAM gatekeeper: auth, load accounting, LRM hand-off."""

    #: Retained GRAM log lines; older lines are evicted.
    LOG_LIMIT = 50_000

    _counter_names = (
        "submissions_accepted",
        "submissions_rejected",
        "overload_rejections",
        "peak_load",
    )

    def __init__(
        self,
        engine: Engine,
        site,
        authenticator: Authenticator,
        overload_threshold: float = DEFAULT_OVERLOAD_THRESHOLD,
    ) -> None:
        super().__init__(role="gatekeeper", owner=site.name, engine=engine)
        self.site = site
        self.authenticator = authenticator
        self.overload_threshold = overload_threshold
        #: Jobs accepted and not yet finished (each has a jobmanager).
        self.managed: Dict[int, Job] = {}
        #: Recent submission timestamps for the spike term.
        self._recent_submissions: deque = deque()
        #: The local resource manager; wired by the grid builder.
        self.lrm = None
        #: Counters for §8's requested accounting APIs.
        self.submissions_accepted = 0
        self.submissions_rejected = 0
        self.overload_rejections = 0
        self.peak_load = 0.0
        #: GRAM log (start/end/error lines MonALISA agents tail, §5.2):
        #: ``(time, event, job_id, detail)``, the newest LOG_LIMIT lines.
        self.log: deque = deque(maxlen=self.LOG_LIMIT)
        #: event -> lines ever logged with it, eviction or not: the
        #: running counts the MonALISA GRAM sensor reads.
        self.log_lines: Dict[str, int] = {}

    # -- load model -----------------------------------------------------------
    def _prune_spikes(self) -> None:
        cutoff = self.engine.now - MINUTE
        while self._recent_submissions and self._recent_submissions[0] < cutoff:
            self._recent_submissions.popleft()

    def load(self) -> float:
        """Current one-minute load average per the §6.4 model."""
        self._prune_spikes()
        sustained = sum(
            LOAD_PER_MANAGED_JOB * job.spec.staging_load_factor
            for job in self.managed.values()
        )
        spike = SUBMISSION_SPIKE_LOAD * len(self._recent_submissions)
        return sustained + spike

    @property
    def managed_count(self) -> int:
        """Number of jobs with live jobmanagers."""
        return len(self.managed)

    def _record(self, event: str, job_id: int, detail: str = "") -> None:
        self.log.append((self.engine.now, event, job_id, detail))
        lines = self.log_lines
        lines[event] = lines.get(event, 0) + 1

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out["managed_jobs"] = float(self.managed_count)
        return out

    # -- submission protocol --------------------------------------------------
    def submit(self, proxy: Proxy, spec: JobSpec, span=None) -> Job:
        """GRAM job submission: authenticate, admit, enqueue at the LRM.

        Raises AuthenticationError / AuthorizationError on credential
        problems, GatekeeperOverloadError when shedding load,
        ServiceUnavailableError when the gatekeeper (or its LRM) is down,
        and SubmissionError if no LRM is attached.

        ``span`` is the submitter's attempt span: the GRAM handshake is
        recorded under it, and on acceptance a ``queue`` span is left
        open for the runner to close when the LRM starts the job.
        """
        span = span or NULL_SPAN
        sub = span.child("gram.submit", phase="submit", site=self.site.name)
        try:
            self.require_available("job submission")
            account = self.authenticator.authenticate(proxy)  # may raise
            current_load = self.load()
            self.peak_load = max(self.peak_load, current_load)
            if current_load > self.overload_threshold:
                self.overload_rejections += 1
                self.submissions_rejected += 1
                self._record("overload_reject", -1, f"load={current_load:.0f}")
                raise GatekeeperOverloadError(
                    f"gatekeeper at {self.site.name} overloaded "
                    f"(load {current_load:.0f} > {self.overload_threshold:.0f})"
                )
            if self.lrm is None:
                self.submissions_rejected += 1
                raise SubmissionError(f"no jobmanager/LRM at {self.site.name}")
            self._recent_submissions.append(self.engine.now)
            job = Job(spec=spec, site_name=self.site.name)
            job.mark(JobState.PENDING, self.engine.now)
            self.managed[job.job_id] = job
            try:
                self.lrm.submit(job)
            except Exception:
                # LRM policy rejection: the jobmanager exits immediately.
                self.managed.pop(job.job_id, None)
                self.submissions_rejected += 1
                raise
        except BaseException as exc:
            sub.finish("error", error=type(exc).__name__)
            raise
        self.submissions_accepted += 1
        self._record("submit", job.job_id, f"{spec.name} as {account}")
        sub.finish("ok")
        job.trace = span or None
        # Opened here at LRM-enqueue time; the runner closes it at start.
        span.child("queue", phase="queue", site=self.site.name)
        return job

    def job_finished(self, job: Job) -> None:
        """LRM callback: the jobmanager for ``job`` exits."""
        self.managed.pop(job.job_id, None)
        self._record(
            "done" if job.succeeded else "failed",
            job.job_id,
            type(job.error).__name__ if job.error else "",
        )

    def cancel(self, job: Job) -> None:
        """Client-initiated cancel, forwarded to the LRM."""
        if self.lrm is not None:
            self.lrm.cancel(job)
        self.managed.pop(job.job_id, None)
        self._record("cancel", job.job_id)

    def __repr__(self) -> str:
        return f"<Gatekeeper {self.site.name} load={self.load():.0f} jobs={self.managed_count}>"


def attach_gatekeeper(
    engine: Engine,
    site,
    authenticator: Authenticator,
    **kwargs,
) -> Gatekeeper:
    """Create a gatekeeper and register it as the site's ``gatekeeper``
    service."""
    gk = Gatekeeper(engine, site, authenticator, **kwargs)
    site.attach_service("gatekeeper", gk)
    return gk
