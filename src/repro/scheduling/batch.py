"""Local resource managers: the site batch systems (§5).

"Appropriate policies were implemented at each local batch scheduler
(OpenPBS, Condor, and LSF)".  :class:`BatchScheduler` is the common
machinery — queueing, dispatch onto cluster nodes, walltime enforcement,
node-failure handling, completion bookkeeping — and the three flavours
in :mod:`repro.scheduling.flavors` override only the *ordering policy*.

The actual work a job does (staging, compute, archiving) is supplied by
the grid layer as a ``runner`` callable returning a generator; the
default runner is pure compute.  This keeps the LRM agnostic of grid
middleware, as in the real system.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.job import Job, JobState
from ..errors import (
    NodeFailureError,
    SubmissionError,
    WalltimeExceededError,
)
from ..sim.engine import AnyOf, Engine, Interrupt


def default_runner(engine: Engine, job: Job, node) -> "generator":
    """Pure-compute job body: occupy the CPU for the spec's runtime."""
    if job.spec.runtime > 0:
        yield engine.timeout(job.spec.runtime)


class BatchScheduler:
    """Queue + dispatcher over one site's cluster.

    Subclasses override :meth:`_pick_next` to implement their policy.
    """

    #: Flavour name, overridden by subclasses ("pbs" | "condor" | "lsf").
    flavour = "fifo"

    def __init__(
        self,
        engine: Engine,
        site,
        runner: Optional[Callable] = None,
    ) -> None:
        self.engine = engine
        self.site = site
        self.runner = runner or default_runner
        self._queue: List[Job] = []
        #: job_id -> (job, node, body process)
        self._running: Dict[int, tuple] = {}
        #: Observers called as fn(job) on every terminal transition; the
        #: gatekeeper, ACDC monitor, and app frameworks all subscribe.
        self.on_job_complete: List[Callable[[Job], None]] = []
        #: Completed job records retained for ACDC's pull harvesting.
        self.completed: List[Job] = []
        #: Lifetime counters.
        self.rejected_count = 0
        self.peak_running = 0

    # -- introspection -----------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Jobs waiting for a CPU."""
        return len(self._queue)

    @property
    def running_count(self) -> int:
        """Jobs currently on worker nodes."""
        return len(self._running)

    def running_jobs(self) -> List[Job]:
        """Snapshot of running jobs."""
        return [entry[0] for entry in self._running.values()]

    # -- submission ----------------------------------------------------------
    def submit(self, job: Job) -> Job:
        """Accept a job into the queue.

        Rejects (SubmissionError) jobs whose walltime request exceeds the
        site limit — §6.4 criterion 3: "queue managed Grid3 resources
        required every computational job to specify the runtime requested
        which may not have been long enough for the proposed task."
        """
        if job.spec.walltime_request > self.site.config.max_walltime:
            self.rejected_count += 1
            raise SubmissionError(
                f"{self.site.name}: walltime request "
                f"{job.spec.walltime_request:.0f}s exceeds site limit "
                f"{self.site.config.max_walltime:.0f}s"
            )
        job.site_name = self.site.name
        if job.submitted_at < 0:
            job.mark(JobState.PENDING, self.engine.now)
        job.completion = self.engine.event()
        self._queue.append(job)
        self._dispatch()
        return job

    def cancel(self, job: Job) -> None:
        """Remove a queued job or kill a running one."""
        if job in self._queue:
            self._queue.remove(job)
            self._finish(job, error=SubmissionError("cancelled while queued"))
            return
        entry = self._running.get(job.job_id)
        if entry is not None:
            _job, _node, body = entry
            if body.is_alive:
                body.interrupt(SubmissionError("cancelled by client"))

    # -- policy hook ------------------------------------------------------------
    def _pick_next(self) -> Optional[int]:
        """Index into the queue of the next job to start (None = hold).

        Base policy: FIFO.
        """
        return 0 if self._queue else None

    # -- dispatch ----------------------------------------------------------------
    def _dispatch(self) -> None:
        while self._queue and self.site.cluster.free_cpus > 0:
            idx = self._pick_next()
            if idx is None:
                return
            job = self._queue.pop(idx)
            self._start(job)

    def _start(self, job: Job) -> None:
        # Allocate the CPU slot *synchronously* so the dispatch loop's
        # free_cpus check stays truthful within one pass.
        node = self.site.cluster.allocate(job.job_id)
        if node is None:  # pragma: no cover - guarded by the caller
            self._queue.insert(0, job)
            return
        body = self.engine.process(
            self.runner(self.engine, job, node), name=f"body-{job.job_id}"
        )
        # Register the body so node failures interrupt it.
        node.running[job.job_id] = body
        job.node_id = node.node_id
        job.mark(JobState.ACTIVE, self.engine.now)
        self._running[job.job_id] = (job, node, body)
        self.peak_running = max(self.peak_running, len(self._running))
        self.engine.process(self._supervise(job, node, body), name=f"job-{job.job_id}")

    def _supervise(self, job: Job, node, body):
        """Walltime-limited execution of the job body on a node."""
        limit = min(job.spec.walltime_request, self.site.config.max_walltime)
        walltimer = self.engine.timeout(limit)
        error: Optional[BaseException] = None
        try:
            outcome = yield AnyOf(self.engine, [body, walltimer])
            if body.is_alive:
                # The walltimer fired first: batch system kills the job.
                body.interrupt("walltime exceeded")
                error = WalltimeExceededError(
                    f"{self.site.name}: killed at {limit:.0f}s walltime limit"
                )
        except Interrupt as intr:
            # Interrupts carry either a typed exception (service failure,
            # cancel, ...) or a plain cause (node rollover/failure).
            if isinstance(intr.cause, BaseException):
                error = intr.cause
            else:
                error = NodeFailureError(str(intr.cause))
        except Exception as exc:  # noqa: BLE001 - job body failures
            error = exc
        finally:
            self.site.cluster.release(node, job.job_id)
            self._running.pop(job.job_id, None)
        self._finish(job, error)
        self._dispatch()

    def _finish(self, job: Job, error: Optional[BaseException]) -> None:
        if error is None:
            job.mark(JobState.DONE, self.engine.now)
        else:
            job.error = error
            job.mark(JobState.FAILED, self.engine.now)
        self.completed.append(job)
        if job.completion is not None and not job.completion.triggered:
            job.completion.succeed(job)
        for observer in self.on_job_complete:
            observer(job)

    def interrupt_all(self, cause: BaseException) -> int:
        """Kill every running job (§6.2: 'a service would fail and all
        jobs submitted to a site would die').  Returns the body count."""
        count = 0
        for _job, _node, body in list(self._running.values()):
            if body.is_alive:
                body.interrupt(cause)
                count += 1
        return count

    def drain_completed(self, since_index: int = 0) -> List[Job]:
        """Completed records from ``since_index`` on (ACDC pull model)."""
        return self.completed[since_index:]

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.site.name} "
            f"run={self.running_count} queue={self.queue_length}>"
        )
