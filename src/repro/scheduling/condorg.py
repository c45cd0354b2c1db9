"""Condor-G: the grid-level submission agent (§4.2, §4.7).

"CMS Production jobs are specified by reading input parameters from a
control database and converting them to DAGs suitable for submission to
Condor-G/DAGMan."  Condor-G holds a queue of grid jobs on the submit
host, throttles concurrent jobs per remote site, performs the GRAM
submission (with retry/backoff over transient gatekeeper errors), and
tracks each job to completion.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..core.job import Job, JobSpec, JobState
from ..errors import (
    AuthenticationError,
    AuthorizationError,
    GatekeeperOverloadError,
    GridError,
    ServiceUnavailableError,
    SubmissionError,
)
from ..sim.engine import Engine, Event
from ..sim.resources import Resource
from ..sim.units import MINUTE
from ..trace import NULL_SPAN, NULL_TRACER


class GridJobHandle:
    """Client-side handle for one logical grid job.

    ``done`` fires (always successfully) with the final :class:`Job`
    record — inspect ``job.state`` for the outcome.  A handle that never
    found a site carries a synthetic FAILED job.
    """

    def __init__(self, engine: Engine, spec: JobSpec) -> None:
        self.spec = spec
        self.done: Event = engine.event()
        self.attempts = 0
        self.job: Optional[Job] = None
        self.sites_tried: List[str] = []
        #: Root span of this job's trace (NULL_SPAN when tracing is off).
        self.trace = NULL_SPAN

    @property
    def succeeded(self) -> bool:
        return self.job is not None and self.job.succeeded


class CondorG:
    """A VO's submit host."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        sites: Dict[str, object],
        proxy_provider: Callable[[str], object],
        selector=None,
        max_retries: int = 2,
        per_site_throttle: int = 100,
        retry_delay: float = 5 * MINUTE,
        tracer=None,
        policy=None,
        fairshare=None,
    ) -> None:
        self.engine = engine
        self.name = name
        self.sites = sites
        self.proxy_provider = proxy_provider
        #: Optional SiteSelector; when set, submissions without an
        #: explicit site are matched, and retries move to other sites.
        self.selector = selector
        #: Optional :class:`~repro.scheduling.policy.PolicyEngine`
        #: (shared across all VOs' submit hosts).  When set, matches a
        #: site's usage policy rejects are never submitted, and a
        #: per-(site, VO) share slot is acquired *before* the per-site
        #: throttle so over-share VOs queue without starving others.
        self.policy = policy
        #: Optional :class:`~repro.scheduling.fairshare.FairShareLedger`;
        #: charged with each finished job's CPU time.
        self.fairshare = fairshare
        #: JobTracer (or the shared no-op): one trace per logical job,
        #: rooted here at the submit host.
        self.tracer = tracer or NULL_TRACER
        self.max_retries = max_retries
        self.retry_delay = retry_delay
        self.per_site_throttle = per_site_throttle
        # Throttle Resources are created on first submission to a site:
        # at synthetic-fabric scale most of a VO's submit host's sites
        # never see one of its jobs, and N-VOs x M-sites eager maps are
        # pure construction overhead.  Resource construction is passive
        # (no events, no RNG), so laziness cannot change a run.
        self._throttles: Dict[str, Resource] = {}
        #: Counters (the troubleshooting/accounting APIs of §8).
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.resubmissions = 0
        self.unmatched = 0

    def submit(
        self,
        spec: JobSpec,
        site_name: Optional[str] = None,
        trace_attrs: Optional[Dict[str, object]] = None,
    ) -> GridJobHandle:
        """Queue a grid job; returns its handle immediately.

        ``trace_attrs`` are extra attributes for the job's trace root
        (DAGMan stamps its dag/node identity through here).
        """
        handle = GridJobHandle(self.engine, spec)
        handle.trace = self.tracer.start_trace(
            spec.name, kind="job", vo=spec.vo, user=spec.user,
            submit_host=self.name, **(trace_attrs or {}),
        )
        self.engine.process(self._manage(handle, site_name), name=f"condorg-{spec.name}")
        self.submitted += 1
        return handle

    def submit_many(self, specs: Sequence[JobSpec], site_name: Optional[str] = None) -> List[GridJobHandle]:
        """Queue a batch of jobs."""
        return [self.submit(spec, site_name) for spec in specs]

    # -- internals ----------------------------------------------------------
    def _admits(self, site_name: str, spec: JobSpec) -> bool:
        """Policy admission check (always true with no policy engine)."""
        if self.policy is None:
            return True
        return self.policy.admits(site_name, spec.vo, spec.walltime_request)

    def _pick_site(self, spec: JobSpec, pinned: Optional[str], tried: List[str]) -> Optional[str]:
        if pinned is not None:
            if pinned in tried or not self._admits(pinned, spec):
                return None
            return pinned
        if self.selector is not None:
            excluded = list(tried)
            while True:
                site_name = self.selector.select(spec, exclude=excluded)
                if site_name is None or self._admits(site_name, spec):
                    return site_name
                # Policy-rejected match: never submitted; re-match
                # against the remaining sites.
                excluded.append(site_name)
        remaining = [
            name for name in self.sites
            if name not in tried and self._admits(name, spec)
        ]
        return remaining[0] if remaining else None

    def _manage(self, handle: GridJobHandle, pinned: Optional[str]):
        spec = handle.spec
        root = handle.trace
        last_job: Optional[Job] = None
        while handle.attempts <= self.max_retries:
            site_name = self._pick_site(spec, pinned, handle.sites_tried)
            if site_name is None:
                break
            handle.attempts += 1
            handle.sites_tried.append(site_name)
            site = self.sites[site_name]
            attempt_span = root.child(
                f"attempt-{handle.attempts}", phase="attempt", site=site_name,
            )
            # Over-share VOs wait here, before taking a throttle slot,
            # so other VOs' submissions keep flowing to the site.
            share = share_slot = None
            if self.policy is not None:
                share = self.policy.share_resource(site_name, spec.vo)
                share_slot = share.request()
                yield share_slot
                self.policy.note_start(site_name, spec.vo)
            throttle = self._throttles.get(site_name)
            if throttle is None:
                throttle = self._throttles[site_name] = Resource(
                    self.engine, self.per_site_throttle
                )
            slot = throttle.request()
            yield slot
            try:
                job = yield from self._submit_with_backoff(site, spec, attempt_span)
            except GridError as exc:
                throttle.release(slot)
                if share is not None:
                    share.release(share_slot)
                    self.policy.note_finish(site_name, spec.vo)
                attempt_span.close_subtree("error")
                attempt_span.annotate(error=type(exc).__name__)
                # Site unusable right now: try another (or give up).
                if handle.attempts <= self.max_retries:
                    self.resubmissions += 1
                continue
            job.attempt = handle.attempts
            self.tracer.bind_job(job.job_id, attempt_span)
            attempt_span.annotate(job_id=job.job_id)
            if self.selector is not None:
                self.selector.record_use(spec.vo, spec.user, site_name)
            final = yield job.completion
            throttle.release(slot)
            if share is not None:
                share.release(share_slot)
                self.policy.note_finish(site_name, spec.vo)
            if self.fairshare is not None:
                self.fairshare.charge(spec.vo, final.cpu_time, self.engine.now)
            if final.error is not None:
                attempt_span.annotate(error=type(final.error).__name__)
            attempt_span.close_subtree("ok" if final.succeeded else "error")
            last_job = final
            if final.succeeded:
                break
            if handle.attempts <= self.max_retries:
                self.resubmissions += 1
        if last_job is None:
            # Never even got accepted anywhere.
            self.unmatched += 1
            last_job = Job(spec=spec)
            last_job.error = SubmissionError("no usable site found")
            last_job.mark(JobState.FAILED, self.engine.now)
        handle.job = last_job
        if last_job.succeeded:
            self.completed += 1
        else:
            self.failed += 1
        self.tracer.finalize(root, "ok" if last_job.succeeded else "error")
        handle.done.succeed(last_job)

    def _submit_with_backoff(self, site, spec: JobSpec, span=NULL_SPAN):
        """One GRAM submission, retrying transient errors with backoff.

        Overload and service-down errors are transient (retried in
        place); authentication/authorization and policy rejections are
        permanent for this site and propagate.
        """
        delay = self.retry_delay
        for _ in range(3):
            gatekeeper = site.service("gatekeeper")
            proxy = self.proxy_provider(spec.user)
            try:
                return gatekeeper.submit(proxy, spec, span=span)
            except (GatekeeperOverloadError, ServiceUnavailableError):
                yield self.engine.timeout(delay)
                delay *= 2
        # Still failing: bubble the transient error up as site-unusable.
        raise ServiceUnavailableError(f"{site.name}: submission kept failing")
