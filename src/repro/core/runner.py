"""The Grid3 job wrapper: what actually happens on a worker node.

§6.1 defines a job's steps — and therefore its failure surface — as
"pre-stage, job execution producing the output files, post-stage to the
final storage element at BNL, and registration to RLS".  This runner
executes exactly those steps for every job, against the real substrate
services (RLS lookups, GridFTP transfers over the contended WAN, storage
elements that genuinely fill up).

Failure behaviour reproduced here:

* **disk filling errors** — local output writes and archive writes raise
  :class:`StorageFullError` when the SE is full (§6.1/6.2);
* **network interruptions** — staging transfers fail when links drop;
* **site misconfiguration** — a Pacman-misconfigured site fails its jobs
  early (§6.2 "jobs often failed due to site configuration problems");
* **missing outbound connectivity** — jobs needing it die at start when
  mis-placed (§6.4 criterion 1);
* **application failures** — the spec's intrinsic failure probability
  (the ~10 % non-site failures of §6.1).

With ``use_srm`` enabled the runner reserves output space up front (local
and archive) — turning mid-job disk-full crashes into cheap, early
:class:`ReservationError` rejections, the §6.2/§8 "lesson learned".
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import (
    ApplicationError,
    ReservationError,
    SiteMisconfigurationError,
)
from ..middleware import gridftp
from ..sim.engine import Engine
from ..sim.rng import RngRegistry
from ..trace import NULL_SPAN


class Grid3Runner:
    """Callable runner plugged into every site's batch scheduler."""

    def __init__(
        self,
        sites: Dict[str, object],
        rls,
        rng: RngRegistry,
        use_srm: bool = False,
        misconfigured_failure_probability: float = 0.9,
        ledger=None,
        replica_selector=None,
    ) -> None:
        self.sites = sites
        self.rls = rls
        self.rng = rng
        self.use_srm = use_srm
        self.misconfigured_failure_probability = misconfigured_failure_probability
        #: Optional ReplicaSelector: stage-in sources rank by route
        #: quality instead of RLS order (None = legacy behaviour).
        self.replica_selector = replica_selector
        #: Optional TransferLedger: staging volume lands there with VO
        #: attribution (feeds the Fig. 5 analysis).
        self.ledger = ledger
        #: Counters by phase, feeding the §8 troubleshooting analysis.
        self.failures_by_phase = {"pre-stage": 0, "execute": 0, "post-stage": 0, "register": 0}
        self.bytes_moved = 0.0

    # -- helpers -----------------------------------------------------------
    def _fail(self, phase: str, exc: BaseException) -> BaseException:
        self.failures_by_phase[phase] += 1
        return exc

    def _reserve(self, site, nbytes: float):
        """SRM reservation when enabled; None otherwise."""
        if not self.use_srm or nbytes <= 0:
            return None
        srm = site.services.get("srm")
        if srm is None:
            return None
        return srm.prepare_to_put(nbytes)  # ReservationError propagates

    # -- the wrapper ---------------------------------------------------------
    def __call__(self, engine: Engine, job, node):
        spec = job.spec
        site = self.sites[job.site_name]

        # Trace context: the attempt span GRAM hung off the job.  The
        # queue wait ends the instant this wrapper starts executing.
        span = job.trace or NULL_SPAN
        queue_span = span.open_child("queue")
        if queue_span is not None:
            queue_span.finish()

        # Environment sanity (fails fast, like a wrapper script would).
        if spec.requires_outbound and not site.config.outbound_connectivity:
            raise self._fail(
                "pre-stage",
                SiteMisconfigurationError(
                    f"{site.name}: worker nodes have no outbound connectivity"
                ),
            )
        if site.misconfigured and self.rng.bernoulli(
            f"runner.misconfig.{site.name}", self.misconfigured_failure_probability
        ):
            raise self._fail(
                "pre-stage",
                SiteMisconfigurationError(f"{site.name}: bad site configuration"),
            )

        local_reservation = None
        archive_reservation = None
        archive = (
            self.sites.get(spec.archive_site)
            if spec.archive_site and spec.archive_site != site.name
            else None
        )
        if self.use_srm:
            try:
                local_reservation = self._reserve(site, spec.output_bytes + spec.input_bytes)
                if archive is not None:
                    archive_reservation = self._reserve(archive, spec.output_bytes)
            except ReservationError as exc:
                raise self._fail("pre-stage", exc)

        staged_inputs = []
        completed_ok = False
        try:
            # --- step 1: pre-stage inputs --------------------------------
            stage_in_span = span.child("stage-in", phase="stage-in")
            for lfn, size in spec.inputs:
                if lfn in site.storage:
                    continue
                try:
                    if self.replica_selector is not None:
                        replica = self.replica_selector.best(lfn, site)
                    else:
                        replica = self.rls.best_replica(lfn)
                except Exception as exc:
                    raise self._fail("pre-stage", exc)
                src = self.sites[replica.site]
                try:
                    yield from gridftp.transfer(
                        engine, src, site, lfn, size,
                        reservation=local_reservation,
                        span=stage_in_span,
                    )
                except Exception as exc:
                    raise self._fail("pre-stage", exc)
                job.bytes_staged_in += size
                self.bytes_moved += size
                staged_inputs.append(lfn)
                if self.ledger is not None:
                    self.ledger.record(
                        engine.now, spec.vo, size, src.name, site.name,
                        kind="stage-in",
                    )
            stage_in_span.finish()

            # --- step 2: execute ------------------------------------------
            # Wall-clock compute time scales with the node's speed
            # relative to the paper's 2 GHz reference (§4.5).
            compute_span = span.child(
                "compute", phase="compute", node=getattr(node, "node_id", ""),
            )
            if spec.runtime > 0:
                speed = getattr(site, "cpu_speed", 1.0) or 1.0
                yield engine.timeout(spec.runtime / speed)
            if spec.app_failure_probability > 0 and self.rng.bernoulli(
                f"runner.appfail.{spec.vo}", spec.app_failure_probability
            ):
                raise self._fail(
                    "execute", ApplicationError(f"{spec.name}: application error")
                )

            # Produce outputs on the local SE (the §6.1/6.2 disk-full point).
            for lfn, size in spec.outputs:
                try:
                    site.storage.store(lfn, size, reservation=local_reservation)
                except Exception as exc:
                    raise self._fail("execute", exc)
            compute_span.finish()

            # --- step 3: post-stage to the archive SE ---------------------
            if archive is not None:
                stage_out_span = span.child("stage-out", phase="stage-out")
                for lfn, size in spec.outputs:
                    try:
                        yield from gridftp.transfer(
                            engine, site, archive, lfn, size,
                            reservation=archive_reservation,
                            rls=self.rls if spec.register_outputs else None,
                            span=stage_out_span,
                        )
                    except Exception as exc:
                        raise self._fail("post-stage", exc)
                    job.bytes_staged_out += size
                    self.bytes_moved += size
                    if self.ledger is not None:
                        self.ledger.record(
                            engine.now, spec.vo, size, site.name, archive.name,
                            kind="stage-out",
                        )
                stage_out_span.finish()
            elif spec.register_outputs:
                # --- step 4: register local outputs -----------------------
                register_span = span.child("register", phase="register")
                for lfn, size in spec.outputs:
                    try:
                        self.rls.register(site.name, lfn, size,
                                          span=register_span)
                    except Exception as exc:
                        raise self._fail("register", exc)
                register_span.finish()
            completed_ok = True
        finally:
            # Scratch hygiene: staged inputs always go; archived outputs
            # leave the local SE once safely at the Tier1.  Failed jobs
            # leave residue behind — which is exactly how real Grid3
            # disks filled up.
            if completed_ok:
                for lfn in staged_inputs:
                    if lfn in site.storage:
                        site.storage.delete(lfn)
                if archive is not None:
                    for lfn, _size in spec.outputs:
                        if lfn in site.storage and lfn in archive.storage:
                            site.storage.delete(lfn)
            if self.use_srm:
                srm = site.services.get("srm")
                if srm is not None and local_reservation is not None:
                    srm.put_done(local_reservation)
                if archive is not None and archive_reservation is not None:
                    archive_srm = archive.services.get("srm")
                    if archive_srm is not None:
                        archive_srm.put_done(archive_reservation)
