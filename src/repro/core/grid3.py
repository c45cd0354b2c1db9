"""The Grid3 system builder: wires every subsystem into a runnable grid.

This is the reproduction's equivalent of the Grid2003 deployment
procedure (§5): build the fabric from the site catalog, stand up the
VOMS servers and the Pacman cache, install the VDT package onto every
site (through the real install pipeline, misconfigurations included),
generate grid-maps, build the MDS hierarchy, attach schedulers running
the Grid3 job wrapper, start the monitoring stack and the iGOC
operations loop, arm the failure injector, and create the per-VO
Condor-G submit hosts the applications use.

Typical use::

    from repro import Grid3, Grid3Config

    grid = Grid3(Grid3Config(scale=50, duration_days=30))
    grid.deploy()              # §5.1: install and configure all sites
    grid.start_applications()  # §4: the seven demonstrator classes
    grid.run()                 # simulate the observation window
    print(grid.milestones().render())
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import json
import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from ..apps import (
    ATLASApplication,
    AppContext,
    BTeVApplication,
    CMSApplication,
    ExerciserApplication,
    GridFTPDemoApplication,
    IVDGLApplication,
    LIGOApplication,
    OBSERVATION_DAYS,
    SDSSApplication,
)
from ..failures import FailureInjector, FailureProfile, FailureSchedule
from ..fabric import (
    GRID3_SITES,
    GRID3_VOS,
    VO_HOME_SITE,
    Network,
    SiteSpec,
    build_sites,
    scaled_catalog,
    typical_cpus,
)
from ..middleware import (
    GRID3_SITE_PACKAGE,
    CertificateAuthority,
    PacmanCache,
    ReplicaLocationIndex,
    VOMSServer,
    attach_srm,
    build_mds_hierarchy,
    install,
    refresh_site_gridmaps,
    vdt_package_set,
)
from ..middleware.rls import LocalReplicaCatalog
from ..monitoring import (
    ACDCJobMonitor,
    GangliaAgent,
    GangliaWeb,
    MDViewer,
    MonALISAAgent,
    MonALISARepository,
    ServiceHealthAgent,
    SiteStatusCatalog,
    TransferLedger,
)
from ..ops import IGOC, MilestonesTracker, OperationsTeam
from ..scheduling import CondorG, DAGMan, RandomSelector, SiteSelector, add_local_load
from ..scheduling.flavors import make_scheduler
from ..sim import DAY, Engine, RngRegistry, SimCalendar, bytes_to_tb
from .runner import Grid3Runner

#: Exerciser probe footprint (Table 1: the exerciser used 14 sites).
EXERCISER_SITES = [
    "BNL_ATLAS", "FNAL_CMS", "CalTech_PG", "UFL_Grid3", "IU_Grid3",
    "UCSD_PG", "UC_Grid3", "ANL_HEP", "BU_ATLAS", "JHU_SDSS",
    "UB_ACDC", "UM_ATLAS", "UTA_DPCC", "UWMadison_CS",
]

#: All application classes, keyed by the names Grid3Config.apps uses.
APP_CLASSES = {
    "usatlas": ATLASApplication,
    "uscms": CMSApplication,
    "sdss": SDSSApplication,
    "ligo": LIGOApplication,
    "btev": BTeVApplication,
    "ivdgl": IVDGLApplication,
    "exerciser": ExerciserApplication,
    "gridftp-demo": GridFTPDemoApplication,
}


def did_you_mean(value: object, allowed) -> str:
    """``"; did you mean 'x'?"`` for the closest of ``allowed``, or ``""``."""
    hit = difflib.get_close_matches(str(value), [str(a) for a in allowed], n=1)
    return f"; did you mean {hit[0]!r}?" if hit else ""


def _finite_real(value: object) -> bool:
    """A non-bool real number that is neither NaN nor infinite.

    Compared, not converted, so an int too large for a float fails
    without raising.
    """
    return (
        isinstance(value, (float, int, numbers.Real))  # builtins first: fast
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def knob_type_mismatch(default: object, value: object) -> Optional[str]:
    """What a knob whose default is ``default`` wants, when ``value`` is
    not that; None when it fits or the knob is not a scalar.

    A bool knob takes a bool, an int knob a non-bool integer, and a
    float knob any finite non-bool real (an int is fine for 14.0).
    """
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "a bool"
    if isinstance(default, int):
        integral = (isinstance(value, (int, numbers.Integral))
                    and not isinstance(value, bool))
        return None if integral else "an integer"
    if isinstance(default, float):
        return None if _finite_real(value) else "a finite number"
    return None


@dataclass
class Grid3Config:
    """Knobs for one Grid3 simulation run."""

    seed: int = 42
    #: Divides CPU counts and workload sizes symmetrically; 1.0 is the
    #: full 2800-CPU / 291k-job system, 50 is a laptop-friendly run.
    scale: float = 50.0
    duration_days: float = OBSERVATION_DAYS
    #: §6.2/§8 ablation: storage reservation via SRM.
    use_srm: bool = False
    #: "smart" = the §6.4 requirement-driven selector; "random" = the
    #: ablation baseline ignoring requirements.
    matchmaking: str = "smart"
    #: A single profile or a time-varying FailureSchedule.
    failures: object = field(default_factory=FailureProfile)
    #: Probability a site install leaves it misconfigured (§6.2).
    misconfig_probability: float = 0.15
    #: Run the iGOC operations/repair loop.
    ops_team: bool = True
    #: Shared-site background local load (§7's non-dedicated 60 %).
    local_load: bool = True
    #: Which applications to run; None = all eight demonstrators.
    apps: Optional[List[str]] = None
    ligo_test_mode: bool = True
    #: Per-site Condor-G throttle (scaled).
    per_site_throttle: int = 100
    #: §8 "Storage Services and Data Management": run the managed data
    #: subsystem (replica selection, transfer queueing, StorageAgent
    #: disk-pressure control).  Off by default — the deployed system had
    #: none — and isolated on data.* RNG streams when on.
    data_management: bool = False
    #: Divides every SE capacity (1.0 = the catalog's real disks).
    #: Raising it manufactures the §6.2 disk-pressure regime at bench
    #: scales where the full-size disks would never fill.
    disk_scale: float = 1.0
    #: End-to-end job tracing (the §8 cross-layer troubleshooting view).
    #: Off by default: an untraced same-seed run is byte-identical to a
    #: pre-tracing build; on, it adds no events and draws no RNG.
    tracing: bool = False
    #: §5/§7 multi-VO scheduling: enforce per-site usage policies
    #: (admission control + per-VO share slots) and fold decayed-usage
    #: fair-share priorities into matchmaking.  Off by default — a
    #: same-seed run with it off is byte-identical to a pre-fair-share
    #: build; policies are still *published* on every site either way.
    fair_share: bool = False
    #: Synthetic fabric (the scale-out path): a site count, or a dict of
    #: :func:`repro.fabric.synthesize` kwargs (``{"sites": 500, ...}``).
    #: None = the 27-site paper catalog scaled by ``scale``.  When set,
    #: site CPUs come from the generator (``scale`` still divides
    #: workload sizes), the WAN is wired tiered, and the exerciser
    #: probes the anchor + largest sites.  The generator defaults its
    #: ``seed`` to this config's seed.
    fabric: object = None
    #: iGOC alerting (the §5.2/§5.4 telemetry -> ticket loop): run the
    #: declarative AlertRule set against the service-health estate; a
    #: firing rule opens an iGOC trouble ticket, a clearing one
    #: resolves it.  Off by default — a same-seed run with it off is
    #: byte-identical to a pre-alerting build (the monitor adds
    #: periodic events when on).
    alerts: bool = False

    def validate(self) -> "Grid3Config":
        """Reject unknown knobs, wrongly typed values and contradictory settings.

        Called by :class:`Grid3` on construction; raises
        :class:`~repro.errors.ConfigurationError` with an actionable
        message rather than letting a typo silently no-op.
        """
        from ..errors import ConfigurationError

        knobs = fields(self)
        known = {f.name for f in knobs}
        for name in vars(self):
            if name not in known:
                raise ConfigurationError(
                    f"unknown Grid3Config knob {name!r}"
                    f"{did_you_mean(name, sorted(known))}"
                )
        for f in knobs:
            value = getattr(self, f.name)
            want = knob_type_mismatch(f.default, value)
            if want:
                raise ConfigurationError(f"{f.name} must be {want}, got {value!r}")
        if self.apps is not None and not (
            isinstance(self.apps, list) and all(isinstance(a, str) for a in self.apps)
        ):
            raise ConfigurationError(
                f"apps must be a list of app names, got {self.apps!r}"
            )
        allowed = ("smart", "random")
        if self.matchmaking not in allowed:
            raise ConfigurationError(
                f"matchmaking={self.matchmaking!r} is not one of {allowed}"
                f"{did_you_mean(self.matchmaking, allowed)}"
            )
        for knob in ("scale", "duration_days", "disk_scale"):
            value = getattr(self, knob)
            if not value > 0:
                raise ConfigurationError(f"{knob} must be positive, got {value!r}")
        if self.per_site_throttle < 1:
            raise ConfigurationError(
                f"per_site_throttle must be >= 1, got {self.per_site_throttle!r}"
            )
        if not 0.0 <= self.misconfig_probability <= 1.0:
            raise ConfigurationError(
                "misconfig_probability is a probability; got "
                f"{self.misconfig_probability!r} (want 0.0-1.0)"
            )
        if self.apps:
            unknown = [a for a in self.apps if a not in APP_CLASSES]
            if unknown:
                raise ConfigurationError(
                    f"unknown app(s) {unknown!r}"
                    f"{did_you_mean(unknown[0], sorted(APP_CLASSES))}"
                )
        if self.fabric is not None:
            import inspect

            from ..fabric.synthesize import synthesize
            if isinstance(self.fabric, bool) or not isinstance(self.fabric, (int, dict)):
                raise ConfigurationError(
                    f"fabric must be a site count or a dict of "
                    f"synthesize() kwargs, got {self.fabric!r}"
                )
            if isinstance(self.fabric, int) and self.fabric < 1:
                raise ConfigurationError(
                    f"fabric site count must be >= 1, got {self.fabric!r}"
                )
            if isinstance(self.fabric, dict):
                allowed = set(inspect.signature(synthesize).parameters)
                unknown = sorted(set(self.fabric) - allowed)
                if unknown:
                    raise ConfigurationError(
                        f"unknown fabric knob(s) {unknown!r}"
                        f"{did_you_mean(unknown[0], sorted(allowed))}"
                    )
        return self

    def canonical_digest(self) -> str:
        """A stable content hash of this (validated) configuration.

        Two configs describing the same run — regardless of dict
        construction order or which defaults were spelled out — produce
        the same digest, so it serves as a result-cache key: a million
        identical what-if submissions collapse onto one simulation.

        Only plain data survives canonicalisation (None, bool, int,
        float, str, dict/list/tuple/set of the same, plus dataclasses
        such as :class:`FailureProfile` and
        :class:`~repro.failures.FailureSchedule`).  A knob holding
        anything else — a lambda, an open handle, a live object — raises
        :class:`~repro.errors.ConfigurationError` naming the knob, since
        such a value can neither key a cache nor cross a process
        boundary to a worker.
        """
        from ..errors import ConfigurationError

        def canon(value: object, path: str) -> object:
            if value is None or isinstance(value, (bool, int, str)):
                return value
            if isinstance(value, float):
                return value
            if isinstance(value, dict):
                bad = [k for k in value if not isinstance(k, str)]
                if bad:
                    raise ConfigurationError(
                        f"cannot digest {path}: non-string dict key(s) "
                        f"{bad!r}"
                    )
                return {k: canon(v, f"{path}[{k!r}]") for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [canon(v, f"{path}[{i}]") for i, v in enumerate(value)]
            if isinstance(value, (set, frozenset)):
                return sorted(
                    (canon(v, f"{path}{{...}}") for v in value),
                    key=repr,
                )
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                record = {
                    f.name: canon(getattr(value, f.name), f"{path}.{f.name}")
                    for f in dataclasses.fields(value)
                }
                record["__class__"] = type(value).__name__
                return record
            if isinstance(value, FailureSchedule):
                return {
                    "__class__": "FailureSchedule",
                    "eras": [
                        [switch, canon(profile, f"{path}.eras")]
                        for switch, profile in value.eras
                    ],
                }
            raise ConfigurationError(
                f"cannot digest Grid3Config knob {path} = {value!r} "
                f"({type(value).__name__}): cache keys need plain data "
                "(None/bool/int/float/str, containers of those, or "
                "dataclasses like FailureProfile)"
            )

        self.validate()
        payload = {
            f.name: canon(getattr(self, f.name), f.name) for f in fields(self)
        }
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class Grid3:
    """A fully wired Grid3 instance."""

    def __init__(self, config: Optional[Grid3Config] = None) -> None:
        from .job import reset_job_ids
        reset_job_ids()
        self.config = (config or Grid3Config()).validate()
        cfg = self.config
        self.engine = Engine()
        self.rng = RngRegistry(cfg.seed)
        self.calendar = SimCalendar()
        self.network = Network(self.engine)
        if cfg.fabric is not None:
            # Synthetic fabric: the generator is a pure function of its
            # kwargs with its own RNG, so building it perturbs no
            # simulation stream.
            from ..fabric.synthesize import site_regions, synthesize
            fabric_kwargs = (
                dict(cfg.fabric) if isinstance(cfg.fabric, dict)
                else {"sites": int(cfg.fabric)}
            )
            fabric_kwargs.setdefault("seed", cfg.seed)
            self.catalog: List[SiteSpec] = synthesize(**fabric_kwargs)
            self._fabric_regions: Optional[Dict[str, str]] = site_regions(self.catalog)
        else:
            self.catalog = scaled_catalog(cfg.scale)
            self._fabric_regions = None
        self.sites = build_sites(self.engine, self.network, self.catalog)
        # Publish the reconstructed usage policies on every site (§5).
        # Publication is passive — no RNG, no events — so it leaves
        # same-seed runs byte-identical; enforcement is gated below on
        # cfg.fair_share.  Synthetic fabrics auto-generate their policy
        # set (the generated VO allow-lists) from the same spec rules.
        if self._fabric_regions is not None:
            from ..fabric.synthesize import synthetic_policies
            self.usage_policies = synthetic_policies(
                self.catalog, GRID3_VOS, seed=cfg.seed
            )
        else:
            from ..scheduling.policy import paper_policies
            self.usage_policies = paper_policies(self.catalog, GRID3_VOS)
        for site in self.sites.values():
            site.usage_policy = self.usage_policies.get(site.name)
        # Regional WAN trunks (OC-48-class; uncongested at Grid3 demand,
        # per §6.3's edge-dominated problem reports).  Synthetic fabrics
        # use the tiered hub-and-spoke backbone (O(regions) trunks).
        from ..fabric.topology import wire_backbone
        if self._fabric_regions is not None:
            wire_backbone(
                self.network, self.sites.values(),
                regions=self._fabric_regions, tiered=True,
            )
        else:
            wire_backbone(self.network, self.sites.values())
        if cfg.disk_scale != 1.0:
            # scaled_catalog divides CPUs but leaves disks full-size; the
            # disk-pressure scenarios shrink them here so the §6.2 regime
            # is reachable in short windows.
            for site in self.sites.values():
                site.storage.capacity = site.storage.capacity / cfg.disk_scale
        self.duration = cfg.duration_days * DAY

        # Security + VO management (§5.3).
        self.ca = CertificateAuthority("doegrids", self.engine)
        self.voms: Dict[str, VOMSServer] = {
            vo: VOMSServer(self.engine, vo, self.ca) for vo in GRID3_VOS
        }

        # Data management.
        self.rls = ReplicaLocationIndex(self.engine)
        for name in self.sites:
            self.rls.attach_lrc(LocalReplicaCatalog(name, engine=self.engine))
        self.ledger = TransferLedger()

        # End-to-end tracing (§4.7/§8 troubleshooting): a JobTracer when
        # on, the shared no-op otherwise — call sites never branch.
        from ..trace import NULL_TRACER, JobTracer
        self.tracer = (
            JobTracer(self.engine) if cfg.tracing else NULL_TRACER
        )

        # Central services at the iGOC (§5.4).
        self.igoc = IGOC(self.engine)
        self.pacman_cache = PacmanCache()
        for pkg in vdt_package_set(self.engine, ["doegrids"]):
            self.pacman_cache.publish(pkg)

        # Managed data subsystem (§8 lesson; opt-in).  Built before the
        # runner so stage-in goes through the replica selector.
        self.data = None
        if cfg.data_management:
            from ..data import DataManager
            self.data = DataManager(
                self.engine, self.sites, self.rls, self.rng,
                ledger=self.ledger, tracer=self.tracer,
            )

        self.runner = Grid3Runner(
            self.sites, self.rls, self.rng,
            use_srm=cfg.use_srm, ledger=self.ledger,
            replica_selector=self.data.selector if self.data else None,
        )

        # Filled in by deploy().
        self.mds = None
        self.selector = None
        self.condorg: Dict[str, CondorG] = {}
        self.dagman: Dict[str, DAGMan] = {}
        self.apps: Dict[str, object] = {}
        self.monitors: Dict[str, object] = {}
        self.injector: Optional[FailureInjector] = None
        self.ops_team: Optional[OperationsTeam] = None
        #: iGOC alert loop (deploy() builds it when ``alerts`` is on).
        self.alert_monitor = None
        #: Fair-share layer (deploy() builds these when fair_share is on).
        self.fairshare = None
        self.policy_engine = None
        self._deployed = False
        self._apps_started = False

    def exerciser_sites(self) -> List[str]:
        """The exerciser probe footprint.  Paper catalog: the Table 1
        14-site roster.  Synthetic fabric: the anchors plus the largest
        generated sites, 14 total (the catalog is emitted largest-first,
        anchors leading)."""
        if self.config.fabric is None:
            return EXERCISER_SITES
        return [s.name for s in self.catalog[:len(EXERCISER_SITES)]]

    # -- deployment (§5.1) ------------------------------------------------
    def deploy(self) -> None:
        """Install and configure every site, and start central services."""
        if self._deployed:
            return
        cfg = self.config
        sites = list(self.sites.values())

        # Pacman-install the Grid3 VDT stack onto every site.
        installs = [
            self.engine.process(
                install(
                    self.engine, self.pacman_cache, site, GRID3_SITE_PACKAGE,
                    rng=self.rng, misconfig_probability=cfg.misconfig_probability,
                ),
                name=f"install-{site.name}",
            )
            for site in sites
        ]
        while any(p.is_alive for p in installs):
            if not self.engine.step():  # pragma: no cover - defensive
                raise RuntimeError("site installation deadlocked")

        # Register users and generate grid-maps (§5.3).
        self._register_users()
        refresh_site_gridmaps(sites, list(self.voms.values()))
        # The authenticators must see the refreshed gridmap objects.
        for site in sites:
            site.service("authenticator").gridmap = site.service("gridmap")

        # Information services (§5.1/5.2).
        self.mds = build_mds_hierarchy(self.engine, sites)

        # Batch systems running the Grid3 wrapper.
        for site in sites:
            lrm = make_scheduler(self.engine, site, self.runner)
            site.attach_service("lrm", lrm)
            gatekeeper = site.service("gatekeeper")
            gatekeeper.lrm = lrm
            lrm.on_job_complete.append(gatekeeper.job_finished)

        # Optional SRM (the §8 lesson, off in the deployed system).
        if cfg.use_srm:
            for site in sites:
                attach_srm(self.engine, site)

        # Monitoring stack (Fig. 1).  Hourly cadence: long windows (183
        # days x 27 sites) make the real 5-minute cadence pointlessly
        # expensive for daily-binned figures.
        from ..sim.units import HOUR as _HOUR
        ganglia_web = GangliaWeb()
        repository = MonALISARepository(bin_width=_HOUR)
        for site in sites:
            GangliaAgent(self.engine, site, ganglia_web, interval=_HOUR)
            MonALISAAgent(self.engine, site, repository, GRID3_VOS, interval=_HOUR)
        acdc = ACDCJobMonitor(self.engine, sites)
        status_catalog = SiteStatusCatalog(self.engine, sites)
        service_health = ServiceHealthAgent(
            self.engine, sites, interval=_HOUR,
            extra_services=self._central_services(),
        )
        self.monitors = {
            "ganglia": ganglia_web,
            "monalisa": repository,
            "acdc": acdc,
            "status": status_catalog,
            "service-health": service_health,
        }
        if self.data is not None:
            # The StorageAgent's data.* metric store joins the iGOC
            # monitoring estate alongside the rest of Fig. 1.
            self.monitors["data"] = self.data.store
        if self.tracer.enabled:
            # trace.* per-VO phase/makespan series, same query surface
            # as every other MetricStore in the estate.
            self.monitors["trace"] = self.tracer.metrics

        # Background local load at shared facilities (§7).
        if cfg.local_load:
            specs_by_name = {s.name: s for s in self.catalog}
            add_local_load(self.engine, sites, specs_by_name, self.rng)

        # Operations (§5.4) and failures (§6).
        if cfg.ops_team:
            self.ops_team = OperationsTeam(self.engine, self.igoc, sites, self.rng)
        self.injector = FailureInjector(self.engine, sites, self.rng, cfg.failures)

        # Alerting/SLO loop (§5.2/§5.4): declarative rules over the
        # monitoring estate; firing opens iGOC tickets, clearing
        # resolves them.  Gated — the monitor's periodic process adds
        # events, so default runs stay byte-identical with it off.
        if cfg.alerts:
            from ..ops.alerts import AlertMonitor, default_rules
            self.alert_monitor = AlertMonitor(
                self.engine, self.igoc, default_rules(),
                stores={"service-health": service_health.store},
            )

        # Per-VO submit infrastructure.
        throttle = max(2, int(round(cfg.per_site_throttle / max(1.0, cfg.scale / 50))))
        if cfg.fair_share:
            # Fair-share layer (§5/§7): one shared ledger + policy
            # engine across all VOs' submit hosts, publishing sched.*
            # metrics into the iGOC estate.
            from ..monitoring.core import MetricStore
            from ..scheduling.fairshare import FairShareLedger
            from ..scheduling.policy import PolicyEngine
            sched_store = MetricStore(max_samples=200_000)
            self.fairshare = FairShareLedger(GRID3_VOS, store=sched_store)
            self.policy_engine = PolicyEngine(
                self.engine, self.usage_policies,
                slots_per_site=throttle, store=sched_store,
            )
            self.monitors["sched"] = sched_store
        if cfg.matchmaking == "random":
            self.selector = RandomSelector(self.mds["top"], self.rng)
        else:
            self.selector = SiteSelector(
                self.mds["top"], self.rng,
                fairshare=self.fairshare,
                clock=(lambda: self.engine.now) if self.fairshare else None,
            )
        for vo in GRID3_VOS:
            condorg = CondorG(
                self.engine, f"{vo}-submit", self.sites,
                proxy_provider=self._proxy_provider(vo),
                selector=self.selector,
                per_site_throttle=throttle,
                tracer=self.tracer,
                policy=self.policy_engine,
                fairshare=self.fairshare,
            )
            self.condorg[vo] = condorg
            self.dagman[vo] = DAGMan(self.engine, condorg, tracer=self.tracer)
        self._deployed = True

    def _register_users(self) -> None:
        """Populate the VOMS servers (§7: 102 authorised users)."""
        for app_cls in APP_CLASSES.values():
            for user in app_cls.users:
                role = "admin" if user.endswith(("0", "prod")) else "user"
                self.voms[app_cls.vo].register(user, role=role)
        # One VO admin each, plus the Entrada operator, lands the §7
        # headcount at 102.
        for vo in GRID3_VOS:
            self.voms[vo].register(f"{vo}-admin", role="admin")

    def add_user(self, vo: str, name: str, role: str = "user"):
        """Register a new VO member and propagate the grid-map update to
        every site (the §5.3 admission procedure)."""
        user = self.voms[vo].register(name, role=role)
        refresh_site_gridmaps(self.sites.values(), list(self.voms.values()))
        for site in self.sites.values():
            auth = site.services.get("authenticator")
            if auth is not None:
                auth.gridmap = site.service("gridmap")
        return user

    def _proxy_provider(self, vo: str):
        voms = self.voms[vo]

        def provider(user: str):
            # Users initialise a fresh proxy per submission session.
            return voms.proxy_for(user, lifetime=7 * 24 * 3600.0)

        return provider

    # -- applications (§4) ---------------------------------------------------
    def app_context(self) -> AppContext:
        """The dependency bundle applications are built from."""
        return AppContext(
            engine=self.engine,
            rng=self.rng,
            calendar=self.calendar,
            condorg=self.condorg,
            dagman=self.dagman,
            rls=self.rls,
            sites=self.sites,
            ledger=self.ledger,
            scale=self.config.scale,
            duration=self.duration,
            replica_selector=self.data.selector if self.data else None,
        )

    def start_applications(self) -> None:
        """Instantiate and launch the configured demonstrators."""
        if not self._deployed:
            self.deploy()
        if self._apps_started:
            return
        names = self.config.apps or list(APP_CLASSES)
        ctx = self.app_context()
        for name in names:
            cls = APP_CLASSES[name]
            if name == "ligo":
                app = cls(ctx, test_mode=self.config.ligo_test_mode)
            elif name == "exerciser":
                app = cls(ctx, probe_sites=self.exerciser_sites())
            else:
                app = cls(ctx)
            if name == "usatlas":
                # §6.1: GCE-Server deployed on 22 sites.
                app.deploy(sorted(self.sites)[:22])
            self.apps[name] = app
            app.start()
        self._apps_started = True

    # -- execution -----------------------------------------------------------
    def run(self, days: Optional[float] = None) -> None:
        """Advance the simulation (defaults to the configured window)."""
        horizon = self.engine.now + days * DAY if days is not None else self.duration
        self.engine.run(until=horizon)

    def run_full(self, progress=None, progress_slices: Optional[int] = None) -> None:
        """deploy + start apps + simulate the whole window + drain.

        The window is simulated in ``progress_slices`` sliced
        ``engine.run(until=)`` calls with a
        :class:`~repro.monitoring.progress.ProgressEvent` snapshot
        delivered to ``progress`` (a one-argument callable) after each;
        without a callback the snapshots go nowhere.  The kernel
        dispatches the identical event sequence as one unsliced
        ``run()``, so every run is byte-identical to the plain
        ``deploy(); start_applications(); run()`` sequence — except
        that a window shorter than deployment ends at once instead of
        raising.
        """
        from ..monitoring.progress import DEFAULT_SLICES, ProgressMeter
        meter = ProgressMeter(
            self, progress if progress is not None else lambda event: None,
            slices=progress_slices if progress_slices else DEFAULT_SLICES,
        )
        self.deploy()
        meter.emit("phase", "deploy")
        self.start_applications()
        meter.emit("phase", "apps")
        for horizon in meter.horizons():
            # Deployment consumes sim time, so early horizons can
            # already be behind the clock; the tick still fires (the
            # emitted count stays a pure function of the slice count).
            if horizon > self.engine.now:
                self.engine.run(until=horizon)
            meter.emit("tick", "sim")
        self.monitors["acdc"].poll_once()
        meter.emit("end", "done")

    # -- analysis ----------------------------------------------------------------
    @property
    def acdc_db(self):
        return self.monitors["acdc"].database

    def troubleshooting(self):
        """The §8 troubleshooting/accounting API over this grid, trace
        queries included when tracing is on."""
        from ..ops import TroubleshootingAPI
        return TroubleshootingAPI(
            self.sites, self.acdc_db, trace=self.tracer.store,
        )

    def viewer(self) -> MDViewer:
        """An MDViewer over this run's monitoring data."""
        return MDViewer(
            self.acdc_db,
            repository=self.monitors.get("monalisa"),
            ledger=self.ledger,
            calendar=self.calendar,
        )

    def _central_services(self) -> Dict[str, object]:
        """The off-site GridServices (RLS index, VOMS servers), keyed by
        the display name used as their 'site' in health reports."""
        central: Dict[str, object] = {"igoc-rls": self.rls}
        for vo, server in self.voms.items():
            central[f"voms-{vo}"] = server
        return central

    def availability_report(
        self, since: float = 0.0, until: Optional[float] = None
    ):
        """Per-(site, role) availability rows from the downtime ledgers,
        including the central RLS/VOMS services."""
        from ..services import availability_rows
        return availability_rows(
            self.sites.values(), since=since, until=until,
            extra_services=self._central_services(),
        )

    def fairshare_report(self):
        """Per-VO fair-share rows (:class:`FairShareStatus`); empty when
        ``fair_share`` is off."""
        if self.fairshare is None:
            return []
        return self.fairshare.report(self.engine.now)

    def policy_report(self):
        """Policy-rejection rows (:class:`PolicyRejectRow`); empty when
        ``fair_share`` is off."""
        if self.policy_engine is None:
            return []
        return self.policy_engine.reject_rows()

    def total_cpus(self) -> int:
        """CPU slots in this (scaled) grid."""
        return sum(site.cluster.total_cpus for site in self.sites.values())

    def registered_users(self) -> int:
        return sum(len(v) for v in self.voms.values())

    def concurrent_app_sites(self) -> int:
        """Sites that ran jobs from more than one VO (§7 milestone)."""
        by_site: Dict[str, set] = {}
        for record in self.acdc_db.records():
            by_site.setdefault(record.site, set()).add(record.vo)
        return sum(1 for vos in by_site.values() if len(vos) >= 2)

    def milestones(self, t0: float = 0.0, t1: Optional[float] = None) -> MilestonesTracker:
        """The §7 milestones table for this run.

        Extensive quantities (CPUs, data volume, concurrent jobs) are
        rescaled by ``scale`` for paper comparison; intensive ones
        (efficiency, utilisation, FTE) are reported as measured.
        """
        t1 = t1 if t1 is not None else self.engine.now
        scale = self.config.scale
        viewer = self.viewer()
        tracker = MilestonesTracker()
        tracker.record("cpus", self.total_cpus() * scale)
        tracker.record("users", self.registered_users())
        tracker.record("applications", len(self.apps) + 2)  # +NetLogger/Entrada studies
        tracker.record("concurrent_app_sites", self.concurrent_app_sites())
        tracker.record(
            "data_tb_per_day",
            bytes_to_tb(self.ledger.peak_daily_bytes(t0, t1)) * scale,
        )
        # §7 defines the band by its own peak numbers ("over 1300 jobs
        # ran simultaneously" on ">2500" CPUs ~ 52 %; "the metrics plots
        # are averages over specific time bins, which can report less
        # than the peak") — so the comparable statistic is peak
        # concurrency over capacity.
        total = self.total_cpus()
        if total > 0:
            tracker.record(
                "resource_utilisation",
                viewer.peak_concurrent_jobs(t0, t1) / total,
            )
        tracker.record("job_efficiency", self.acdc_db.success_rate())
        tracker.record(
            "peak_concurrent_jobs", viewer.peak_concurrent_jobs(t0, t1) * scale
        )
        tracker.record(
            "support_fte", self.igoc.tickets.support_fte(t0, max(t1, t0 + 1.0))
        )
        return tracker
