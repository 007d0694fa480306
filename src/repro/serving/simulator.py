"""Virtual-clock inference-serving simulator.

Turns the one-shot EdgeNN engine into a *service*: a discrete-event loop
drives request arrivals (:mod:`repro.workloads.arrivals`) through
per-tenant bounded queues (:mod:`repro.sim.engine.queue`, applying the
:mod:`.batcher` policy), forms dynamic batches, and
executes them one at a time on the simulated device — GPU kernels are
non-preemptive, so the device is a serial batch server; *within* a
batch the CPU and GPU co-run under the shared-bandwidth contention
model exactly as in one-shot mode.

The service time of a batch of size ``b`` comes from the real machinery:
the :class:`~repro.core.engine.EdgeNN` tuner produces a plan *re-tuned
for that batch size* (memoized in the shared
:class:`~repro.core.plan_cache.PlanCache`), and a warm executor
(weights device-resident, the steady state of
:mod:`repro.core.service`) measures it on the
:mod:`repro.sim.timeline` device model, once per process
(:data:`SERVICE_TIMES`).  Dynamic batching therefore
helps exactly as much as the cost model says weight-traffic
amortization is worth — fc-heavy networks batch nearly for free,
conv-heavy ones almost linearly.

A :class:`~repro.faults.FaultScenario` on the config turns the
well-behaved device into a hostile one — thermal-throttle windows,
transient hybrid-kernel failures, memory pressure, malformed payloads —
and ``resilience`` selects how the service responds: deadlines with
timeout abandonment, retry-with-backoff plus a circuit breaker around
execution, zero-copy demotion, and latency-drift-triggered re-tuning
against the throttled device (see ``docs/robustness.md``).

Everything is deterministic: same tenants, seeds, policy, and fault
scenario produce an identical
:class:`~repro.serving.report.ServingReport` (compare digests).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..compile.backends import AnalyticBackend
from ..compile.pipeline import CompiledPlan
from ..core.engine import EdgeNN, EdgeNNConfig
from ..core.plan_cache import default_plan_cache
from ..errors import ReproError
from ..faults import (
    CircuitBreaker,
    DegradationManager,
    DegradationPolicy,
    FaultInjector,
    FaultScenario,
    MODE_NO_HYBRID,
    RetryPolicy,
)
from ..hardware.device import Device
from ..hardware.specs import JETSON_AGX_XAVIER, DeviceSpec
from ..hardware.throttle import ThrottleFactors, apply_throttle
from ..nn.precision import Precision
from ..obs import NOOP_OBS, Observability
from ..obs.metrics import DEFAULT_BUCKETS, SIZE_BUCKETS
from ..obs.timeline import (
    BurnRateRule,
    SloMonitor,
    SloObjective,
    SloReport,
    TimelineArtifact,
    TimelineRecorder,
)
from ..sim.engine import (
    ArrivalSchedule,
    DepthTracker,
    EventEngine,
    EventHeap,
    IndexQueue,
    RequestTable,
)
from ..sim.engine import (
    FAILED as _ST_FAILED,
    SERVED as _ST_SERVED,
    SHED as _ST_SHED,
    TIMED_OUT as _ST_TIMED_OUT,
)
from ..sim.engine.queue import EPS
from ..sim.timeline import COPY, CPU, GPU, Timeline
from ..sim.trace import Trace
from ..store.fingerprint import device_fingerprint
from ..workloads.arrivals import ArrivalProcess, PoissonArrivals
from .batcher import BatchPolicy
from .report import (
    LatencyStats,
    ServingReport,
    TenantServingStats,
    merge_histograms,
)
from .request import Request
from .scheduler import WeightedFairScheduler

#: Serving-level timeline resource: the whole integrated device, which
#: serves one batch at a time (non-preemptive kernels).
DEVICE = "device"

# Event kinds, in processing order at equal virtual instants: arrivals
# join the queue before a same-instant completion triggers dispatch, and
# wait-expiry timers run last (they only re-check readiness).
_ARRIVAL, _COMPLETION, _TIMER = 0, 1, 2

#: Service-time variants the fault-aware dispatcher can select.
#: Each maps to engine-config flag flips, so every variant is a
#: first-class tuned plan memoized through the shared plan cache.
_KIND_FLAGS: Dict[str, Dict[str, bool]] = {
    "normal": {},
    "no_hybrid": {"use_hybrid_execution": False, "use_intra_kernel": False},
    "no_zerocopy": {"use_memory_management": False},
    "safe": {
        "use_hybrid_execution": False,
        "use_intra_kernel": False,
        "use_memory_management": False,
    },
}


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a model plus its request stream and fair-share weight."""

    network: str
    arrival: ArrivalProcess
    weight: float = 1.0
    name: Optional[str] = None           # defaults to the network name
    policy: Optional[BatchPolicy] = None  # overrides the run's policy

    @property
    def tenant_name(self) -> str:
        return self.name if self.name is not None else self.network


@dataclass(frozen=True)
class ServingConfig:
    """Run-wide serving knobs."""

    policy: BatchPolicy = field(default_factory=BatchPolicy)
    precision: Precision = Precision.FP32
    #: engine feature flags for tuning (batch_size is set per dispatch).
    engine: Optional[EdgeNNConfig] = None
    #: charge the cold-start premium (parameter staging) to each
    #: tenant's first batch instead of assuming a pre-warmed service.
    cold_start: bool = False
    #: recorded in the report for replay bookkeeping.
    seed: int = 0
    #: fault scenario to inject (None: the well-behaved device).
    faults: Optional[FaultScenario] = None
    #: enable the resilience layer (retries, breaker, degradation,
    #: payload validation).  Off shows what a naive service suffers.
    resilience: bool = True
    #: retry schedule around hybrid-kernel launches (None: defaults
    #: seeded from ``seed``).
    retry: Optional[RetryPolicy] = None
    #: degradation thresholds (None: defaults).
    degradation: Optional[DegradationPolicy] = None
    breaker_failure_threshold: int = 3
    breaker_reset_s: float = 0.25
    #: timeline window width in virtual seconds (0: recording off).
    #: When on, the run exposes a digest-stable
    #: :class:`~repro.obs.timeline.TimelineArtifact` on the simulator.
    timeline_window_s: float = 0.0
    #: declarative SLO objectives evaluated over the recorded timeline.
    slos: Tuple[SloObjective, ...] = ()
    #: burn-rate alert rule for ``slos`` (None: single/5-window default).
    burn: Optional[BurnRateRule] = None


@dataclass(frozen=True)
class BatchServiceTime:
    """Simulated cost of one batch of a given size."""

    total_s: float
    cpu_busy_s: float
    gpu_busy_s: float
    #: energy drawn over the batch (fleet-level accounting in
    #: :mod:`repro.cluster`; 0.0 for duck-typed test models).
    energy_j: float = 0.0


#: One dispatched batch: (tenant, size, start, total incl. retry delay,
#: retry delay, CPU busy, GPU busy).
BatchLogEntry = Tuple[str, int, float, float, float, float, float]


@dataclass(frozen=True)
class BatchRecord:
    """One dispatched batch (for the serving trace / debugging)."""

    tenant: str
    size: int
    start_s: float
    end_s: float


class ServiceTimeMemo:
    """Warm batch service times, computed once per process.

    A warm service time is a pure function of the plan and the device
    spec it runs on, so both service-time models share one instance,
    :data:`SERVICE_TIMES`, across simulators.  :meth:`tuned` keys by
    the :class:`~repro.core.tuner.TuningResult` the plan cache returned,
    by identity, and holds it weakly: an entry lives as long as its
    plan, and a plan re-tuned after an invalidation executes again.
    :meth:`fixed` keys plans no cache holds by what compiles them.
    Racing threads at worst execute a plan twice and store equal values.
    """

    def __init__(self) -> None:
        #: id(plan) -> (weak reference to the plan, {key: service time})
        self._tuned: Dict[
            int, Tuple["weakref.ref", Dict[Tuple, BatchServiceTime]]
        ] = {}
        self._fixed: Dict[Tuple, BatchServiceTime] = {}

    def tuned(
        self,
        plan: object,
        key: Tuple,
        execute: Callable[[], BatchServiceTime],
    ) -> BatchServiceTime:
        """The time of ``plan`` under ``key``, executing on first use."""
        ident = id(plan)
        entry = self._tuned.get(ident)
        if entry is None:
            # The callback runs when the plan is collected, before its
            # id can be reused, so an id never names a replaced plan.
            ref = weakref.ref(plan, lambda _: self._tuned.pop(ident, None))
            entry = self._tuned[ident] = (ref, {})
        times = entry[1]
        svc = times.get(key)
        if svc is None:
            svc = times[key] = execute()
        return svc

    def fixed(
        self, key: Tuple, execute: Callable[[], BatchServiceTime]
    ) -> BatchServiceTime:
        """The time of the fixed plan ``key`` names, executing on first
        use."""
        svc = self._fixed.get(key)
        if svc is None:
            svc = self._fixed[key] = execute()
        return svc

    def clear(self) -> None:
        """Forget every memoized time."""
        self._tuned.clear()
        self._fixed.clear()


#: The process-wide memo both service-time models share.
SERVICE_TIMES = ServiceTimeMemo()


def warm_service_time(
    compiled: CompiledPlan, obs: Observability
) -> BatchServiceTime:
    """Run one compiled plan warm (weights device-resident)."""
    report = AnalyticBackend(warm_weights=True).execute(compiled, obs=obs)
    return BatchServiceTime(
        total_s=report.total_s,
        cpu_busy_s=report.cpu_busy_s,
        gpu_busy_s=report.gpu_busy_s,
        energy_j=report.energy.energy_j,
    )


class ServiceTimeModel:
    """Warm (and cold) batched service times, memoized per variant.

    Each distinct (network, batch, kind, throttle, retuned) combination
    is tuned through the shared plan cache, so across sweeps and
    tenants every (network, device, batch, precision, flags) pair tunes
    exactly once per process.  ``kind`` selects degraded plan variants
    (hybrid off, zero-copy off) and ``factors``/``retuned`` the
    thermal-throttle execution mode: ``retuned=False`` runs the *stale*
    nominal plan on the throttled device (what a naive service
    suffers), ``retuned=True`` re-tunes against the throttled spec.

    Each model looks a combination's plan up in the plan cache once
    (the serving report counts those hits and misses) and takes its time
    from :data:`SERVICE_TIMES`, keyed by (plan, spec fingerprint,
    throttle factors): a plan executes once per process, and a memo hit
    builds no graph and records no executor spans.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        precision: Precision = Precision.FP32,
        engine: Optional[EdgeNNConfig] = None,
        *,
        obs: Optional[Observability] = None,
    ) -> None:
        self._spec = spec
        self._fingerprint = device_fingerprint(spec)
        self._base = engine or EdgeNNConfig()
        self._precision = precision
        self._obs = obs if obs is not None else NOOP_OBS
        self._warm: Dict[Tuple, BatchServiceTime] = {}
        self._cold: Dict[Tuple[str, int], BatchServiceTime] = {}

    @property
    def base_config(self) -> EdgeNNConfig:
        return self._base

    @property
    def spec(self) -> DeviceSpec:
        return self._spec

    def _config_for(self, batch: int, kind: str) -> EdgeNNConfig:
        try:
            flags = _KIND_FLAGS[kind]
        except KeyError:
            raise ReproError(
                f"unknown service kind {kind!r}; "
                f"expected one of {sorted(_KIND_FLAGS)}"
            ) from None
        return replace(
            self._base, batch_size=batch, precision=self._precision, **flags
        )

    def _engine_for(self, network: str, batch: int) -> EdgeNN:
        return EdgeNN(
            network, self._spec, self._config_for(batch, "normal"),
            obs=self._obs,
        )

    def plan_key(self, network: str, batch: int, kind: str = "normal"):
        """The nominal-device plan-cache key of one service variant
        (what latency-drift degradation invalidates)."""
        from ..core.plan_cache import PlanKey

        return PlanKey.from_config(
            network, self._spec.name, self._config_for(batch, kind)
        )

    def service(
        self,
        network: str,
        batch: int,
        *,
        kind: str = "normal",
        factors: Optional[ThrottleFactors] = None,
        retuned: bool = False,
    ) -> BatchServiceTime:
        """Warm service time of one batch under one execution mode."""
        key = (network, batch, kind, factors, retuned)
        cached = self._warm.get(key)
        if cached is not None:
            return cached
        config = self._config_for(batch, kind)
        if factors is not None and factors.is_noop:
            factors = None
        stale = factors is not None and not retuned
        spec = self._spec
        if factors is not None and retuned:
            spec = apply_throttle(spec, factors)
        engine = EdgeNN(network, spec, config, obs=self._obs)

        def execute() -> BatchServiceTime:
            compiled = engine.compiled()
            if stale:
                # Stale plan on the throttled device: keep the placement
                # the tuner chose for the *nominal* operating point, but
                # execute it at the throttled rates.
                compiled = CompiledPlan(
                    graph=compiled.graph,
                    device=Device(apply_throttle(self._spec, factors)),
                    artifact=compiled.artifact,
                )
            return warm_service_time(compiled, self._obs)

        svc = SERVICE_TIMES.tuned(
            engine.tune(), (self._fingerprint, factors), execute
        )
        self._warm[key] = svc
        return svc

    def warm(self, network: str, batch: int) -> BatchServiceTime:
        return self.service(network, batch)

    def warm_times(
        self, networks: Sequence[str], sizes: Sequence[int]
    ) -> "np.ndarray":
        """Warm total seconds for whole (network, size) vectors at once.

        Built on the batched :func:`repro.core.executor.service_times`
        entry: each distinct pair tunes once (first-occurrence order,
        so plan-cache traffic stays deterministic) and the result comes
        back as one float64 array — the epoch-oriented counterpart of
        per-dispatch :meth:`warm` calls.
        """
        from ..core.executor import service_times

        return service_times(
            lambda network, size: self.warm(network, size).total_s,
            networks,
            sizes,
        )

    def cold(self, network: str, batch: int) -> BatchServiceTime:
        """First-batch cost: weights still have to reach the GPU."""
        key = (network, batch)
        if key not in self._cold:
            engine = self._engine_for(network, batch)
            report = engine.run()
            self._cold[key] = BatchServiceTime(
                total_s=report.total_s,
                cpu_busy_s=report.cpu_busy_s,
                gpu_busy_s=report.gpu_busy_s,
                energy_j=report.energy.energy_j,
            )
        return self._cold[key]


class ServingSimulator:
    """Discrete-event loop over one device and one or more tenants."""

    def __init__(
        self,
        device: Union[Device, DeviceSpec, None],
        tenants: Sequence[TenantSpec],
        config: Optional[ServingConfig] = None,
        *,
        service_model: Optional[ServiceTimeModel] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if not tenants:
            raise ReproError("serving needs at least one tenant")
        if device is None:
            device = JETSON_AGX_XAVIER
        self._spec = device.spec if isinstance(device, Device) else device
        self._config = config or ServingConfig()
        self._obs = obs if obs is not None else NOOP_OBS
        self._tenants = tuple(tenants)
        names = [t.tenant_name for t in self._tenants]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate tenant names: {names}")
        self._model = service_model or ServiceTimeModel(
            self._spec, self._config.precision, self._config.engine,
            obs=self._obs,
        )
        self._names = names
        #: struct-of-arrays request state of the last :meth:`run`;
        #: :attr:`requests` materializes legacy objects lazily from it.
        self._table: Optional[RequestTable] = None
        self._requests: Optional[List[Request]] = None
        #: per-batch log of the last :meth:`run` (None before one);
        #: :attr:`trace` and :attr:`batches` are derived from it lazily.
        self._batch_log: Optional[List[BatchLogEntry]] = None
        self._trace: Optional[Trace] = None
        self._batches: Optional[List[BatchRecord]] = None
        #: fault machinery of the last run (None without a scenario).
        self.injector: Optional[FaultInjector] = None
        self.breaker: Optional[CircuitBreaker] = None
        self.degradation: Optional[DegradationManager] = None
        #: windowed telemetry of the last run (None unless
        #: ``config.timeline_window_s`` > 0).
        self.timeline: Optional[TimelineArtifact] = None
        #: recorder calls the last run made, total and by hook
        #: name (feeds the analytic overhead bench).
        self.timeline_ops: int = 0
        self.timeline_op_counts: Dict[str, int] = {}
        #: SLO evaluation of the last run (None unless ``config.slos``).
        self.slo_report: Optional[SloReport] = None

    @property
    def requests(self) -> List[Request]:
        """Request objects of the last :meth:`run`.

        Materialized lazily from the engine's request table — only the
        Chrome-trace export and the CLI walk individual requests, so
        the hot loop never builds them.
        """
        if self._requests is None:
            if self._table is None:
                return []
            self._requests = self._table.materialize(self._names)
        return self._requests

    @property
    def batches(self) -> List[BatchRecord]:
        """Batches of the last :meth:`run`, in dispatch order."""
        if self._batches is None:
            if self._batch_log is None:
                return []
            self._batches = [
                BatchRecord(tenant, size, now, now + total)
                for tenant, size, now, total, *_ in self._batch_log
            ]
        return self._batches

    @property
    def trace(self) -> Optional[Trace]:
        """Kernel trace of the last :meth:`run` (None before one): per
        batch a ``device`` slice plus its CPU and GPU busy intervals.
        Built on first access by replaying the batch log through a
        :class:`~repro.sim.timeline.Timeline`."""
        if self._trace is None and self._batch_log is not None:
            timeline = Timeline((DEVICE, CPU, GPU, COPY))
            for tenant, size, now, total, delay, cpu_s, gpu_s in (
                self._batch_log
            ):
                label = f"{tenant}:batch(n={size})"
                timeline.schedule(DEVICE, total, label, not_before=now)
                timeline.schedule(
                    CPU, cpu_s, label,
                    not_before=now + delay, category="kernel",
                )
                timeline.schedule(
                    GPU, gpu_s, label,
                    not_before=now + delay, category="kernel",
                )
            self._trace = timeline.trace
        return self._trace

    # -- the event loop -------------------------------------------------------

    def run(self) -> ServingReport:
        """Run the simulation; returns the :class:`ServingReport`.

        Plan-cache traffic caused by this run (service-time tuning per
        distinct batch size) is exposed on the report as
        ``plan_cache_hits`` / ``plan_cache_misses``.
        """
        obs = self._obs
        cache = default_plan_cache()
        hits_before, misses_before = cache.hits, cache.misses
        if not obs.enabled:
            report = self._run()
        else:
            with obs.tracer.span(
                "serve", category="serve", device=self._spec.name,
                tenants=",".join(t.tenant_name for t in self._tenants),
            ) as span:
                report = self._run()
                span.set_times(0.0, report.makespan_s)
                span.set_attributes(
                    offered=report.offered, served=report.served,
                    shed=report.shed,
                )
        report.plan_cache_hits = cache.hits - hits_before
        report.plan_cache_misses = cache.misses - misses_before
        return report

    def _run(self) -> ServingReport:
        cfg = self._config
        obs = self._obs
        if obs.enabled:
            requests_total = obs.metrics.counter(
                "repro_serving_requests_total",
                "Requests by tenant and outcome",
                labels=("tenant", "outcome"),
            )
            batches_total = obs.metrics.counter(
                "repro_serving_batches_total",
                "Batches dispatched per tenant", labels=("tenant",),
            )
            batch_size_hist = obs.metrics.histogram(
                "repro_serving_batch_size",
                "Dispatched batch sizes", buckets=SIZE_BUCKETS,
            )
            latency_hist = obs.metrics.histogram(
                "repro_serving_request_latency_seconds",
                "End-to-end served-request latency",
                labels=("tenant",), buckets=DEFAULT_BUCKETS,
            )
            depth_gauge = obs.metrics.gauge(
                "repro_serving_queue_depth",
                "Admitted requests waiting across all tenant queues",
            )
        # One merged arrival epoch (whole numpy arrays per tenant) and
        # a struct-of-arrays request table sized for it up front.
        schedule = ArrivalSchedule(
            [t.arrival.as_arrays() for t in self._tenants]
        )
        table = RequestTable(len(schedule.times))
        names = self._names
        iqueues: List[IndexQueue] = []
        specs: Dict[str, TenantSpec] = {}
        for spec in self._tenants:
            name = spec.tenant_name
            iqueues.append(
                IndexQueue(name, spec.policy or cfg.policy, table)
            )
            specs[name] = spec
        index_of = {n: k for k, n in enumerate(names)}
        scheduler = WeightedFairScheduler(
            {t.tenant_name: t.weight for t in self._tenants}
        )
        # Windowed telemetry recorder (None: every hook is one identity
        # check on the hot path, covered by the obs-overhead guard).
        tl: Optional[TimelineRecorder] = None
        if cfg.timeline_window_s > 0.0:
            tl = TimelineRecorder(
                cfg.timeline_window_s,
                source=f"serve:{self._spec.name}",
                meta={
                    "seed": str(cfg.seed),
                    "tenants": ",".join(sorted(names)),
                },
            )

        # -- fault machinery (None when no scenario: zero-cost checks) --------
        faults = cfg.faults
        injector: Optional[FaultInjector] = None
        breaker: Optional[CircuitBreaker] = None
        degradation: Optional[DegradationManager] = None
        retry = cfg.retry or RetryPolicy(seed=cfg.seed)
        if faults is not None:
            injector = FaultInjector(faults, seed=cfg.seed, obs=obs)
            breaker = CircuitBreaker(
                failure_threshold=cfg.breaker_failure_threshold,
                reset_timeout_s=cfg.breaker_reset_s,
            )
            degradation = DegradationManager(cfg.degradation, obs=obs)
        self.injector = injector
        self.breaker = breaker
        self.degradation = degradation
        # Duck-typed service models (tests) may not expose base_config.
        base_cfg = getattr(self._model, "base_config", None)
        hybrid_base = (
            base_cfg.use_hybrid_execution if base_cfg is not None else True
        )
        memory_base = (
            base_cfg.use_memory_management if base_cfg is not None else True
        )
        noted_thermal: Optional[float] = None   # active window start
        noted_pressure: Optional[float] = None
        next_edge = -math.inf   # windows cannot change before this
        demoted_windows: set = set()
        retries = 0
        exhaustions = 0

        heap = EventHeap()
        engine = EventEngine(schedule, heap)

        batch_log: List[BatchLogEntry] = []
        tenant_hist: Dict[str, Dict[int, int]] = {n: {} for n in names}
        #: the single batch on the device: (owner, rows, batch_failed).
        in_flight: Optional[Tuple[int, np.ndarray, bool]] = None
        warmed: Dict[str, bool] = {n: not cfg.cold_start for n in names}
        armed_timers: Dict[str, float] = {}
        late_counts: Dict[str, int] = {n: 0 for n in names}
        failed_counts: Dict[str, int] = {n: 0 for n in names}
        dispatch_seq = 0

        device_busy = False
        cpu_busy_total = 0.0
        gpu_busy_total = 0.0

        # Time-weighted queue-depth accounting.
        tracker = DepthTracker()

        #: tenants whose arrival process reacts to completions (closed
        #: loop); open-loop follow-ups are provably no-ops and skipped.
        has_followup = [
            type(t.arrival).next_after is not ArrivalProcess.next_after
            for t in self._tenants
        ]

        def followup(owner: int, now: float) -> None:
            """Closed-loop clients re-arm after any terminal outcome."""
            follow = self._tenants[owner].arrival.next_after(now)
            if follow is not None:
                schedule.push(follow, owner)

        def note_windows(now: float) -> None:
            """Record thermal / memory-pressure window edges once.

            The active windows change only at a window edge, and event
            time never goes back, so below the next edge there is
            nothing to record.
            """
            nonlocal noted_thermal, noted_pressure, next_edge
            if now < next_edge:
                return
            next_edge = faults.next_edge_after(now)
            thermal = faults.thermal_at(now)
            start = thermal.start_s if thermal is not None else None
            if start != noted_thermal:
                if noted_thermal is not None:
                    for w in faults.thermal:
                        if w.start_s == noted_thermal:
                            injector.note_thermal_exit(now, w)
                if thermal is not None:
                    injector.note_thermal_enter(now, thermal)
                noted_thermal = start
            pressure = faults.memory_pressure_at(now)
            pstart = pressure.start_s if pressure is not None else None
            if pstart != noted_pressure:
                if noted_pressure is not None:
                    for w in faults.memory_pressure:
                        if w.start_s == noted_pressure:
                            injector.note_memory_pressure_exit(now, w)
                if pressure is not None:
                    injector.note_memory_pressure_enter(now, pressure)
                noted_pressure = pstart

        def expire_queues(now: float) -> None:
            for k, queue in enumerate(iqueues):
                expired = queue.expire(now)
                if not expired:
                    continue
                tracker.remove(expired)
                if tl is not None:
                    tl.record_timed_out(now, expired)
                if obs.enabled:
                    for _ in range(expired):
                        requests_total.labels(
                            tenant=queue.name, outcome="timed_out"
                        ).inc()
                    depth_gauge.set(tracker.depth)
                if has_followup[k]:
                    for _ in range(expired):
                        followup(k, now)

        def batch_service(
            tenant: str, size: int, now: float
        ) -> Tuple[BatchServiceTime, float, bool]:
            """Pick the service variant for one dispatch under faults.

            Returns (service time, extra pre-service delay from retry
            backoff, batch_failed).
            """
            nonlocal retries, exhaustions
            network = specs[tenant].network
            if faults is None:
                return self._model.warm(network, size), 0.0, False
            factors = injector.throttle_at(now)
            pressure = injector.memory_pressure_at(now)
            resilient = cfg.resilience

            # Memory pressure, naive service: zero-copy allocation
            # fails outright — fail fast, batch lost before any work.
            if pressure and memory_base and not resilient:
                return BatchServiceTime(0.0, 0.0, 0.0), 0.0, True

            # Execution-mode selection (degraded plan variants).
            no_hybrid = (
                resilient
                and degradation.mode(tenant) == MODE_NO_HYBRID
            )
            demote = pressure and memory_base and resilient
            if demote:
                window = faults.memory_pressure_at(now)
                wkey = (tenant, window.start_s)
                if wkey not in demoted_windows:
                    demoted_windows.add(wkey)
                    degradation.note_memory_demotion(
                        tenant, network, now=now
                    )
            if no_hybrid and demote:
                kind = "safe"
            elif no_hybrid:
                kind = "no_hybrid"
            elif demote:
                kind = "no_zerocopy"
            else:
                kind = "normal"

            # Thermal throttling: naive service runs the stale nominal
            # plan at throttled rates; the resilient one does too until
            # sustained latency drift triggers re-tuning against the
            # throttled spec (plan-cache entry invalidated).
            retuned = False
            if factors is not None and resilient:
                if degradation.retuned(tenant):
                    retuned = True
                else:
                    stale = self._model.service(
                        network, size, kind=kind, factors=factors,
                    )
                    predicted = self._model.service(
                        network, size, kind=kind
                    )
                    if degradation.observe_latency(
                        tenant, network, now=now,
                        observed_s=stale.total_s,
                        predicted_s=predicted.total_s,
                    ):
                        default_plan_cache().invalidate(
                            self._model.plan_key(network, size, kind)
                        )
                        retuned = True
            elif factors is None and resilient and degradation.retuned(
                tenant
            ):
                degradation.clear_drift(tenant, network, now=now)

            svc = self._model.service(
                network, size, kind=kind, factors=factors, retuned=retuned,
            )

            # Transient hybrid-kernel launch failures.
            hybrid_active = (
                hybrid_base
                and kind in ("normal", "no_zerocopy")
                and faults.kernel_failure_p > 0.0
            )
            if not hybrid_active:
                return svc, 0.0, False
            if not resilient:
                failed = injector.kernel_fails(
                    now, detail=f"{tenant}#{dispatch_seq}"
                )
                # The failure surfaces mid-run: the device time is
                # consumed either way, the responses are lost.
                return svc, 0.0, failed
            if not breaker.allow(now):
                # Circuit open: skip the hybrid launch entirely and run
                # the safe plan until the breaker half-opens.
                fallback = "safe" if kind == "no_zerocopy" else "no_hybrid"
                svc = self._model.service(
                    network, size, kind=fallback,
                    factors=factors, retuned=retuned,
                )
                return svc, 0.0, False
            delay = 0.0
            for attempt in range(retry.max_attempts):
                fails = injector.kernel_fails(
                    now, detail=f"{tenant}#{dispatch_seq}:a{attempt}"
                )
                if not fails:
                    breaker.record_success(now)
                    if attempt > 0 and obs.enabled:
                        obs.metrics.counter(
                            "repro_resilience_retries_total",
                            "Hybrid-kernel launch retries",
                            labels=("tenant",),
                        ).labels(tenant=tenant).inc(attempt)
                    retries += attempt
                    return svc, delay, False
                if attempt < retry.max_attempts - 1:
                    delay += retry.delay(attempt, token=dispatch_seq)
            # All attempts failed: trip the breaker, fall back to the
            # safe non-hybrid plan (responses still produced, slower).
            retries += retry.max_attempts - 1
            exhaustions += 1
            breaker.record_failure(now)
            degradation.note_hybrid_exhausted(tenant, network, now=now)
            fallback = "safe" if kind == "no_zerocopy" else "no_hybrid"
            svc = self._model.service(
                network, size, kind=fallback, factors=factors,
                retuned=retuned,
            )
            return svc, delay, False

        def maybe_dispatch(now: float) -> None:
            nonlocal device_busy, cpu_busy_total, gpu_busy_total
            nonlocal dispatch_seq, in_flight
            while not device_busy:
                expire_queues(now)
                ready = [q.name for q in iqueues if q.ready(now)]
                chosen = scheduler.pick(ready)
                if chosen is None:
                    # Nothing dispatchable yet: arm a wait-expiry timer
                    # per tenant still accumulating a batch.
                    for queue in iqueues:
                        deadline = queue.wait_deadline_s()
                        if deadline is None:
                            continue
                        if armed_timers.get(queue.name) == deadline:
                            continue
                        armed_timers[queue.name] = deadline
                        heap.push(max(deadline, now), _TIMER, queue.name)
                    return
                owner = index_of[chosen]
                queue = iqueues[owner]
                rows = queue.take_batch(now)
                size = len(rows)
                tracker.remove(size)
                dispatch_seq += 1
                mode = "warm" if warmed[chosen] else "cold"
                poisoned = bool(table.corrupt[rows].any())
                if warmed[chosen]:
                    svc, delay, failed = batch_service(chosen, size, now)
                else:
                    svc = self._model.cold(specs[chosen].network, size)
                    delay, failed = 0.0, False
                    warmed[chosen] = True
                if poisoned:
                    # A malformed payload in the batch kills the whole
                    # launch (the naive service admitted it unchecked);
                    # the device time is still consumed.
                    failed = True
                if failed and svc.total_s == 0.0 and delay == 0.0:
                    # Fail-fast path (allocation failure): the batch is
                    # lost before consuming any device time.
                    table.status[rows] = _ST_FAILED
                    table.finish_s[rows] = now
                    failed_counts[chosen] += size
                    if obs.enabled:
                        for _ in range(size):
                            requests_total.labels(
                                tenant=chosen, outcome="failed"
                            ).inc()
                    if has_followup[owner]:
                        for _ in range(size):
                            followup(owner, now)
                    tenant_hist[chosen][size] = (
                        tenant_hist[chosen].get(size, 0) + 1
                    )
                    if tl is not None:
                        tl.record_failed(now, size, from_queue=True)
                    continue
                device_busy = True
                total = delay + svc.total_s
                scheduler.charge(chosen, total)
                cpu_busy_total += svc.cpu_busy_s
                gpu_busy_total += svc.gpu_busy_s
                end = now + total
                batch_log.append((
                    chosen, size, now, total, delay,
                    svc.cpu_busy_s, svc.gpu_busy_s,
                ))
                if tl is not None:
                    tl.record_batch(
                        now, end, size,
                        busy=(
                            ("cpu", svc.cpu_busy_s),
                            ("gpu", svc.gpu_busy_s),
                        ),
                        energy_j=svc.energy_j,
                    )
                if obs.enabled:
                    obs.tracer.record(
                        f"{chosen}:batch(n={size})", now, end,
                        category="batch",
                        tenant=chosen, size=size, mode=mode,
                    )
                    batches_total.labels(tenant=chosen).inc()
                    batch_size_hist.observe(size)
                    depth_gauge.set(tracker.depth)
                tenant_hist[chosen][size] = (
                    tenant_hist[chosen].get(size, 0) + 1
                )
                in_flight = (owner, rows, failed)
                heap.push(end, _COMPLETION, chosen)
                return

        def on_arrival(now: float, owner: int) -> None:
            """Exact per-arrival path (the legacy scalar semantics)."""
            tracker.advance(now)
            if faults is not None:
                note_windows(now)
            queue = iqueues[owner]
            name = queue.name
            idx = table.append(now, owner)
            if tl is not None:
                tl.record_offered(now)
            if faults is not None and injector.payload_corrupt(
                now, request_id=idx
            ):
                if cfg.resilience:
                    # Request validation catches the malformed
                    # payload at the door: reject, don't queue.
                    queue.reject(idx)
                    table.finish_s[idx] = now
                    if tl is not None:
                        tl.record_rejected(now)
                    if obs.enabled:
                        requests_total.labels(
                            tenant=name, outcome="rejected"
                        ).inc()
                    followup(owner, now)
                    maybe_dispatch(now)
                    return
                table.corrupt[idx] = True
            if queue.offer(idx, now):
                tracker.admit()
                if obs.enabled:
                    depth_gauge.set(tracker.depth)
            else:
                # Shed: the client sees an immediate rejection; a
                # closed-loop client thinks, then retries.
                table.finish_s[idx] = now
                if tl is not None:
                    tl.record_shed(now)
                if obs.enabled:
                    requests_total.labels(
                        tenant=name, outcome="shed"
                    ).inc()
                followup(owner, now)
            maybe_dispatch(now)

        def on_arrivals(times: np.ndarray, owners: np.ndarray) -> None:
            """Bulk admission: a whole busy-device arrival span at once.

            Only reachable when the device is busy, no faults are
            active, per-request metrics are off, and every tenant is
            open loop — conditions under which the scalar path reduces
            to admit-or-shed plus depth accounting, all vectorizable.
            """
            start = table.append_bulk(times, owners)
            if tl is not None:
                tl.record_offered_bulk(times)
            total = len(times)
            if len(iqueues) == 1:
                # Single tenant: the span is one FIFO fill — slice
                # writes only, no index gathers.
                queue = iqueues[0]
                queue.offered += total
                room = queue.policy.max_queue_depth - len(queue)
                take_n = min(total, room) if room > 0 else 0
                if take_n:
                    queue.admit_span(start, take_n, times[:take_n])
                if take_n < total:
                    table.status[start + take_n:start + total] = _ST_SHED
                    table.finish_s[start + take_n:start + total] = (
                        times[take_n:]
                    )
                    queue.shed += total - take_n
                    if tl is not None:
                        tl.record_shed_bulk(times[take_n:])
                tracker.advance_span(times, take_n)
                return
            admitted = np.zeros(total, dtype=np.int64)
            for k, queue in enumerate(iqueues):
                pos = np.nonzero(owners == k)[0]
                npos = len(pos)
                if not npos:
                    continue
                queue.offered += npos
                room = queue.policy.max_queue_depth - len(queue)
                if room < 0:
                    room = 0
                take = pos[:room]
                over = pos[room:]
                if len(take):
                    queue.admit_bulk(start + take, times[take])
                    admitted[take] = 1
                if len(over):
                    shed_rows = start + over
                    table.status[shed_rows] = _ST_SHED
                    table.finish_s[shed_rows] = times[over]
                    queue.shed += len(over)
                    if tl is not None:
                        tl.record_shed_bulk(times[over])
            tracker.advance_bulk(times, admitted)

        def on_event(now: float, kind: int, payload: object) -> None:
            nonlocal device_busy, in_flight
            tracker.advance(now)
            if faults is not None:
                note_windows(now)
            if kind == _COMPLETION:
                owner, rows, batch_failed = in_flight
                in_flight = None
                name = names[owner]
                n = len(rows)
                table.finish_s[rows] = now
                if batch_failed:
                    table.status[rows] = _ST_FAILED
                    failed_counts[name] += n
                    lats: Optional[List[float]] = None
                    late_n = 0
                    if obs.enabled:
                        for _ in range(n):
                            requests_total.labels(
                                tenant=name, outcome="failed"
                            ).inc()
                else:
                    queue = iqueues[owner]
                    if queue.policy.deadline_s is not None:
                        # Completed, but past deadline: the client
                        # already gave up — late, useless responses.
                        late_mask = now > table.deadline_s[rows] + EPS
                        late_n = int(late_mask.sum())
                    else:
                        late_n = 0
                    if late_n:
                        served_rows = rows[~late_mask]
                        table.status[rows[late_mask]] = _ST_TIMED_OUT
                        queue.timed_out += late_n
                        late_counts[name] += late_n
                    else:
                        served_rows = rows
                    table.status[served_rows] = _ST_SERVED
                    lats = None
                    if tl is not None:
                        lats = (
                            now - table.arrival_s[served_rows]
                        ).tolist()
                    if obs.enabled:
                        late_list = (
                            late_mask.tolist() if late_n else [False] * n
                        )
                        arrivals = table.arrival_s[rows].tolist()
                        for i in range(n):
                            if late_list[i]:
                                requests_total.labels(
                                    tenant=name, outcome="timed_out"
                                ).inc()
                            else:
                                requests_total.labels(
                                    tenant=name, outcome="served"
                                ).inc()
                                latency_hist.labels(tenant=name).observe(
                                    now - arrivals[i]
                                )
                if has_followup[owner]:
                    for _ in range(n):
                        followup(owner, now)
                if tl is not None and n:
                    if batch_failed:
                        tl.record_failed(now, n)
                    else:
                        if lats:
                            tl.record_served(now, lats)
                        if late_n:
                            tl.record_timed_out(now, late_n, late=True)
                device_busy = False
                maybe_dispatch(now)
            else:  # _TIMER
                if armed_timers.get(payload) is not None:
                    armed_timers.pop(payload, None)
                maybe_dispatch(now)

        # The bulk path is only sound when busy-span arrivals are
        # unobservable one-by-one: no fault injection (per-arrival RNG
        # draws), no per-request metrics, and fully open-loop tenants
        # (no completion-driven follow-up arrivals).
        open_loop = all(
            type(t.arrival).next_after is ArrivalProcess.next_after
            for t in self._tenants
        )
        use_bulk = faults is None and not obs.enabled and open_loop
        engine.run(
            on_arrival=on_arrival,
            on_event=on_event,
            bulk_ready=(lambda: device_busy) if use_bulk else None,
            on_arrivals=on_arrivals if use_bulk else None,
        )

        self._table = table
        self._requests = None
        self._batch_log = batch_log
        self._trace = None
        self._batches = None
        self.timeline = None
        self.timeline_ops = 0
        self.timeline_op_counts = {}
        self.slo_report = None
        if tl is not None:
            self.timeline_op_counts = tl.op_counts
            self.timeline_ops = tl.ops
            horizon = self._horizon_s()
            self.timeline = tl.finish(
                horizon_s=horizon,
                makespan_s=max(horizon, _last_end(batch_log)),
                capacity={"cpu": 1.0, "gpu": 1.0},
            )
            if cfg.slos:
                monitor = SloMonitor(cfg.slos, cfg.burn)
                self.slo_report = monitor.evaluate(self.timeline)
                monitor.record(self.slo_report, obs)
                # SLO firings reach the same degradation stream the
                # fault triggers use (before the report snapshots it).
                monitor.apply(
                    self.slo_report, degradation,
                    network=",".join(
                        sorted({t.network for t in self._tenants})
                    ),
                )
        return self._build_report(
            iqueues, table, tenant_hist, batch_log,
            tracker, cpu_busy_total, gpu_busy_total,
            late_counts, failed_counts, retries, exhaustions,
        )

    # -- report assembly ------------------------------------------------------

    def _horizon_s(self) -> float:
        return max(
            float(getattr(t.arrival, "duration_s", 0.0))
            for t in self._tenants
        )

    def _build_report(
        self, queues, table, tenant_hist, batch_log,
        tracker, cpu_busy_total, gpu_busy_total,
        late_counts, failed_counts, retries, exhaustions,
    ) -> ServingReport:
        horizon = self._horizon_s()
        makespan = max(horizon, _last_end(batch_log))
        n = len(table)
        arrival = table.arrival_s[:n]
        finish = table.finish_s[:n]
        status = table.status[:n]
        owner = table.tenant[:n]
        tenant_stats = []
        all_latencies: List[float] = []
        abandoned: List[float] = []
        for k, spec in enumerate(self._tenants):
            name = spec.tenant_name
            mine = owner == k
            served_mask = mine & (status == _ST_SERVED)
            latencies = (
                finish[served_mask] - arrival[served_mask]
            ).tolist()
            all_latencies.extend(latencies)
            gone = mine & (status == _ST_TIMED_OUT) & ~np.isnan(finish)
            abandoned.extend((finish[gone] - arrival[gone]).tolist())
            queue = queues[k]
            tenant_stats.append(
                TenantServingStats(
                    name=name,
                    network=spec.network,
                    weight=spec.weight,
                    offered=queue.offered,
                    served=len(latencies),
                    shed=queue.shed,
                    timed_out=queue.timed_out,
                    failed=failed_counts[name],
                    rejected=queue.rejected,
                    latency=LatencyStats.from_latencies(latencies),
                    batch_histogram=dict(tenant_hist[name]),
                )
            )
        offered = sum(t.offered for t in tenant_stats)
        served = sum(t.served for t in tenant_stats)
        shed = sum(t.shed for t in tenant_stats)
        timed_out = sum(t.timed_out for t in tenant_stats)
        failed = sum(t.failed for t in tenant_stats)
        rejected = sum(t.rejected for t in tenant_stats)
        report = ServingReport(
            device=self._spec.name,
            duration_s=horizon,
            makespan_s=makespan,
            offered=offered,
            served=served,
            shed=shed,
            latency=LatencyStats.from_latencies(all_latencies),
            batch_histogram=merge_histograms(
                [t.batch_histogram for t in tenant_stats]
            ),
            queue_depth_mean=(
                tracker.integral_s / makespan if makespan > 0 else 0.0
            ),
            queue_depth_max=tracker.depth_max,
            cpu_utilization=(
                min(1.0, cpu_busy_total / makespan) if makespan > 0 else 0.0
            ),
            gpu_utilization=(
                min(1.0, gpu_busy_total / makespan) if makespan > 0 else 0.0
            ),
            tenants=tuple(tenant_stats),
            seed=self._config.seed,
            timed_out=timed_out,
            late=sum(late_counts.values()),
            failed=failed,
            rejected=rejected,
            abandoned_latency=LatencyStats.from_latencies(abandoned),
        )
        report.extra["batch_count"] = float(len(batch_log))
        # Each batch starts at its dispatch instant, so this is the
        # kernel trace's device busy time, summed in the same order.
        report.extra["device_busy_s"] = sum(
            (now + total) - now for _, _, now, total, *_ in batch_log
        )
        if self.injector is not None:
            report.extra["fault_events"] = float(len(self.injector.events))
            report.extra["retries"] = float(retries)
            report.extra["hybrid_exhaustions"] = float(exhaustions)
            report.extra["breaker_opens"] = float(
                self.breaker.stats.opens if self.breaker else 0
            )
            report.extra["degradations"] = float(
                len(self.degradation.records) if self.degradation else 0
            )
        return report


def _last_end(batch_log: List[BatchLogEntry]) -> float:
    """End of the last batch of a log (0.0 when nothing dispatched)."""
    return max((now + total for _, _, now, total, *_ in batch_log),
               default=0.0)


# -- convenience entry points ---------------------------------------------------


def poisson_tenant(
    network: str,
    rate_rps: float,
    duration_s: float,
    *,
    seed: int = 0,
    weight: float = 1.0,
    name: Optional[str] = None,
    policy: Optional[BatchPolicy] = None,
) -> TenantSpec:
    """An open-loop Poisson tenant (the common case)."""
    return TenantSpec(
        network=network,
        arrival=PoissonArrivals(rate_rps, duration_s, seed=seed),
        weight=weight,
        name=name,
        policy=policy,
    )


def simulate(
    tenants: Sequence[TenantSpec],
    device: Union[Device, DeviceSpec, None] = None,
    config: Optional[ServingConfig] = None,
    *,
    obs: Optional[Observability] = None,
) -> ServingReport:
    """Run one serving simulation and return its report."""
    return ServingSimulator(device, tenants, config, obs=obs).run()


def simulate_poisson(
    network: str,
    rate_rps: float,
    duration_s: float,
    device: Union[Device, DeviceSpec, None] = None,
    *,
    seed: int = 0,
    config: Optional[ServingConfig] = None,
    obs: Optional[Observability] = None,
) -> ServingReport:
    """Single-tenant open-loop run (what ``repro serve`` does)."""
    cfg = config or ServingConfig(seed=seed)
    tenant = poisson_tenant(network, rate_rps, duration_s, seed=seed)
    return simulate([tenant], device, cfg, obs=obs)
