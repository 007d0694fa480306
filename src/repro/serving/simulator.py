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
conv-heavy ones almost linearly.  The same :class:`ServiceTimeModel`
prices the cluster fleet's non-integrated devices on the paper's fixed
baseline plans; the serving simulator itself accepts integrated devices
only.

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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..compile.pipeline import CompiledPlan, compile_baseline
from ..core.engine import EdgeNN, EdgeNNConfig
from ..core.plan_cache import default_plan_cache
from ..errors import ReproError
from ..faults import (
    CircuitBreaker,
    DegradationManager,
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
    BatchSpans,
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
    RequestRows,
    RequestTable,
)
from ..sim.engine import (
    FAILED as _ST_FAILED,
    REJECTED as _ST_REJECTED,
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
    #: timeline window width in virtual seconds (0: recording off).
    #: When on, the run exposes a digest-stable
    #: :class:`~repro.obs.timeline.TimelineArtifact` on the simulator.
    timeline_window_s: float = 0.0
    #: declarative SLO objectives evaluated over the recorded timeline.
    slos: Tuple[SloObjective, ...] = ()


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
#: retry delay, CPU busy, GPU busy, energy).
BatchLogEntry = Tuple[str, int, float, float, float, float, float, float]


class ServiceTimeMemo:
    """Warm batch service times, computed once per process.

    A warm service time is a pure function of the plan and the device
    spec it runs on, so every :class:`ServiceTimeModel` shares one
    instance, :data:`SERVICE_TIMES`, across simulators.  :meth:`tuned`
    keys by the :class:`~repro.core.tuner.TuningResult` the plan cache
    returned, by identity, and holds it weakly: an entry lives as long
    as its plan, and a plan re-tuned after an invalidation executes
    again.
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


#: The process-wide memo every service-time model shares.
SERVICE_TIMES = ServiceTimeMemo()


def warm_service_time(
    compiled: CompiledPlan, obs: Observability
) -> BatchServiceTime:
    """Run one compiled plan warm (weights device-resident)."""
    report = compiled.execute(warm_weights=True, obs=obs)
    return BatchServiceTime(
        total_s=report.total_s,
        cpu_busy_s=report.cpu_busy_s,
        gpu_busy_s=report.gpu_busy_s,
        energy_j=report.energy.energy_j,
    )


class ServiceTimeModel:
    """Warm (and cold) batched service times, memoized per variant.

    On an integrated CPU-GPU spec each distinct (network, batch, kind,
    throttle, retuned) combination is tuned through the shared plan
    cache, so across sweeps and tenants every (network, device, batch,
    precision, flags) pair tunes exactly once per process.  ``kind``
    selects degraded plan variants (hybrid off, zero-copy off) and
    ``factors``/``retuned`` the thermal-throttle execution mode:
    ``retuned=False`` runs the *stale* nominal plan on the throttled
    device (what a naive service suffers), ``retuned=True`` re-tunes
    against the throttled spec.  Any other spec runs the paper's fixed
    baseline plan for every ``kind`` and ``retuned`` (no hybrid
    execution or zero-copy to turn off, nothing to re-tune), at the
    throttled rates under ``factors``.

    Each model looks a tuned combination's plan up in the plan cache
    once (the serving report counts those hits and misses) and takes
    its time from :data:`SERVICE_TIMES`, keyed by (plan, spec
    fingerprint, throttle factors), or for a baseline plan by what
    compiles it: a plan executes once per process, and a memo hit
    builds no graph and records no executor spans.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        precision: Precision = Precision.FP32,
        *,
        obs: Optional[Observability] = None,
    ) -> None:
        self._spec = spec
        self._fingerprint = device_fingerprint(spec)
        self._precision = precision
        self._obs = obs if obs is not None else NOOP_OBS
        self._warm: Dict[Tuple, BatchServiceTime] = {}
        self._cold: Dict[Tuple[str, int], BatchServiceTime] = {}

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
        return EdgeNNConfig(
            batch_size=batch, precision=self._precision, **flags
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
        if factors is not None and factors.is_noop:
            factors = None
        if not self._spec.is_integrated:
            svc = self._warm[key] = self._baseline(network, batch, factors)
            return svc
        config = self._config_for(batch, kind)
        spec = self._spec
        if factors is not None and retuned:
            spec = apply_throttle(spec, factors)
        engine = EdgeNN(network, spec, config, obs=self._obs)

        def execute() -> BatchServiceTime:
            compiled = engine.compiled()
            if not retuned:
                # Stale plan on the throttled device: keep the placement
                # the tuner chose for the *nominal* operating point.
                compiled = self._at_rates(compiled, factors)
            return warm_service_time(compiled, self._obs)

        svc = SERVICE_TIMES.tuned(
            engine.tune(), (self._fingerprint, factors), execute
        )
        self._warm[key] = svc
        return svc

    def _at_rates(
        self, compiled: CompiledPlan, factors: Optional[ThrottleFactors]
    ) -> CompiledPlan:
        """``compiled``, planned for the nominal device, executed at the
        rates ``factors`` throttle it to (None: as it is)."""
        if factors is None:
            return compiled
        return CompiledPlan(
            graph=compiled.graph,
            device=Device(apply_throttle(self._spec, factors)),
            artifact=compiled.artifact,
        )

    def _baseline(
        self,
        network: str,
        batch: int,
        factors: Optional[ThrottleFactors],
    ) -> BatchServiceTime:
        """The device's fixed baseline plan (:func:`compile_baseline`)."""

        def execute() -> BatchServiceTime:
            compiled = compile_baseline(
                network,
                self._spec,
                precision=self._precision,
                batch_size=batch,
                obs=self._obs,
            )
            return warm_service_time(
                self._at_rates(compiled, factors), self._obs
            )

        return SERVICE_TIMES.fixed(
            (self._fingerprint, self._precision, network, batch, factors),
            execute,
        )

    def warm(self, network: str, batch: int) -> BatchServiceTime:
        return self.service(network, batch)

    def cold(self, network: str, batch: int) -> BatchServiceTime:
        """First-batch cost on an integrated device: weights still have
        to reach the GPU."""
        key = (network, batch)
        if key not in self._cold:
            engine = EdgeNN(
                network, self._spec, self._config_for(batch, "normal"),
                obs=self._obs,
            )
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
        if not self._spec.is_integrated:
            # The fault path's degraded plan kinds, re-tuning and
            # hybrid-kernel failures all assume EdgeNN's device.
            raise ReproError(
                f"serving requires a CPU-GPU integrated device; "
                f"{self._spec.name!r} is not (serve it in a cluster fleet)"
            )
        self._config = config or ServingConfig()
        self._obs = obs if obs is not None else NOOP_OBS
        self._tenants = tuple(tenants)
        names = [t.tenant_name for t in self._tenants]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate tenant names: {names}")
        self._model = service_model or ServiceTimeModel(
            self._spec, self._config.precision, obs=self._obs
        )
        self._names = names
        self._table: Optional[RequestTable] = None
        #: per-batch log of the last :meth:`run` (None before one);
        #: :attr:`trace` is derived from it lazily.
        self._batch_log: Optional[List[BatchLogEntry]] = None
        self._trace: Optional[Trace] = None
        #: fault machinery of the last run (None without a scenario).
        self.injector: Optional[FaultInjector] = None
        self.breaker: Optional[CircuitBreaker] = None
        self.degradation: Optional[DegradationManager] = None
        #: windowed telemetry of the last run (None unless
        #: ``config.timeline_window_s`` > 0).
        self.timeline: Optional[TimelineArtifact] = None
        #: SLO evaluation of the last run (None unless ``config.slos``).
        self.slo_report: Optional[SloReport] = None

    @property
    def table(self) -> Optional[RequestTable]:
        """Request table of the last :meth:`run` (None before one): one
        row per request, whose ``tenant`` column indexes the tenants in
        the order they were given."""
        return self._table

    @property
    def trace(self) -> Optional[Trace]:
        """Kernel trace of the last :meth:`run` (None before one): per
        batch a ``device`` slice plus its CPU and GPU busy intervals.
        Built on first access by replaying the batch log through a
        :class:`~repro.sim.timeline.Timeline`."""
        if self._trace is None and self._batch_log is not None:
            timeline = Timeline((DEVICE, CPU, GPU, COPY))
            for tenant, size, now, total, delay, cpu_s, gpu_s, _ in (
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
        run = _ServingRun(self)
        self.injector = run.injector
        self.breaker = run.breaker
        self.degradation = run.degradation
        run.run()

        self._table = run.table
        self._batch_log = run.batch_log
        self._trace = None
        self.timeline = None
        self.slo_report = None
        spans = _batch_spans(run.batch_log)
        rows = None
        if cfg.timeline_window_s > 0.0 or self._obs.enabled:
            rows = run.table.rows()
        if cfg.timeline_window_s > 0.0:
            horizon = self._horizon_s()
            recorder = TimelineRecorder(
                cfg.timeline_window_s,
                source=f"serve:{self._spec.name}",
                meta={
                    "seed": str(cfg.seed),
                    "tenants": ",".join(sorted(self._names)),
                },
            )
            self.timeline = recorder.finish(
                rows,
                spans,
                horizon_s=horizon,
                makespan_s=max(horizon, _last_end(run.batch_log)),
                capacity={"cpu": 1.0, "gpu": 1.0},
            )
            if cfg.slos:
                monitor = SloMonitor(cfg.slos)
                self.slo_report = monitor.evaluate(self.timeline)
                monitor.record(self.slo_report, self._obs)
                # SLO firings reach the same degradation stream the
                # fault triggers use (before the report snapshots it).
                monitor.apply(
                    self.slo_report, run.degradation,
                    network=",".join(
                        sorted({t.network for t in self._tenants})
                    ),
                )
        if rows is not None and self._obs.enabled:
            _record_request_metrics(
                self._obs.metrics, rows, run.table.tenant, self._names,
                run.batch_log,
            )
        return self._build_report(run, spans)

    # -- report assembly ------------------------------------------------------

    def _horizon_s(self) -> float:
        return max(
            float(getattr(t.arrival, "duration_s", 0.0))
            for t in self._tenants
        )

    def _build_report(
        self, run: _ServingRun, spans: BatchSpans
    ) -> ServingReport:
        """Assemble the report; every outcome count comes from the
        request table's status column, and the busy times from the
        batch log's columns (``spans``)."""
        batch_log = run.batch_log
        horizon = self._horizon_s()
        makespan = max(horizon, _last_end(batch_log))
        table = run.table
        n = len(table)
        arrival = table.arrival_s[:n]
        finish = table.finish_s[:n]
        dispatch = table.dispatch_s[:n]
        status = table.status[:n]
        owner = table.tenant[:n]
        tenant_stats = []
        all_latencies: List[np.ndarray] = []
        abandoned: List[np.ndarray] = []
        late = 0
        for k, spec in enumerate(self._tenants):
            name = spec.tenant_name
            mine = owner == k
            served_mask = mine & (status == _ST_SERVED)
            latencies = finish[served_mask] - arrival[served_mask]
            all_latencies.append(latencies)
            gone = mine & (status == _ST_TIMED_OUT)
            abandoned.append(finish[gone] - arrival[gone])
            # Late completions were dispatched; IndexQueue.expire
            # abandons queued requests without a dispatch instant.
            late += int(np.count_nonzero(~np.isnan(dispatch[gone])))
            codes = status[mine]
            tenant_stats.append(
                TenantServingStats(
                    name=name,
                    network=spec.network,
                    weight=spec.weight,
                    offered=len(codes),
                    served=len(latencies),
                    shed=int(np.count_nonzero(codes == _ST_SHED)),
                    timed_out=int(np.count_nonzero(gone)),
                    failed=int(np.count_nonzero(codes == _ST_FAILED)),
                    rejected=int(np.count_nonzero(codes == _ST_REJECTED)),
                    latency=LatencyStats.from_latencies(latencies),
                    batch_histogram=dict(run.tenant_hist[name]),
                )
            )
        tracker = run.tracker
        report = ServingReport(
            device=self._spec.name,
            duration_s=horizon,
            makespan_s=makespan,
            offered=sum(t.offered for t in tenant_stats),
            served=sum(t.served for t in tenant_stats),
            shed=sum(t.shed for t in tenant_stats),
            latency=LatencyStats.from_latencies(
                np.concatenate(all_latencies)
            ),
            batch_histogram=merge_histograms(
                [t.batch_histogram for t in tenant_stats]
            ),
            queue_depth_mean=(
                tracker.integral_s / makespan if makespan > 0 else 0.0
            ),
            queue_depth_max=tracker.depth_max,
            cpu_utilization=_utilization(spans.busy_s["cpu"], makespan),
            gpu_utilization=_utilization(spans.busy_s["gpu"], makespan),
            tenants=tuple(tenant_stats),
            seed=self._config.seed,
            timed_out=sum(t.timed_out for t in tenant_stats),
            late=late,
            failed=sum(t.failed for t in tenant_stats),
            rejected=sum(t.rejected for t in tenant_stats),
            abandoned_latency=LatencyStats.from_latencies(
                np.concatenate(abandoned)
            ),
        )
        report.extra["batch_count"] = float(len(batch_log))
        # Each batch starts at its dispatch instant, so this is the
        # kernel trace's device busy time, summed in the same order.
        report.extra["device_busy_s"] = sum(
            (now + total) - now for _, _, now, total, *_ in batch_log
        )
        if self.injector is not None:
            report.extra["fault_events"] = float(len(self.injector.events))
            report.extra["retries"] = float(run.retries)
            report.extra["hybrid_exhaustions"] = float(run.exhaustions)
            report.extra["breaker_opens"] = float(
                self.breaker.stats.opens if self.breaker else 0
            )
            report.extra["degradations"] = float(
                len(self.degradation.records) if self.degradation else 0
            )
        return report


class _ServingRun:
    """One :meth:`ServingSimulator.run`: the state the event loop
    mutates and the engine callbacks that mutate it.

    The request table is the only per-request record of outcomes.  The
    callbacks write each outcome into its status column, with the
    instant the request left in ``finish_s``; the report, the
    per-request metrics and the timeline are derived from it after the
    run, so the loop makes no telemetry calls.
    """

    def __init__(self, sim: ServingSimulator) -> None:
        cfg = self.cfg = sim._config
        obs = self.obs = sim._obs
        self.model = sim._model
        tenants = sim._tenants
        names = sim._names
        self.arrivals = [t.arrival for t in tenants]
        self.networks = {t.tenant_name: t.network for t in tenants}
        # One merged arrival epoch (whole numpy arrays per tenant) and
        # a struct-of-arrays request table sized for it up front.
        self.schedule = ArrivalSchedule(
            [t.arrival.as_arrays() for t in tenants]
        )
        table = self.table = RequestTable(len(self.schedule.times))
        self.queues = [
            IndexQueue(t.tenant_name, t.policy or cfg.policy, table)
            for t in tenants
        ]
        self.index_of = {n: k for k, n in enumerate(names)}
        self.scheduler = WeightedFairScheduler(
            {t.tenant_name: t.weight for t in tenants}
        )
        self.heap = EventHeap()
        # Time-weighted queue-depth accounting.
        self.tracker = DepthTracker()
        #: tenants whose arrival process reacts to completions (closed
        #: loop); open-loop follow-ups are provably no-ops and skipped.
        self.has_followup = [
            type(t.arrival).next_after is not ArrivalProcess.next_after
            for t in tenants
        ]
        # Fully open loop, the static epoch is every arrival and row i
        # is its i-th: the rows are written here, and the callbacks
        # walk them with a cursor instead of appending.
        self.open_loop = not any(self.has_followup)
        self.row = 0
        if self.open_loop:
            table.append_bulk(self.schedule.times, self.schedule.owners)
        # The depth gauge's high-water mark needs every live value, so
        # it is the one metric set in the loop.
        self.depth_gauge = None
        if obs.enabled:
            self.depth_gauge = obs.metrics.gauge(
                "repro_serving_queue_depth",
                "Admitted requests waiting across all tenant queues",
            )

        # -- fault machinery (None when no scenario: zero-cost checks) --------
        faults = self.faults = cfg.faults
        self.injector: Optional[FaultInjector] = None
        self.breaker: Optional[CircuitBreaker] = None
        self.degradation: Optional[DegradationManager] = None
        self.retry = RetryPolicy(seed=cfg.seed)
        if faults is not None:
            self.injector = FaultInjector(faults, seed=cfg.seed, obs=obs)
            self.breaker = CircuitBreaker(
                failure_threshold=3, reset_timeout_s=0.25
            )
            self.degradation = DegradationManager(None, obs=obs)
        #: a malformed payload was offered to a queue (naive service);
        #: until then no batch can hold one
        self.corrupt_queued = False
        #: the active windows, read at each edge by note_windows
        self.thermal = None
        self.pressure = None
        self.next_edge = -math.inf  # windows cannot change before this
        self.demoted_windows: set = set()
        self.retries = 0
        self.exhaustions = 0

        # -- device state ------------------------------------------------------
        self.batch_log: List[BatchLogEntry] = []
        self.tenant_hist: Dict[str, Dict[int, int]] = {n: {} for n in names}
        #: the single batch on the device: (owner, rows, batch_failed,
        #: expiry key of its first row).
        self.in_flight: Optional[Tuple[int, np.ndarray, bool, float]] = None
        self.warmed = {n: not cfg.cold_start for n in names}
        self.armed_timers: Dict[str, float] = {}
        self.dispatch_seq = 0
        self.device_busy = False

    def run(self) -> None:
        """Drive the engine until every event has been processed."""
        # The bulk path is only sound when busy-span arrivals are
        # unobservable one-by-one: no fault injection (fault events and
        # window edges are recorded at arrival instants), no
        # per-request metrics, and fully open-loop tenants (no
        # completion-driven follow-up arrivals).
        use_bulk = (
            self.faults is None and not self.obs.enabled and self.open_loop
        )
        EventEngine(self.schedule, self.heap).run(
            on_arrival=self.on_arrival,
            on_event=self.on_event,
            bulk_ready=self.bulk_ready if use_bulk else None,
            on_arrivals=self.on_arrivals if use_bulk else None,
        )

    def bulk_ready(self) -> bool:
        """Busy-device arrivals can be admitted as one span."""
        return self.device_busy

    def followup(self, owner: int, now: float, n: int = 1) -> None:
        """Closed-loop clients re-arm after each of ``n`` terminal
        outcomes."""
        arrival = self.arrivals[owner]
        for _ in range(n):
            follow = arrival.next_after(now)
            if follow is not None:
                self.schedule.push(follow, owner)

    def note_windows(self, now: float) -> None:
        """Read the active thermal / memory-pressure windows at a window
        edge, and record the edges crossed.

        The active windows change only at a window edge, and event
        time never goes back, so callers skip this below
        ``next_edge``.
        """
        faults = self.faults
        injector = self.injector
        self.next_edge = faults.next_edge_after(now)
        thermal = faults.thermal_at(now)
        start = thermal.start_s if thermal is not None else None
        noted = self.thermal.start_s if self.thermal is not None else None
        if start != noted:
            if noted is not None:
                for w in faults.thermal:
                    if w.start_s == noted:
                        injector.note_thermal_exit(now, w)
            if thermal is not None:
                injector.note_thermal_enter(now, thermal)
        self.thermal = thermal
        pressure = faults.memory_pressure_at(now)
        start = pressure.start_s if pressure is not None else None
        noted = self.pressure.start_s if self.pressure is not None else None
        if start != noted:
            if noted is not None:
                for w in faults.memory_pressure:
                    if w.start_s == noted:
                        injector.note_memory_pressure_exit(now, w)
            if pressure is not None:
                injector.note_memory_pressure_enter(now, pressure)
        self.pressure = pressure

    def expire_queues(self, now: float) -> None:
        """Abandon every queued request past its deadline."""
        tracker = self.tracker
        for k, queue in enumerate(self.queues):
            expired = queue.expire(now)
            if not expired:
                continue
            tracker.remove(expired)
            if self.depth_gauge is not None:
                self.depth_gauge.set(tracker.depth)
            if self.has_followup[k]:
                self.followup(k, now, expired)

    def batch_service(
        self, tenant: str, size: int, now: float
    ) -> Tuple[BatchServiceTime, float, bool]:
        """Pick the service variant for one dispatch under faults.

        Returns (service time, extra pre-service delay from retry
        backoff, batch_failed).
        """
        model = self.model
        network = self.networks[tenant]
        faults = self.faults
        if faults is None:
            return model.warm(network, size), 0.0, False
        injector = self.injector
        degradation = self.degradation
        # note_windows read the active windows at this instant's edge.
        thermal = self.thermal
        factors = thermal.factors if thermal is not None else None
        pressure = self.pressure
        resilient = self.cfg.resilience

        # Memory pressure, naive service: zero-copy allocation
        # fails outright — fail fast, batch lost before any work.
        if pressure is not None and not resilient:
            return BatchServiceTime(0.0, 0.0, 0.0), 0.0, True

        # Execution-mode selection (degraded plan variants).
        no_hybrid = (
            resilient
            and degradation.mode(tenant) == MODE_NO_HYBRID
        )
        demote = pressure is not None and resilient
        if demote:
            wkey = (tenant, pressure.start_s)
            if wkey not in self.demoted_windows:
                self.demoted_windows.add(wkey)
                degradation.note_memory_demotion(tenant, network, now=now)
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
                stale = model.service(
                    network, size, kind=kind, factors=factors,
                )
                predicted = model.service(network, size, kind=kind)
                if degradation.observe_latency(
                    tenant, network, now=now,
                    observed_s=stale.total_s,
                    predicted_s=predicted.total_s,
                ):
                    default_plan_cache().invalidate(
                        model.plan_key(network, size, kind)
                    )
                    retuned = True
        elif factors is None and resilient and degradation.retuned(tenant):
            degradation.clear_drift(tenant, network, now=now)

        svc = model.service(
            network, size, kind=kind, factors=factors, retuned=retuned,
        )

        # Transient hybrid-kernel launch failures.
        hybrid_active = (
            kind in ("normal", "no_zerocopy")
            and faults.kernel_failure_p > 0.0
        )
        if not hybrid_active:
            return svc, 0.0, False
        seq = self.dispatch_seq
        if not resilient:
            failed = injector.kernel_fails(now, detail=f"{tenant}#{seq}")
            # The failure surfaces mid-run: the device time is
            # consumed either way, the responses are lost.
            return svc, 0.0, failed
        breaker = self.breaker
        fallback = "safe" if kind == "no_zerocopy" else "no_hybrid"
        if not breaker.allow(now):
            # Circuit open: skip the hybrid launch entirely and run
            # the safe plan until the breaker half-opens.
            svc = model.service(
                network, size, kind=fallback,
                factors=factors, retuned=retuned,
            )
            return svc, 0.0, False
        retry = self.retry
        delay = 0.0
        for attempt in range(retry.max_attempts):
            fails = injector.kernel_fails(
                now, detail=f"{tenant}#{seq}:a{attempt}"
            )
            if not fails:
                breaker.record_success(now)
                if attempt > 0 and self.obs.enabled:
                    self.obs.metrics.counter(
                        "repro_resilience_retries_total",
                        "Hybrid-kernel launch retries",
                        labels=("tenant",),
                    ).labels(tenant=tenant).inc(attempt)
                self.retries += attempt
                return svc, delay, False
            if attempt < retry.max_attempts - 1:
                delay += retry.delay(attempt, token=seq)
        # All attempts failed: trip the breaker, fall back to the
        # safe non-hybrid plan (responses still produced, slower).
        self.retries += retry.max_attempts - 1
        self.exhaustions += 1
        breaker.record_failure(now)
        degradation.note_hybrid_exhausted(tenant, network, now=now)
        svc = model.service(
            network, size, kind=fallback, factors=factors, retuned=retuned,
        )
        return svc, delay, False

    def maybe_dispatch(self, now: float) -> None:
        """Start batches until the device is busy or none is ready."""
        queues = self.queues
        table = self.table
        tracker = self.tracker
        while not self.device_busy:
            self.expire_queues(now)
            chosen = self.scheduler.pick(
                [q.name for q in queues if q.ready(now)]
            )
            if chosen is None:
                # Nothing dispatchable yet: arm a wait-expiry timer
                # per tenant still accumulating a batch.
                armed = self.armed_timers
                for queue in queues:
                    deadline = queue.wait_deadline_s()
                    if deadline is None or armed.get(queue.name) == deadline:
                        continue
                    armed[queue.name] = deadline
                    self.heap.push(max(deadline, now), _TIMER, queue.name)
                return
            owner = self.index_of[chosen]
            queue = queues[owner]
            first_key = queue.head_key_s
            rows = queue.take_batch(now)
            size = len(rows)
            tracker.remove(size)
            self.dispatch_seq += 1
            warm = self.warmed[chosen]
            if warm:
                svc, delay, failed = self.batch_service(chosen, size, now)
            else:
                svc = self.model.cold(self.networks[chosen], size)
                delay, failed = 0.0, False
                self.warmed[chosen] = True
            hist = self.tenant_hist[chosen]
            hist[size] = hist.get(size, 0) + 1
            if self.corrupt_queued and table.corrupt[rows].any():
                # A malformed payload in the batch kills the whole
                # launch (the naive service admitted it unchecked);
                # the device time is still consumed.
                failed = True
            if failed and svc.total_s == 0.0 and delay == 0.0:
                # Fail-fast path (allocation failure): the batch is
                # lost before consuming any device time.
                table.status[rows] = _ST_FAILED
                table.finish_s[rows] = now
                if self.has_followup[owner]:
                    self.followup(owner, now, size)
                continue
            self.device_busy = True
            total = delay + svc.total_s
            self.scheduler.charge(chosen, total)
            end = now + total
            self.batch_log.append((
                chosen, size, now, total, delay,
                svc.cpu_busy_s, svc.gpu_busy_s, svc.energy_j,
            ))
            if self.obs.enabled:
                self.obs.tracer.record(
                    f"{chosen}:batch(n={size})", now, end,
                    category="batch", tenant=chosen, size=size,
                    mode="warm" if warm else "cold",
                )
                self.depth_gauge.set(tracker.depth)
            self.in_flight = (owner, rows, failed, first_key)
            self.heap.push(end, _COMPLETION, chosen)
            return

    def on_arrival(self, now: float, owner: int) -> None:
        """Exact per-arrival path (the legacy scalar semantics)."""
        tracker = self.tracker
        tracker.advance(now)
        faults = self.faults
        if faults is not None and now >= self.next_edge:
            self.note_windows(now)
        queue = self.queues[owner]
        table = self.table
        if self.open_loop:
            idx = self.row
            self.row = idx + 1
        else:
            idx = table.append(now, owner)
        # Each row draws once, in row order: its draw index in the
        # payload stream is its row index.
        corrupt = faults is not None and self.injector.payload_corrupt(
            now, request_id=idx
        )
        head_moved = False
        if corrupt and self.cfg.resilience:
            # Request validation catches the malformed payload at the
            # door: reject, don't queue.
            queue.reject(idx, now)
            self.followup(owner, now)
        else:
            if corrupt:
                table.corrupt[idx] = True
                self.corrupt_queued = True
            if queue.offer(idx, now):
                tracker.admit()
                if self.depth_gauge is not None:
                    self.depth_gauge.set(tracker.depth)
                head_moved = len(queue) == 1
            else:
                # Shed: the client sees an immediate rejection; a
                # closed-loop client thinks, then retries.
                self.followup(owner, now)
        if self.device_busy:
            return
        # The last poll found nothing to dispatch and armed a timer for
        # every head.  Unless this arrival gave its queue a new head,
        # polling again acts only if some queue has come due.
        if not head_moved and not any(q.due(now) for q in self.queues):
            return
        self.maybe_dispatch(now)

    def on_arrivals(self, times: np.ndarray, owners: np.ndarray) -> None:
        """Bulk admission: a whole busy-device arrival span at once.

        Only reachable when the device is busy, no faults are
        active, per-request metrics are off, and every tenant is
        open loop — conditions under which the scalar path reduces
        to admit-or-shed plus depth accounting, all vectorizable.
        """
        table = self.table
        start = self.row
        total = len(times)
        self.row = start + total
        queues = self.queues
        if len(queues) == 1:
            # Single tenant: the span is one FIFO fill — slice
            # writes only, no index gathers.
            queue = queues[0]
            room = queue.policy.max_queue_depth - len(queue)
            take_n = min(total, room) if room > 0 else 0
            if take_n:
                queue.admit_span(start, take_n, times[:take_n])
            if take_n < total:
                table.status[start + take_n:start + total] = _ST_SHED
                table.finish_s[start + take_n:start + total] = (
                    times[take_n:]
                )
            self.tracker.advance_span(times, take_n)
            return
        admitted = np.zeros(total, dtype=np.int64)
        for k, queue in enumerate(queues):
            pos = np.nonzero(owners == k)[0]
            if not len(pos):
                continue
            room = max(queue.policy.max_queue_depth - len(queue), 0)
            take = pos[:room]
            over = pos[room:]
            if len(take):
                queue.admit_bulk(start + take, times[take])
                admitted[take] = 1
            if len(over):
                shed_rows = start + over
                table.status[shed_rows] = _ST_SHED
                table.finish_s[shed_rows] = times[over]
        self.tracker.advance_bulk(times, admitted)

    def on_event(self, now: float, kind: int, payload: object) -> None:
        """A batch completion or a wait-expiry timer."""
        self.tracker.advance(now)
        if self.faults is not None and now >= self.next_edge:
            self.note_windows(now)
        if kind == _COMPLETION:
            self.complete(now)
        else:  # _TIMER
            self.armed_timers.pop(payload, None)
        self.maybe_dispatch(now)

    def complete(self, now: float) -> None:
        """Settle the batch on the device: failed, or each request
        served or late."""
        owner, rows, batch_failed, first_key = self.in_flight
        self.in_flight = None
        self.device_busy = False
        table = self.table
        table.finish_s[rows] = now
        if batch_failed:
            table.status[rows] = _ST_FAILED
        else:
            table.status[rows] = _ST_SERVED
            # Deadlines rise along the batch, so none has passed while
            # its first row's has not (no deadlines: first_key is inf).
            if now > first_key:
                # Completed, but past deadline: the client already gave
                # up — late, useless responses.
                late = rows[now > table.deadline_s[rows] + EPS]
                table.status[late] = _ST_TIMED_OUT
        if self.has_followup[owner]:
            self.followup(owner, now, len(rows))


#: status code -> ``outcome`` label of ``repro_serving_requests_total``.
_OUTCOMES = (
    (_ST_SERVED, "served"),
    (_ST_SHED, "shed"),
    (_ST_TIMED_OUT, "timed_out"),
    (_ST_FAILED, "failed"),
    (_ST_REJECTED, "rejected"),
)


def _record_request_metrics(
    metrics, rows: RequestRows, tenant: np.ndarray, names: Sequence[str],
    batch_log: List[BatchLogEntry],
) -> None:
    """Fill the per-request and per-batch series of a finished run from
    its request rows, their tenant column and the batch log."""
    requests_total = metrics.counter(
        "repro_serving_requests_total",
        "Requests by tenant and outcome",
        labels=("tenant", "outcome"),
    )
    latency_hist = metrics.histogram(
        "repro_serving_request_latency_seconds",
        "End-to-end served-request latency",
        labels=("tenant",), buckets=DEFAULT_BUCKETS,
    )
    batches_total = metrics.counter(
        "repro_serving_batches_total",
        "Batches dispatched per tenant", labels=("tenant",),
    )
    batch_size_hist = metrics.histogram(
        "repro_serving_batch_size",
        "Dispatched batch sizes", buckets=SIZE_BUCKETS,
    )
    status = rows.status
    owner = tenant[:len(status)]
    for k, name in enumerate(names):
        mine = status[owner == k]
        for code, outcome in _OUTCOMES:
            count = int(np.count_nonzero(mine == code))
            if count:
                requests_total.labels(tenant=name, outcome=outcome).inc(count)
    # Served rows in completion order, so each histogram adds its
    # observations in the order the requests finished.
    served = rows.served
    latencies = (rows.finish_s[served] - rows.arrival_s[served]).tolist()
    for k, latency in zip(owner[served].tolist(), latencies):
        latency_hist.labels(tenant=names[k]).observe(latency)
    # Fail-fast batches never reached the device, so the batch log
    # (and these series) count dispatched batches only.
    for tenant, size, *_ in batch_log:
        batches_total.labels(tenant=tenant).inc()
        batch_size_hist.observe(size)


def _batch_spans(batch_log: List[BatchLogEntry]) -> BatchSpans:
    """The timeline's view of a batch log (fail-fast batches never
    reached the device, so the log holds dispatched batches only)."""
    cols = np.array(
        [entry[1:] for entry in batch_log], dtype=np.float64
    ).reshape(-1, 7)
    size, start, total, _, cpu_s, gpu_s, energy_j = cols.T
    return BatchSpans(
        start_s=start,
        end_s=start + total,
        size=size,
        energy_j=energy_j,
        busy_s={"cpu": cpu_s, "gpu": gpu_s},
    )


def _utilization(busy_s: np.ndarray, makespan_s: float) -> float:
    """Busy share of the makespan, capped at 1.  ``busy_s`` is a
    batch-log column, added left to right in dispatch order like a
    running total."""
    if makespan_s <= 0 or not len(busy_s):
        return 0.0
    return min(1.0, float(np.cumsum(busy_s)[-1]) / makespan_s)


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
