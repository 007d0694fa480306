"""Fleet-scale discrete-event simulator on the shared virtual clock.

Where :mod:`repro.serving.simulator` models one device behind a
batcher, this loop models *hundreds to thousands* of them behind a
routing tier: open-loop request streams (one per
:class:`ClusterTenant`) are merged into a single time-ordered arrival
sequence, each arrival is routed to a replica of its model's pool by
the configured :class:`~repro.cluster.router.Router`, and each replica
runs continuous batching — whenever its device is free and its queue
non-empty it dispatches up to ``max_batch_size`` requests as one batch
whose service time (and energy) comes from the replica's compiled
plan via the shared :class:`~repro.serving.simulator.ServiceTimeModel`.

Scale decisions, all in service of ≥10^6 requests × ≥500 replicas in
one process:

- requests are plain float arrival timestamps, not objects; per-tenant
  arrival arrays are pre-generated with numpy and merged with a stable
  argsort, so the event loop's heap holds only batch completions and
  routing is the only per-request Python work;
- replicas use *continuous batching*: a batch dispatches the moment the
  device frees up (``max_wait_s`` is treated as 0 — at fleet arrival
  rates queues are never starved long enough for wait timers to matter),
  which removes timer events entirely;
- deadline bookkeeping mirrors serving's semantics: requests whose
  deadline passed while queued are abandoned at dispatch (``timed_out``),
  and completions past deadline count as ``timed_out`` + ``late``;
- outcomes are not counted in the loop: it logs a replica per arrival
  and a record per dispatch, and the per-request rows, the report and
  the timeline are rebuilt from those logs after the run.

Faults: a :class:`~repro.faults.FaultScenario` applies to a
deterministic ``fault_share`` subset of replicas, each with its own
seeded :class:`~repro.faults.FaultInjector` stream and its own window
phase (``fault_stagger_s``), so thermal throttling rolls across the
fleet instead of hitting every device at once — exactly the situation
where device-aware routing pays off.

Determinism: same (tenants, mix, config, seed) reproduces a
bit-identical :class:`~repro.cluster.report.ClusterReport` digest in
any process; the CI gate compares digests across fresh interpreters.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.engine import EdgeNNConfig
from ..core.plan_cache import default_plan_cache
from ..errors import ReproError
from ..faults import FaultScenario
from ..nn.precision import Precision
from ..obs import NOOP_OBS, Observability
from ..obs.timeline import BatchSpans, TimelineArtifact, TimelineRecorder
from ..serving.batcher import BatchPolicy
from ..serving.report import LatencyStats
from ..sim.engine import (
    FAILED,
    SERVED,
    SHED,
    TIMED_OUT,
    ArrivalSchedule,
    EventEngine,
    EventHeap,
    RequestRows,
)
from ..sim.engine.queue import EPS
from ..sim.trace import Trace, TraceEvent
from ..workloads.arrivals import ArrivalProcess, ClosedLoopArrivals
from .autoscaler import Autoscaler, AutoscalerPolicy
from .fleet import DeviceMix, Fleet, Pool, Replica, base_device_name
from .report import (
    ClusterReport,
    PoolStats,
    ReplicaStats,
    utilization_histogram,
)
from .router import LATENCY, Router, make_router

#: the fleet heap's only event kind — batch completions (continuous
#: batching has no wait timers; arrivals live in the merged epoch).
_COMPLETION = 1


@dataclass(frozen=True)
class ClusterTenant:
    """One model's request stream entering the routing tier."""

    network: str
    arrival: ArrivalProcess
    name: Optional[str] = None       # defaults to the network name

    @property
    def tenant_name(self) -> str:
        return self.name if self.name is not None else self.network

    def __post_init__(self) -> None:
        if isinstance(self.arrival, ClosedLoopArrivals):
            raise ReproError(
                "cluster tenants must be open-loop: closed-loop clients "
                "couple arrivals to completions, which the merged-array "
                "fleet loop does not model"
            )


@dataclass(frozen=True)
class ClusterConfig:
    """Run-wide fleet knobs."""

    router: str = "plan_cost"
    policy: BatchPolicy = field(
        default_factory=lambda: BatchPolicy(max_wait_s=0.0)
    )
    precision: Precision = Precision.FP32
    engine: Optional[EdgeNNConfig] = None
    seed: int = 0
    #: plan_cost objective: "latency" or "energy".
    objective: str = LATENCY
    #: plan_cost tenant stickiness: reuse a tenant's previous replica
    #: while its cost is within this relative slack of the optimum.
    affinity_slack: float = 0.0
    #: autoscaler policy (None: the fleet size is fixed).
    autoscaler: Optional[AutoscalerPolicy] = None
    #: fault scenario applied to ``fault_share`` of replicas.
    faults: Optional[FaultScenario] = None
    fault_share: float = 0.25
    #: max per-replica phase offset for fault windows (rolling faults).
    fault_stagger_s: float = 0.0
    #: timeline window width in virtual seconds (0: recording off).
    #: When on, the run exposes a digest-stable
    #: :class:`~repro.obs.timeline.TimelineArtifact` on the simulator.
    timeline_window_s: float = 0.0


class _FleetLog:
    """What the fleet loop writes, and the per-request rows rebuilt
    from it after the run.

    The loop logs one replica index per arrival (-1 when shed) and one
    record per :meth:`ClusterSimulator._try_dispatch` call that pops
    anything: replica, instant, service total, energy and batch size (0
    when the call only abandoned requests).  Abandoned counts and failed
    dispatches are rare, so they are side records keyed by dispatch
    index.  Typed arrays keep a record at 32 bytes.
    """

    __slots__ = (
        "arrival_replica", "replica", "start_s", "total_s", "energy_j",
        "size", "abandoned", "failed",
    )

    def __init__(self) -> None:
        self.arrival_replica = array("i")
        self.replica = array("i")
        self.start_s = array("d")
        self.total_s = array("d")
        self.energy_j = array("d")
        self.size = array("i")
        #: (dispatch index, requests it abandoned in queue)
        self.abandoned: List[Tuple[int, int]] = []
        #: indices of the dispatches whose batch failed
        self.failed = array("i")

    def rows(
        self, arrival_s: np.ndarray, deadline_s: Optional[float]
    ) -> RequestRows:
        """Rebuild the per-request rows of the run.

        Each replica serves its queue in FIFO order, so a stable sort of
        the arrival log lists each replica's arrivals in the order its
        dispatches popped them.  Taken replica by replica, in log order,
        the dispatches pop consecutive runs of that list: first the
        abandoned prefix, then the batch.  Temporaries are freed as soon
        as they are used: this runs at the run's peak memory.
        """
        n = len(arrival_s)
        owner = np.frombuffer(self.arrival_replica, dtype=np.int32)
        fifo = np.argsort(owner, kind="stable").astype(np.int32)
        shed = fifo[:np.count_nonzero(owner < 0)]
        take = np.frombuffer(self.size, dtype=np.int32).copy()
        for index, count in self.abandoned:
            take[index] += count
        by_replica = np.argsort(
            np.frombuffer(self.replica, dtype=np.int32), kind="stable"
        ).astype(np.int32)
        runs = take[by_replica]
        # The dispatch that popped each request; shed ones point past
        # the log, at a NaN sentinel.
        popped_by = np.full(n, len(take), dtype=np.int32)
        popped_by[fifo[len(shed):]] = np.repeat(by_replica, runs)
        first = np.empty(len(take), dtype=np.int64)
        first[by_replica] = len(shed) + np.cumsum(runs) - runs
        abandoned = [
            (index, fifo[first[index]:first[index] + count])
            for index, count in self.abandoned
        ]
        del by_replica, runs, take, first

        # Completion order of the dispatches: by end instant, ties in
        # dispatch (heap push) order.
        end = np.append(self.start_s, np.nan)
        end += np.append(self.total_s, np.nan)
        rank = np.empty(len(end), dtype=np.int32)
        rank[np.argsort(end, kind="stable")] = np.arange(
            len(end), dtype=np.int32
        )
        finish = end[popped_by]
        del end
        status = np.full(n, SERVED, dtype=np.int8)
        failed = np.zeros(len(rank), dtype=bool)
        failed[np.frombuffer(self.failed, dtype=np.int32)] = True
        status[failed[popped_by]] = FAILED
        del failed
        if deadline_s is not None:
            limit = arrival_s + deadline_s
            limit += EPS
            status[(finish > limit) & (status == SERVED)] = TIMED_OUT
            del limit
        start = np.append(self.start_s, np.nan)
        dispatch = start[popped_by]
        status[shed] = SHED
        finish[shed] = arrival_s[shed]
        for index, gone in abandoned:
            status[gone] = TIMED_OUT
            finish[gone] = start[index]
            dispatch[gone] = np.nan
        del start, abandoned, fifo, shed

        # Served rows in completion order; within a batch, FIFO order
        # is row order.
        served = np.flatnonzero(status == SERVED).astype(np.int32)
        key = rank[popped_by[served]]
        del popped_by, rank
        served = served[np.argsort(key, kind="stable")]
        return RequestRows(arrival_s, finish, dispatch, status, served)

    def batch_spans(self, classes: Dict[int, str]) -> BatchSpans:
        """The dispatched batches, each busy on its replica's device
        class (``classes`` maps replica index to class) for its whole
        service time."""
        size = np.frombuffer(self.size, dtype=np.int32)
        sent = size > 0
        start = np.frombuffer(self.start_s, dtype=np.float64)[sent]
        total = np.frombuffer(self.total_s, dtype=np.float64)[sent]
        replica = np.frombuffer(self.replica, dtype=np.int32)[sent]
        busy: Dict[str, np.ndarray] = {}
        for idx, name in classes.items():
            lane = busy.setdefault(name, np.zeros(len(total)))
            mine = replica == idx
            lane[mine] = total[mine]
        return BatchSpans(
            start_s=start,
            end_s=start + total,
            size=size[sent],
            energy_j=np.frombuffer(self.energy_j, dtype=np.float64)[sent],
            busy_s=busy,
        )


class ClusterSimulator:
    """Discrete-event loop over a fleet of replicas and a router tier."""

    def __init__(
        self,
        tenants: Sequence[ClusterTenant],
        mix: DeviceMix,
        replicas_per_pool: int,
        config: Optional[ClusterConfig] = None,
        *,
        obs: Optional[Observability] = None,
    ) -> None:
        if not tenants:
            raise ReproError("a cluster run needs at least one tenant")
        names = [t.tenant_name for t in tenants]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate tenant names: {names}")
        self._tenants = tuple(tenants)
        self._config = config or ClusterConfig()
        self._obs = obs if obs is not None else NOOP_OBS
        cfg = self._config
        networks: List[str] = []
        for tenant in tenants:
            if tenant.network not in networks:
                networks.append(tenant.network)
        self.fleet = Fleet(
            mix,
            [(network, replicas_per_pool) for network in networks],
            policy=cfg.policy,
            precision=cfg.precision,
            engine=cfg.engine,
            seed=cfg.seed,
            faults=cfg.faults,
            fault_share=cfg.fault_share,
            fault_stagger_s=cfg.fault_stagger_s,
            obs=self._obs,
        )
        self._pools: Dict[str, Pool] = {
            pool.name: pool for pool in self.fleet.pools
        }
        self.routers: Dict[str, Router] = {
            pool.name: make_router(
                cfg.router,
                pool,
                objective=cfg.objective,
                affinity_slack=cfg.affinity_slack,
            )
            for pool in self.fleet.pools
        }
        self.autoscaler: Optional[Autoscaler] = (
            Autoscaler(self.fleet, cfg.autoscaler, self._obs)
            if cfg.autoscaler is not None
            else None
        )
        #: windowed telemetry of the last run (None unless
        #: ``config.timeline_window_s`` > 0).
        self.timeline: Optional[TimelineArtifact] = None
        #: fleet batch-slice trace of the last run (None unless the
        #: observability bundle is enabled) — feeds the Perfetto export.
        self.trace: Optional[Trace] = None
        #: per-request rows of the last run (None before one).
        self._rows: Optional[RequestRows] = None
        # The log the loop writes during run(), rebuilt into rows after.
        self._log = _FleetLog()

    def _horizon_s(self) -> float:
        return max(
            float(getattr(t.arrival, "duration_s", 0.0))
            for t in self._tenants
        )

    # -- service selection under faults ----------------------------------

    def _batch_service(self, replica: Replica, size: int, now: float):
        """Service time for one batch, with this replica's faults applied.

        Thermal windows run the *stale* nominal plan at throttled rates
        (the naive-device behavior — fleet-level resilience is routing
        around the slow replica, not re-tuning it); memory pressure
        demotes to the no-zero-copy plan variant; kernel failures lose
        the batch after its device time is consumed, mirroring serving.
        Returns (service, failed).
        """
        injector = replica.injector
        if injector is None:
            return replica.model.warm(replica.network, size), False
        factors = injector.throttle_at(now)
        kind = "no_zerocopy" if injector.memory_pressure_at(now) else "normal"
        svc = replica.model.service(
            replica.network, size, kind=kind, factors=factors
        )
        failed = False
        base_cfg = getattr(replica.model, "base_config", None)
        hybrid = base_cfg.use_hybrid_execution if base_cfg else True
        if hybrid and injector.scenario.kernel_failure_p > 0.0:
            failed = injector.kernel_fails(
                now, detail=f"{replica.name}#{replica.batches}"
            )
        return svc, failed

    # -- replica state transitions ----------------------------------------

    def _try_dispatch(
        self,
        replica: Replica,
        pool: Pool,
        now: float,
        heap: EventHeap,
    ) -> None:
        """Dispatch one batch if the device is free."""
        queue = replica.queue
        if replica.busy_until > now + EPS or not queue:
            return
        log = self._log
        scaler = self.autoscaler
        deadline = pool.policy.deadline_s
        if deadline is not None and now > (queue[0] + deadline) + EPS:
            # Abandoned in queue: the client gave up before we got to
            # it — device time is not spent on it.  Arrivals are FIFO
            # under one deadline offset, so the expired ones are a
            # prefix.
            abandoned = 0
            while queue and now > (queue[0] + deadline) + EPS:
                queue.popleft()
                abandoned += 1
            log.abandoned.append((len(log.size), abandoned))
            if scaler is not None:
                for _ in range(abandoned):
                    scaler.observe_miss(pool)
        replica.version += 1
        size = min(len(queue), pool.policy.max_batch_size)
        log.replica.append(replica.idx)
        log.start_s.append(now)
        log.size.append(size)
        if not size:
            log.total_s.append(0.0)
            log.energy_j.append(0.0)
            return
        # The autoscaler needs the arrivals back at completion, to count
        # late responses; otherwise nothing per request is kept.
        batch: Optional[Tuple[float, ...]] = None
        if scaler is not None:
            batch = tuple(queue.popleft() for _ in range(size))
        elif size == len(queue):
            queue.clear()
        else:
            for _ in range(size):
                queue.popleft()
        svc, failed = self._batch_service(replica, size, now)
        log.total_s.append(svc.total_s)
        log.energy_j.append(svc.energy_j)
        if failed:
            log.failed.append(len(log.size) - 1)
        end = now + svc.total_s
        replica.busy_until = end
        replica.busy_s += svc.total_s
        replica.energy_j += svc.energy_j
        replica.batches += 1
        pool.batch_histogram[size] = pool.batch_histogram.get(size, 0) + 1
        if self.trace is not None:
            self.trace.add(TraceEvent(
                resource=replica.name,
                label=f"{pool.name}:batch(n={size})",
                start_s=now,
                end_s=end,
                category="batch",
            ))
        heap.push(end, _COMPLETION, (replica, batch, failed))

    def _retire_if_drained(self, replica: Replica, now: float) -> None:
        if (
            replica.draining
            and replica.active
            and not replica.queue
            and replica.busy_until <= now + EPS
        ):
            replica.active = False
            replica.retired_s = now
            replica.version += 1

    # -- the event loop ---------------------------------------------------

    def run(self) -> ClusterReport:
        cfg = self._config
        cache = default_plan_cache()
        cache_before = cache.stats()
        self.timeline = None
        self._rows = None
        log = self._log = _FleetLog()
        self.trace = Trace() if self._obs.enabled else None
        # The shared event core merges all tenants' arrival epochs
        # (concatenate, then a stable argsort if out of order; the same
        # path serving uses) and drives the completion heap and
        # autoscaler ticks.
        schedule = ArrivalSchedule(
            [t.arrival.as_arrays() for t in self._tenants]
        )
        heap = EventHeap()
        engine = EventEngine(schedule, heap)
        served_by = log.arrival_replica
        pools_of_tenant: List[Pool] = [
            self._pools[t.network] for t in self._tenants
        ]
        tenant_names: List[str] = [t.tenant_name for t in self._tenants]
        scaler = self.autoscaler
        tick_interval = (
            cfg.autoscaler.interval_s if cfg.autoscaler is not None else 0.0
        )
        next_tick_at = tick_interval if scaler is not None else float("inf")
        peak = self.fleet.replica_count()
        pool_peak = {
            pool.name: len(pool.replicas) for pool in self.fleet.pools
        }

        def on_tick(now: float) -> None:
            # Autoscaler ticks interleave with real events on the same
            # clock; a tick fires before any event at a later instant.
            nonlocal next_tick_at, peak
            added = scaler.tick(now)
            for replica in added:
                self.routers[replica.pool_name].on_replica_added(replica)
            for pool in self.fleet.pools:
                for replica in pool.replicas:
                    self._retire_if_drained(replica, now)
            peak = max(
                peak,
                sum(
                    1 for p in self.fleet.pools
                    for r in p.replicas if r.active
                ),
            )
            for pool in self.fleet.pools:
                pool_peak[pool.name] = max(
                    pool_peak[pool.name],
                    sum(1 for r in pool.replicas if r.active),
                )
            next_tick_at += tick_interval

        def on_arrival(now: float, tenant_index: int) -> None:
            pool = pools_of_tenant[tenant_index]
            router = self.routers[pool.name]
            replica = router.choose(now, tenant_names[tenant_index])
            if (
                replica is None
                or replica.depth >= pool.policy.max_queue_depth
            ):
                # Admission control: the routing tier sheds what the
                # chosen backend cannot queue — same accounting as
                # the single-device service's bounded queues.
                served_by.append(-1)
                return
            served_by.append(replica.idx)
            replica.queue.append(now)
            replica.version += 1
            if scaler is not None:
                scaler.observe_admit(pool, replica.depth)
            self._try_dispatch(replica, pool, now, heap)
            router.note(replica, now)

        def on_event(now: float, kind: int, payload: object) -> None:
            replica, batch, failed = payload
            pool = self._pools[replica.pool_name]
            deadline = pool.policy.deadline_s
            if batch is not None and not failed and deadline is not None:
                # Completed, but past deadline: a late response, which
                # the autoscaler counts as a miss.
                for arrival in batch:
                    if now > (arrival + deadline) + EPS:
                        scaler.observe_miss(pool)
            replica.version += 1
            self._try_dispatch(replica, pool, now, heap)
            self._retire_if_drained(replica, now)
            self.routers[pool.name].note(replica, now)

        engine.run(
            on_arrival=on_arrival,
            on_event=on_event,
            next_tick=(
                (lambda: next_tick_at) if scaler is not None else None
            ),
            on_tick=on_tick if scaler is not None else None,
        )

        horizon = self._horizon_s()
        makespan = max(horizon, *(
            [r.busy_until for p in self.fleet.pools for r in p.replicas]
            or [0.0]
        ))
        rows = self._rows = log.rows(
            schedule.times, self.fleet.policy.deadline_s
        )
        if cfg.timeline_window_s > 0.0:
            recorder = TimelineRecorder(
                cfg.timeline_window_s,
                source=f"cluster:{cfg.router}",
                meta={
                    "seed": str(cfg.seed),
                    "tenants": ",".join(sorted(tenant_names)),
                },
            )
            self.timeline = recorder.finish(
                rows,
                log.batch_spans({
                    r.idx: base_device_name(r.spec.name)
                    for p in self.fleet.pools for r in p.replicas
                }),
                horizon_s=horizon,
                makespan_s=makespan,
                capacity={
                    name: float(count)
                    for name, count in self.fleet.device_counts().items()
                },
            )
        # Free the dispatch log before the report's temporaries.
        self._log = _FleetLog()
        del log
        cache_delta = cache.stats().delta(cache_before)
        return self._build_report(
            rows, schedule.owners, np.frombuffer(served_by, dtype=np.int32),
            makespan, horizon, peak, pool_peak, cache_delta,
        )

    # -- report assembly --------------------------------------------------

    def _build_report(
        self, rows, tenant, routed_to, makespan, horizon, peak, pool_peak,
        cache_delta,
    ) -> ClusterReport:
        """Assemble the report; every outcome count and latency sample
        comes from the rows, with each request's ``tenant`` index and
        the index of the replica it was ``routed_to`` (-1: shed)."""
        cfg = self._config
        pools = self.fleet.pools
        index = {pool.name: k for k, pool in enumerate(pools)}
        pool_of = np.array(
            [index[t.network] for t in self._tenants], dtype=np.int32
        )[tenant]
        status = rows.status
        late = (status == TIMED_OUT) & ~np.isnan(rows.dispatch_s)
        size = max(r.idx for p in pools for r in p.replicas) + 1
        served_at = np.bincount(routed_to[status == SERVED], minlength=size)
        failed_at = np.bincount(routed_to[status == FAILED], minlength=size)
        # Served latencies pool by pool, each in completion order.
        served_pool = pool_of[rows.served]
        ends = np.cumsum(np.bincount(served_pool, minlength=len(pools)))
        by_pool = rows.served[np.argsort(served_pool, kind="stable")]
        del served_pool
        latencies = rows.finish_s[by_pool] - rows.arrival_s[by_pool]
        del by_pool
        pool_stats: List[PoolStats] = []
        replica_stats: List[ReplicaStats] = []
        by_device: Dict[str, List[float]] = {}
        for k, pool in enumerate(pools):
            mine = pool_of == k
            codes = np.bincount(status[mine], minlength=FAILED + 1)
            served = int(codes[SERVED])
            pool_stats.append(
                PoolStats(
                    name=pool.name,
                    network=pool.network,
                    replicas_start=pool.replicas_start,
                    replicas_end=sum(
                        1 for r in pool.replicas if r.active
                    ),
                    replicas_peak=pool_peak[pool.name],
                    offered=int(np.count_nonzero(mine)),
                    served=served,
                    shed=int(codes[SHED]),
                    timed_out=int(codes[TIMED_OUT]),
                    late=int(np.count_nonzero(late & mine)),
                    failed=int(codes[FAILED]),
                    latency=LatencyStats.from_latencies(
                        latencies[ends[k] - served:ends[k]]
                    ),
                    batch_histogram=dict(pool.batch_histogram),
                    energy_j=pool.energy_j,
                    scale_ups=pool.scale_ups,
                    scale_downs=pool.scale_downs,
                )
            )
            for replica in pool.replicas:
                base = base_device_name(replica.spec.name)
                utilization = replica.utilization(makespan)
                by_device.setdefault(base, []).append(utilization)
                replica_stats.append(
                    ReplicaStats(
                        name=replica.name,
                        device=replica.spec.name,
                        served=int(served_at[replica.idx]),
                        failed=int(failed_at[replica.idx]),
                        batches=replica.batches,
                        busy_s=replica.busy_s,
                        energy_j=replica.energy_j,
                        utilization=utilization,
                        created_s=replica.created_s,
                        retired_s=(
                            replica.retired_s
                            if replica.retired_s is not None
                            else -1.0
                        ),
                    )
                )
        report = ClusterReport(
            router=cfg.router,
            mix=self.fleet.mix.describe(),
            duration_s=horizon,
            makespan_s=makespan,
            offered=sum(p.offered for p in pool_stats),
            served=sum(p.served for p in pool_stats),
            shed=sum(p.shed for p in pool_stats),
            timed_out=sum(p.timed_out for p in pool_stats),
            late=sum(p.late for p in pool_stats),
            failed=sum(p.failed for p in pool_stats),
            latency=LatencyStats.from_latencies(latencies),
            energy_j=sum(p.energy_j for p in pool_stats),
            replicas_start=sum(p.replicas_start for p in pool_stats),
            replicas_end=sum(p.replicas_end for p in pool_stats),
            replicas_peak=peak,
            device_utilization={
                name: utilization_histogram(us)
                for name, us in by_device.items()
            },
            device_utilization_mean={
                name: sum(us) / len(us) for name, us in by_device.items()
            },
            pools=tuple(pool_stats),
            replicas=tuple(replica_stats),
            scaling_events=sum(
                p.scale_ups + p.scale_downs for p in pool_stats
            ),
            seed=cfg.seed,
        )
        report.extra["plan_cache_hits"] = float(cache_delta.hits)
        report.extra["plan_cache_misses"] = float(cache_delta.misses)
        return report


def simulate_cluster(
    tenants: Sequence[ClusterTenant],
    mix: DeviceMix,
    replicas_per_pool: int,
    config: Optional[ClusterConfig] = None,
    *,
    obs: Optional[Observability] = None,
) -> ClusterReport:
    """Run one fleet simulation and return its report."""
    return ClusterSimulator(
        tenants, mix, replicas_per_pool, config, obs=obs
    ).run()


__all__ = [
    "ClusterConfig",
    "ClusterSimulator",
    "ClusterTenant",
    "simulate_cluster",
]
