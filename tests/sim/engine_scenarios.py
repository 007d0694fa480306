"""Shared scenario matrix pinning the event-engine refactor.

Each scenario builds a simulator through the *public* entry points
(:data:`BUILDERS`); :data:`SCENARIOS` runs it and returns the digests
the golden file records: the report digest, and the timeline digest
when the scenario records one.  The golden file
(``tests/golden/engine_parity.json``) was generated from the
pre-refactor per-request event loops; the vectorized engine must
reproduce every digest bit-for-bit.

Scenarios deliberately cover every structurally distinct code path:
the saturated knee (bulk admission under a busy device), deadlines
and shed, multi-tenant weighted fair share, fault injection with
resilience on and off, closed-loop tenants (dynamic arrivals), an
observability-enabled run, and cluster routing/autoscaling/flash
crowds over the merged-arrival loop.
"""

from typing import Callable, Dict, Optional, Tuple, Union

from repro.cluster import (
    AutoscalerPolicy,
    ClusterConfig,
    ClusterSimulator,
    ClusterTenant,
    DeviceMix,
)
from repro.faults import load_scenario, scale_to_horizon
from repro.serving.batcher import BatchPolicy
from repro.serving.simulator import (
    ServingConfig,
    ServingSimulator,
    TenantSpec,
    poisson_tenant,
)
from repro.workloads.arrivals import (
    ClosedLoopArrivals,
    DiurnalPoissonArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
)

#: scenario name -> zero-arg callable returning
#: (report_digest, timeline_digest_or_None)
ScenarioFn = Callable[[], Tuple[str, Optional[str]]]
Simulator = Union[ServingSimulator, ClusterSimulator]


def serving_knee() -> Simulator:
    """Overloaded single tenant: bulk admission, sheds, full batches."""
    sim = ServingSimulator(
        None,
        [poisson_tenant("lenet", 400.0, 2.0, seed=7)],
        ServingConfig(
            policy=BatchPolicy(max_batch_size=4, max_queue_depth=32),
            seed=7,
        ),
    )
    return sim


def serving_deadline() -> Simulator:
    """Tight deadlines: expiry sweeps, timeouts, and a timeline."""
    sim = ServingSimulator(
        None,
        [poisson_tenant("lenet", 200.0, 1.5, seed=11)],
        ServingConfig(
            policy=BatchPolicy(
                max_batch_size=4, max_queue_depth=16, deadline_s=0.003
            ),
            seed=11,
            timeline_window_s=0.25,
        ),
    )
    return sim


def serving_multitenant() -> Simulator:
    """Weighted fair share across three tenants, one with its own policy."""
    tenants = [
        poisson_tenant("lenet", 120.0, 2.0, seed=5, weight=3.0),
        poisson_tenant("fcnn", 60.0, 2.0, seed=6, weight=1.0),
        TenantSpec(
            network="lenet",
            arrival=PoissonArrivals(40.0, 2.0, seed=9),
            weight=1.0,
            name="lenet-b",
            policy=BatchPolicy(max_batch_size=2, max_queue_depth=8),
        ),
    ]
    sim = ServingSimulator(
        None, tenants, ServingConfig(policy=BatchPolicy(max_batch_size=8))
    )
    return sim


def serving_faults() -> Simulator:
    """edge-storm with the resilience layer on, timeline recorded."""
    sim = ServingSimulator(
        None,
        [poisson_tenant("lenet", 40.0, 3.0, seed=7)],
        ServingConfig(
            policy=BatchPolicy(max_batch_size=4, deadline_s=0.5),
            seed=7,
            faults=scale_to_horizon(load_scenario("edge-storm"), 3.0),
            timeline_window_s=0.5,
        ),
    )
    return sim


def serving_faults_naive() -> Simulator:
    """The same storm without resilience (stale plans, no retries)."""
    sim = ServingSimulator(
        None,
        [poisson_tenant("lenet", 40.0, 3.0, seed=7)],
        ServingConfig(
            policy=BatchPolicy(max_batch_size=4, deadline_s=0.5),
            seed=7,
            faults=scale_to_horizon(load_scenario("edge-storm"), 3.0),
            resilience=False,
        ),
    )
    return sim


def serving_closed_loop() -> Simulator:
    """Closed-loop clients: arrivals depend on completions."""
    tenants = [
        TenantSpec(
            network="lenet",
            arrival=ClosedLoopArrivals(
                clients=6, think_s=0.005, duration_s=1.5
            ),
        ),
        poisson_tenant("lenet", 50.0, 1.5, seed=3, name="open"),
    ]
    sim = ServingSimulator(
        None, tenants, ServingConfig(policy=BatchPolicy(max_batch_size=4))
    )
    return sim


def serving_obs() -> Simulator:
    """Observability on: per-request spans must not perturb the report."""
    from repro.obs import Observability

    sim = ServingSimulator(
        None,
        [poisson_tenant("lenet", 150.0, 0.5, seed=3)],
        ServingConfig(policy=BatchPolicy(max_batch_size=4)),
        obs=Observability.on(),
    )
    return sim


def serving_cold_start() -> Simulator:
    """Cold-start premium charged to each tenant's first batch."""
    sim = ServingSimulator(
        None,
        [poisson_tenant("lenet", 80.0, 1.0, seed=2)],
        ServingConfig(
            policy=BatchPolicy(max_batch_size=4), cold_start=True, seed=2
        ),
    )
    return sim


def serving_storm_obs(resilience: bool = True) -> Simulator:
    """Two tenants, tight deadlines and short queues in a 3 s edge-storm,
    observability and a timeline on.  With resilience on the run serves,
    sheds, times out, completes late and rejects; with it off it fails
    batches instead of rejecting payloads.  Not an engine-parity
    scenario: the outcome goldens pin it (``test_outcome_goldens.py``)."""
    from repro.obs import Observability

    sim = ServingSimulator(
        None,
        [
            poisson_tenant("lenet", 400.0, 3.0, seed=7),
            poisson_tenant("fcnn", 100.0, 3.0, seed=8),
        ],
        ServingConfig(
            policy=BatchPolicy(
                max_batch_size=4, deadline_s=0.01, max_queue_depth=8
            ),
            seed=7,
            faults=scale_to_horizon(load_scenario("edge-storm"), 3.0),
            resilience=resilience,
            timeline_window_s=0.5,
        ),
        obs=Observability.on(),
    )
    return sim


def serving_storm_obs_naive() -> Simulator:
    """:func:`serving_storm_obs` with the resilience layer off."""
    return serving_storm_obs(resilience=False)


def cluster_routing() -> Simulator:
    """Heterogeneous fleet, plan_cost router, rolling thermal faults."""
    sim = ClusterSimulator(
        [ClusterTenant("lenet", PoissonArrivals(200.0, 4.0, seed=7))],
        DeviceMix.parse(
            "jetson-agx-xavier:2,raspberry-pi-4", throttled_share=0.34
        ),
        6,
        ClusterConfig(
            router="plan_cost",
            seed=7,
            policy=BatchPolicy(max_wait_s=0.0, deadline_s=2.0),
            faults=scale_to_horizon(load_scenario("thermal-soak"), 4.0),
            fault_share=0.5,
            fault_stagger_s=0.5,
            timeline_window_s=1.0,
        ),
    )
    return sim


def cluster_scale() -> Simulator:
    """Diurnal load with the autoscaler growing and shrinking the pool."""
    sim = ClusterSimulator(
        [
            ClusterTenant(
                "squeezenet",
                DiurnalPoissonArrivals(30.0, 4.0, period_s=2.0, seed=5),
            )
        ],
        DeviceMix.parse("jetson-agx-xavier"),
        2,
        ClusterConfig(
            router="least_queue",
            seed=5,
            policy=BatchPolicy(max_wait_s=0.0, deadline_s=2.0),
            autoscaler=AutoscalerPolicy(
                interval_s=0.5,
                high_depth=2.0,
                low_depth=0.25,
                cooldown_s=0.5,
                min_replicas=1,
                max_replicas=6,
            ),
        ),
    )
    return sim


def cluster_flash_crowd() -> Simulator:
    """Two pools, flash-crowd burst, round-robin, timeline recorded."""
    sim = ClusterSimulator(
        [
            ClusterTenant(
                "lenet",
                FlashCrowdArrivals(
                    60.0, 3.0, spike_start_s=1.0, spike_duration_s=0.5,
                    spike_factor=4.0, seed=4,
                ),
            ),
            ClusterTenant("fcnn", PoissonArrivals(40.0, 3.0, seed=8)),
        ],
        DeviceMix.parse("jetson-agx-xavier:2,raspberry-pi-4"),
        4,
        ClusterConfig(
            router="round_robin",
            seed=4,
            policy=BatchPolicy(max_wait_s=0.0, deadline_s=1.0),
            timeline_window_s=0.5,
        ),
    )
    return sim


def cluster_storm(obs=None) -> Simulator:
    """A flash crowd and a steady second pool on a throttled mixed
    fleet in a 3 s edge-storm, with 20 ms deadlines, 4-deep queues and
    the autoscaler on: the only cluster run that sheds, abandons,
    completes late and fails batches.  Not an engine-parity scenario:
    ``test_outcome_goldens.py`` pins it, and its batch trace when run
    with ``obs`` on."""
    sim = ClusterSimulator(
        [
            ClusterTenant(
                "lenet",
                FlashCrowdArrivals(
                    1500.0, 3.0, spike_start_s=1.0, spike_duration_s=0.5,
                    spike_factor=4.0, seed=7,
                ),
            ),
            ClusterTenant("fcnn", PoissonArrivals(500.0, 3.0, seed=8)),
        ],
        DeviceMix.parse(
            "jetson-agx-xavier:2,raspberry-pi-4", throttled_share=0.34
        ),
        3,
        ClusterConfig(
            router="plan_cost",
            seed=7,
            policy=BatchPolicy(
                max_batch_size=4, max_wait_s=0.0, max_queue_depth=4,
                deadline_s=0.02,
            ),
            faults=scale_to_horizon(load_scenario("edge-storm"), 3.0),
            fault_share=0.5,
            fault_stagger_s=0.5,
            autoscaler=AutoscalerPolicy(
                interval_s=0.25,
                high_depth=2.0,
                low_depth=0.25,
                cooldown_s=0.25,
                min_replicas=1,
                max_replicas=6,
            ),
            timeline_window_s=0.5,
        ),
        obs=obs,
    )
    return sim


def run_hermetic(build: Callable[[], Simulator]) -> Tuple[Simulator, object]:
    """Build and run one scenario isolated from process-global state.

    Plan-cache hits/misses are part of the report digest, and the
    default plan cache is process-global — without a reset, digests
    would depend on which scenarios (or other tests) ran earlier in
    the same process.  Returns (simulator, report)."""
    from repro.core.plan_cache import default_plan_cache

    default_plan_cache().clear()
    sim = build()
    return sim, sim.run()


def _digests(build: Callable[[], Simulator]) -> ScenarioFn:
    def run() -> Tuple[str, Optional[str]]:
        sim, report = run_hermetic(build)
        timeline = sim.timeline.digest() if sim.timeline is not None else None
        return report.digest(), timeline

    return run


#: scenario name -> zero-arg builder of its (not yet run) simulator
BUILDERS: Dict[str, Callable[[], Simulator]] = {
    "serving_knee": serving_knee,
    "serving_deadline": serving_deadline,
    "serving_multitenant": serving_multitenant,
    "serving_faults": serving_faults,
    "serving_faults_naive": serving_faults_naive,
    "serving_closed_loop": serving_closed_loop,
    "serving_obs": serving_obs,
    "serving_cold_start": serving_cold_start,
    "cluster_routing": cluster_routing,
    "cluster_scale": cluster_scale,
    "cluster_flash_crowd": cluster_flash_crowd,
}

SCENARIOS: Dict[str, ScenarioFn] = {
    name: _digests(build) for name, build in BUILDERS.items()
}

#: every serving scenario: the engine-parity ones plus the two storm
#: runs, which between them reach every request outcome.
SERVING_BUILDERS: Dict[str, Callable[[], Simulator]] = {
    **{
        name: build for name, build in BUILDERS.items()
        if name.startswith("serving_")
    },
    "serving_storm_obs": serving_storm_obs,
    "serving_storm_obs_naive": serving_storm_obs_naive,
}
