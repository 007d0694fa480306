"""Transient-memory bound of a fleet run.

The cluster loop keeps no per-request Python objects: it logs a replica
index per arrival and a record per dispatch in typed arrays, and after
the run rebuilds them into per-request rows.  ``tracemalloc`` sees the
NumPy arrays of that rebuild, so this bounds the peak a whole
:meth:`~repro.cluster.ClusterSimulator.run` adds, per offered request.
"""

import tracemalloc

from repro.cluster import ClusterConfig, ClusterSimulator, ClusterTenant, DeviceMix
from repro.faults import load_scenario, scale_to_horizon
from repro.serving.batcher import BatchPolicy
from repro.workloads.arrivals import DiurnalPoissonArrivals

#: Peak traced bytes per offered request that a run may add.
BYTES_PER_REQUEST = 120

#: The end-to-end benchmark's cluster-fleet workload at half scale: 36
#: heterogeneous replicas behind ``plan_cost``, 10 s of diurnal load.
DURATION_S = 10.0
REPLICAS = 12
RATES_PER_REPLICA = {"fcnn": 62.5, "lenet": 50.0, "squeezenet": 2.0}


def fleet(seed: int = 7) -> ClusterSimulator:
    tenants = [
        ClusterTenant(
            network,
            DiurnalPoissonArrivals(
                rate * REPLICAS, DURATION_S, period_s=DURATION_S,
                amplitude=0.5, phase=index * 2.0, seed=seed + index,
            ),
        )
        for index, (network, rate) in enumerate(
            sorted(RATES_PER_REPLICA.items())
        )
    ]
    config = ClusterConfig(
        router="plan_cost",
        policy=BatchPolicy(
            max_batch_size=8, max_wait_s=0.0, max_queue_depth=64,
            deadline_s=5.0,
        ),
        seed=seed,
        faults=scale_to_horizon(load_scenario("thermal-soak"), DURATION_S),
        fault_share=0.25,
        fault_stagger_s=DURATION_S * 0.25,
    )
    mix = DeviceMix.parse(
        "jetson-agx-xavier:3,dimensity-8100:2,raspberry-pi-4:1,"
        "rtx-2080ti-host:1",
        throttled_share=0.15,
    )
    return ClusterSimulator(tenants, mix, REPLICAS, config)


def test_fleet_run_peak_per_offered_request():
    # The first run tunes every plan and pays lazy imports, which are
    # not the run's own transient.
    fleet().run()
    sim = fleet()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        report = sim.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.offered == 13_610
    per_request = (peak - base) / report.offered
    assert per_request <= BYTES_PER_REQUEST, (
        f"a fleet run peaked at {per_request:.0f} B per offered request"
    )
