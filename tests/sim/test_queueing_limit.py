"""Queueing-theory oracle: the M/D/1 mean wait.

One tenant with Poisson arrivals, batches of one request, no batching
delay and a deterministic service time S forms an M/D/1 queue.  Its mean
wait in queue is the Pollaczek–Khinchine value ρS / (2(1 − ρ)) at
utilization ρ = λS.  A served latency is that wait plus S, so the
report's mean latency minus S must converge to it.  The tolerance comes
from the central limit theorem: four standard errors, estimated by
batch means over the per-request waits in arrival order, which absorbs
the correlation between successive waits.

The cluster loop meets the same oracle with a fleet of one replica:
its waits are dispatch minus arrival over the run's per-request rows.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterSimulator, ClusterTenant, DeviceMix
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.serving.batcher import BatchPolicy
from repro.serving.simulator import (
    ServiceTimeModel,
    ServingConfig,
    ServingSimulator,
    TenantSpec,
)
from repro.workloads.arrivals import PoissonArrivals

REQUESTS = 100_000
BATCHES = 50
POLICY = BatchPolicy(max_batch_size=1, max_wait_s=0.0, max_queue_depth=10_000)


@pytest.mark.parametrize("rho", [0.3, 0.7])
def test_mean_wait_is_pollaczek_khinchine(rho):
    model = ServiceTimeModel(JETSON_AGX_XAVIER)
    service_s = model.warm("lenet", 1).total_s
    rate = rho / service_s
    arrivals = PoissonArrivals(rate, REQUESTS / rate, seed=1)
    sim = ServingSimulator(
        JETSON_AGX_XAVIER,
        [TenantSpec("lenet", arrivals)],
        ServingConfig(policy=POLICY, seed=1),
        service_model=model,
    )
    report = sim.run()
    assert report.shed == 0
    assert report.served == report.offered

    table = sim.table
    waits = table.dispatch_s[:len(table)] - table.arrival_s[:len(table)]
    expected = rho * service_s / (2.0 * (1.0 - rho))
    assert (
        abs((report.latency.mean_s - service_s) - expected)
        <= 4.0 * batch_means_stderr(waits)
    )


@pytest.mark.parametrize("rho", [0.3, 0.7])
def test_cluster_mean_wait_is_pollaczek_khinchine(rho):
    service_s = ServiceTimeModel(JETSON_AGX_XAVIER).warm("lenet", 1).total_s
    rate = rho / service_s
    sim = ClusterSimulator(
        [ClusterTenant(
            "lenet", PoissonArrivals(rate, REQUESTS / rate, seed=1)
        )],
        DeviceMix.parse(JETSON_AGX_XAVIER.name),
        1,
        ClusterConfig(policy=POLICY, seed=1),
    )
    assert sim.fleet.pools[0].replicas[0].svc1_s == service_s
    report = sim.run()
    assert report.shed == 0
    assert report.served == report.offered

    rows = sim._rows
    waits = rows.dispatch_s - rows.arrival_s
    expected = rho * service_s / (2.0 * (1.0 - rho))
    assert abs(waits.mean() - expected) <= 4.0 * batch_means_stderr(waits)


def batch_means_stderr(waits: np.ndarray) -> float:
    """Standard error of the mean wait, by batch means in arrival order."""
    per_batch = len(waits) // BATCHES
    means = waits[: per_batch * BATCHES].reshape(BATCHES, per_batch).mean(1)
    return means.std(ddof=1) / np.sqrt(BATCHES)
