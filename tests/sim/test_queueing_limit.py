"""Queueing-theory oracle: the M/D/1 mean wait.

One tenant with Poisson arrivals, batches of one request, no batching
delay and a deterministic service time S forms an M/D/1 queue.  Its mean
wait in queue is the Pollaczek–Khinchine value ρS / (2(1 − ρ)) at
utilization ρ = λS.  A served latency is that wait plus S, so the
report's mean latency minus S must converge to it.  The tolerance comes
from the central limit theorem: four standard errors, estimated by
batch means over the per-request waits in arrival order, which absorbs
the correlation between successive waits.
"""

import numpy as np
import pytest

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
    per_batch = len(waits) // BATCHES
    means = waits[: per_batch * BATCHES].reshape(BATCHES, per_batch).mean(1)
    stderr = means.std(ddof=1) / np.sqrt(BATCHES)

    expected = rho * service_s / (2.0 * (1.0 - rho))
    assert abs((report.latency.mean_s - service_s) - expected) <= 4.0 * stderr
