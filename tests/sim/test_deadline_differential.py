"""Differential check: both simulators agree request for request.

A one-replica, one-tenant cluster with ``max_wait_s=0`` and a
:class:`ServingSimulator` with the same arrivals, policy and service
times must give every request the same arrival, status, dispatch
instant and finish instant, bit for bit.  The serving side is its
request table; the cluster side is the rows it rebuilds from its
dispatch log after the run.

Faults stay out on purpose: each cluster replica draws from its own
fault-injector stream, keyed by the replica's name, so the two
simulators would see different fault draws for the same dispatch.

Two hand-built cases sit within about 1e-12 s of a deadline, where
``now - arrival > deadline + EPS`` and ``now > (arrival + deadline) +
EPS`` round differently; both simulators must use the second form, the
one :class:`~repro.sim.engine.queue.IndexQueue` applies.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterSimulator, ClusterTenant, DeviceMix
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.serving.batcher import BatchPolicy
from repro.serving.simulator import (
    BatchServiceTime,
    ServiceTimeModel,
    ServingConfig,
    ServingSimulator,
    TenantSpec,
)
from repro.workloads.arrivals import ArrivalProcess, PoissonArrivals

DEADLINE_S = 0.25


class FixedArrivals(ArrivalProcess):
    """Open-loop arrivals at prescribed instants."""

    def __init__(self, times: List[float], duration_s: float) -> None:
        self.times = list(times)
        self.duration_s = duration_s

    def initial_arrivals(self) -> List[float]:
        return list(self.times)


class FixedService:
    """Every batch takes exactly ``total_s`` seconds."""

    def __init__(self, total_s: float) -> None:
        self.total_s = total_s

    def service(self, network, batch, **kwargs):
        return BatchServiceTime(
            total_s=self.total_s, cpu_busy_s=0.0, gpu_busy_s=self.total_s,
        )

    def warm(self, network, batch):
        return self.service(network, batch)

    def cold(self, network, batch):
        return self.service(network, batch)


POLICY = BatchPolicy(max_batch_size=1, max_wait_s=0.0, deadline_s=DEADLINE_S)


def serve(arrivals, policy, service_model=None):
    """(rows, report) of one serving run."""
    sim = ServingSimulator(
        JETSON_AGX_XAVIER,
        [TenantSpec("lenet", arrivals)],
        ServingConfig(policy=policy),
        service_model=service_model,
    )
    report = sim.run()
    return sim._table.rows(), report


def serve_on_cluster(arrivals, policy, service_model=None):
    """(rows, report) of the same stream on a one-replica cluster."""
    sim = ClusterSimulator(
        [ClusterTenant("lenet", arrivals)],
        DeviceMix.parse("jetson-agx-xavier"),
        1,
        ClusterConfig(router="round_robin", policy=policy),
    )
    if service_model is not None:
        for pool in sim.fleet.pools:
            for replica in pool.replicas:
                replica.model = service_model
    report = sim.run()
    return sim._rows, report


def assert_same_requests(serving, cluster):
    for column in ("arrival_s", "status", "dispatch_s", "finish_s"):
        a, b = getattr(serving, column), getattr(cluster, column)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), column
    assert np.array_equal(serving.served, cluster.served)


# (arrival instants, fixed service time, expected (served, timed_out,
# late)); each case sits where the two deadline expressions disagree.
CASES = {
    # One request completes within 1e-12 s past its deadline: still
    # served under ``now > (arrival + deadline) + EPS``.
    "completion": ([10.566644671935615], 0.2500000000010001, (1, 0, 0)),
    # The first request completes late, and the second reaches
    # dispatch within 1e-12 s past its deadline: still viable, so it is
    # dispatched (and completes late) rather than abandoned in queue.
    "queued": ([0.0, 7.592924851251231], 7.842924851252231, (0, 2, 2)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_both_simulators_give_the_same_outcomes(name):
    times, service_s, expected = CASES[name]
    arrivals = FixedArrivals(times, duration_s=times[-1] + 1.0)
    model = FixedService(service_s)
    serving, report = serve(arrivals, POLICY, model)
    cluster, fleet_report = serve_on_cluster(arrivals, POLICY, model)
    assert (report.served, report.timed_out, report.late) == expected
    assert (
        fleet_report.served, fleet_report.timed_out, fleet_report.late
    ) == expected
    assert_same_requests(serving, cluster)


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rho=st.floats(0.3, 3.0),
    depth=st.integers(1, 256),
    deadline_s=st.one_of(st.none(), st.floats(0.001, 0.05)),
    batch=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_both_simulators_agree_request_for_request(
    rho, depth, deadline_s, batch, seed
):
    # Load is relative to lenet's warm batch-1 service time.
    unit_s = ServiceTimeModel(JETSON_AGX_XAVIER).warm("lenet", 1).total_s
    rate = rho / unit_s
    arrivals = PoissonArrivals(rate, 2500.0 / rate, seed=seed)
    policy = BatchPolicy(
        max_batch_size=batch, max_wait_s=0.0, max_queue_depth=depth,
        deadline_s=deadline_s,
    )
    serving, report = serve(arrivals, policy)
    cluster, fleet_report = serve_on_cluster(arrivals, policy)
    assert_same_requests(serving, cluster)
    assert (
        report.offered, report.served, report.shed, report.timed_out,
        report.late,
    ) == (
        fleet_report.offered, fleet_report.served, fleet_report.shed,
        fleet_report.timed_out, fleet_report.late,
    )
